#ifndef MVCC_COMMON_EPOCH_H_
#define MVCC_COMMON_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mvcc {

// Epoch-based reclamation (EBR) for the latch-free snapshot read path.
//
// The storage layer publishes immutable snapshots (version arrays, index
// tables) behind atomic pointers. Writers replace a snapshot with a
// pointer swap and must eventually free the old one — but a reader that
// loaded the old pointer may still be walking it, and the paper's
// headline guarantee is that readers never block, so they cannot take a
// latch to say so. Instead readers pin the current *epoch* for the
// duration of each read (EpochGuard), writers *retire* replaced
// snapshots instead of freeing them, and retired memory is freed only
// after the global epoch has advanced twice past the retirement epoch —
// by which point every reader that could have loaded the old pointer has
// unpinned (the grace period of classic three-epoch EBR, Fraser 2004;
// the same discipline Larson et al. 2012 use for latch-free version
// access in main-memory MVCC).
//
// Invariants:
//   - A thread pins the epoch it observes in the global counter; the
//     global epoch only advances when every pinned slot equals it. With
//     expedited membarrier a published pin may lag by more than one
//     epoch (the store is not re-validated), which can only delay
//     advances — the membarrier in Advance guarantees any reader whose
//     pin the scan missed sees every unlink retired before the scan.
//     Without membarrier the pin re-validates, so pinned epochs lie in
//     {global-1, global}.
//   - An object must be unlinked (unreachable from the published
//     structure) BEFORE Retire() is called. Readers that pin after the
//     unlink cannot reach it; readers that could reach it are pinned at
//     an epoch <= the retirement tag.
//   - Retired memory with tag e is freed once global >= e + 2: advancing
//     to e+1 and then e+2 each required every pinned reader to be at the
//     then-current epoch, so no reader pinned at <= e survives.
//
// Costs: Pin is one thread-local access plus one seq_cst store and one
// seq_cst fence on a cache line private to the thread (padded slots); no
// shared-line RMW, so readers scale. Nested guards only bump a
// thread-local depth counter. Retire takes a mutex — it sits on the
// write/prune slow path, which already serializes on the chain latch.
class EpochManager {
 public:
  // One slot per live thread, cache-line padded so pins never contend.
  static constexpr size_t kMaxThreads = 512;
  static constexpr uint64_t kIdle = ~0ull;  // slot value: not pinned

  // Process-wide manager. Function-local static: destroyed after main()
  // returns (all database threads joined), freeing any still-retired
  // memory so leak checkers stay quiet. Inline so the guard check on
  // the read path is a load and a branch, not a function call.
  static EpochManager& Global() {
    static EpochManager manager;
    return manager;
  }

  EpochManager();
  ~EpochManager();
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Pins the calling thread to the current epoch; returns the pinned
  // epoch. Re-entrant: nested pins are counted and only the outermost
  // publishes/clears the slot. Defined inline below — this is the one
  // fixed cost on every latch-free read, so it must compile down to
  // direct thread-local accesses plus the publish store/fence.
  uint64_t Pin();
  void Unpin();

  // True while the calling thread holds at least one pin.
  static bool CurrentThreadPinned();

  // Defers freeing `p` (via `deleter(p)`) until no reader pinned at or
  // before the current epoch can still hold a reference. `p` must
  // already be unlinked from every published structure.
  void Retire(void* p, void (*deleter)(void*));

  template <typename T>
  void Retire(T* p) {
    Retire(p, [](void* q) { delete static_cast<T*>(q); });
  }

  // Tries to advance the global epoch (possible only when every pinned
  // thread has observed the current one) and frees every retired object
  // whose grace period has elapsed. Returns the number of objects freed.
  // Safe to call from a pinned thread: its own pin simply blocks the
  // advance past its epoch, never deadlocks.
  size_t Advance();

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  // The tag for memory the caller has just unlinked and will recycle
  // itself instead of Retire()ing it: reusable once global_epoch() >=
  // tag + 2. The fence orders the unlink before the epoch load (Retire
  // gets the same ordering from its mutex), so a reader that pins a
  // later epoch can no longer reach the memory.
  uint64_t UnlinkEpoch() const {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  // Objects retired but not yet freed (tests, GC accounting).
  size_t retired_count() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  uint64_t total_freed() const {
    return total_freed_.load(std::memory_order_relaxed);
  }
  uint64_t epochs_advanced() const {
    return epochs_advanced_.load(std::memory_order_relaxed);
  }

  // One reader slot, cache-line padded so pins never contend. Public
  // only so the inline Pin/Unpin below can touch it through the
  // thread-local state; not part of the conceptual API.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<bool> owned{false};
  };

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;  // global epoch at retirement
  };

  // Cold path: claims a slot for this thread and registers the
  // thread-exit hand-back. Runs once per thread.
  Slot* AcquireSlot();

  // Moves retired objects with tag <= global - 2 into `expired` for the
  // caller to free after dropping the mutex. Caller holds retire_mu_.
  void CollectExpiredLocked(uint64_t global, std::vector<Retired>* expired);

  // Auto-advance threshold: Retire kicks Advance once this many objects
  // are pending, bounding memory growth without a dedicated thread.
  static constexpr size_t kRetireThreshold = 128;

  // Issues a full memory barrier on every thread of the process —
  // membarrier(PRIVATE_EXPEDITED) where available, else a no-op (readers
  // then keep their own fence). Called by Advance before scanning slots.
  void HeavyBarrier();

  // True when Pin must fence itself (no expedited membarrier support).
  // Set once at construction, before any reader exists.
  bool reader_fence_needed_ = true;

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxThreads];

  std::mutex retire_mu_;
  std::vector<Retired> retired_;  // guarded by retire_mu_
  std::atomic<size_t> retired_count_{0};
  std::atomic<uint64_t> total_freed_{0};
  std::atomic<uint64_t> epochs_advanced_{0};
};

namespace epoch_detail {

// Hot per-thread pin state. Deliberately trivially constructible AND
// trivially destructible: that lets the compiler constant-initialize it
// and emit direct TLS loads on the read path, instead of routing every
// access through the lazy-init thread wrapper a nontrivial thread_local
// requires. The slot hand-back on thread exit — which does need a
// destructor — lives in a separate thread_local registered inside
// AcquireSlot, off the hot path.
struct EpochTls {
  EpochManager::Slot* slot;
  uint64_t depth;
  uint64_t pinned_epoch;
};
extern thread_local constinit EpochTls g_epoch_tls;

}  // namespace epoch_detail

// Pin and Unpin name the thread-local object directly instead of
// binding a reference to it. Through a reference, -fsanitize=null checks
// the TLS address for null after `add x@gottpoff(%rip), %reg`, and the
// linker relaxes that add into a flag-less `lea`: the check then
// branched on stale flags and reported "member access within null
// pointer of type 'struct EpochTls'" for a valid address. A named
// object is never null, so no check is emitted at all; the unsanitized
// code is the same either way.
inline uint64_t EpochManager::Pin() {
  using epoch_detail::g_epoch_tls;
  if (g_epoch_tls.depth++ > 0) return g_epoch_tls.pinned_epoch;
  if (g_epoch_tls.slot == nullptr) g_epoch_tls.slot = AcquireSlot();
  // Publish the epoch we observe, then re-check: if the global advanced
  // between the load and the store we re-publish the newer value. The
  // loop settles within two rounds — once our slot shows epoch e, the
  // global cannot pass e+1 (advancing to e+2 would require our slot to
  // show e+1).
  //
  // Store-to-load ordering between the slot publish and later reads of
  // shared structures is what reclamation safety hangs on. When the
  // kernel supports expedited membarrier, Advance imposes that ordering
  // from ITS side (a process-wide barrier before scanning the slots —
  // the urcu-memb construction), and the pin is ONE load and ONE store,
  // the whole fixed cost of a latch-free read. No re-validation is
  // needed even when the published epoch is stale by the time the store
  // lands: if Advance's scan saw the store, the reader's seq_cst load of
  // the epoch it published synchronizes-with the advance that installed
  // that epoch, so the reader already sees every unlink whose tag its
  // pin protects against freeing; if the scan missed the store, the
  // membarrier orders all of the reader's subsequent loads after the
  // scan, so they see every unlink retired before it. A stale slot can
  // only delay future advances (liveness), never unprotect memory.
  //
  // Without membarrier support the reader pays a seq_cst fence pairing
  // with the fence in Advance, and re-validates the published epoch so
  // its slot never lags more than one advance.
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  g_epoch_tls.slot->epoch.store(e, std::memory_order_release);
  if (reader_fence_needed_) {
    while (true) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
      if (now == e) break;
      e = now;
      g_epoch_tls.slot->epoch.store(e, std::memory_order_release);
    }
  }
  g_epoch_tls.pinned_epoch = e;
  return e;
}

inline void EpochManager::Unpin() {
  using epoch_detail::g_epoch_tls;
  if (--g_epoch_tls.depth == 0) {
    g_epoch_tls.slot->epoch.store(kIdle, std::memory_order_release);
  }
}

inline bool EpochManager::CurrentThreadPinned() {
  return epoch_detail::g_epoch_tls.depth > 0;
}

// RAII pin on the process-wide epoch manager. Cheap and re-entrant:
// every latch-free read helper takes one internally, and outer layers
// (a transaction's whole read, a replica scan) may hold one across many
// inner reads so the inner guards reduce to a depth-counter bump.
class EpochGuard {
 public:
  // The manager reference is resolved once in the constructor so the
  // destructor skips Global()'s static-initialization guard check — two
  // such checks per guard were visible on the depth-4 read path.
  EpochGuard() : manager_(EpochManager::Global()) { manager_.Pin(); }
  ~EpochGuard() { manager_.Unpin(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager& manager_;
};

}  // namespace mvcc

#endif  // MVCC_COMMON_EPOCH_H_
