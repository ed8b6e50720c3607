#include "common/epoch.h"

#include <thread>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/check.h"
#include "common/sim_hook.h"

namespace mvcc {

namespace {

// membarrier(2) command values (uapi); spelled out so the build does not
// depend on <linux/membarrier.h> being present.
constexpr int kMembarrierRegisterPrivateExpedited = 1 << 4;
constexpr int kMembarrierPrivateExpedited = 1 << 3;

// Registers this process for expedited membarrier. Returns false when
// the syscall is missing, filtered, or unsupported by the kernel.
bool RegisterMembarrier() {
#if defined(__linux__) && defined(SYS_membarrier)
  return syscall(SYS_membarrier, kMembarrierRegisterPrivateExpedited, 0, 0) ==
         0;
#else
  return false;
#endif
}

}  // namespace

namespace epoch_detail {
// Constant-initialized: accesses compile to direct TLS loads (see the
// header). Zero slot pointer means "no slot claimed yet".
thread_local constinit EpochTls g_epoch_tls{nullptr, 0, 0};
}  // namespace epoch_detail

namespace {

// Hands the thread's slot back on thread exit so slots recycle across
// the process lifetime (thread_local destructors run before
// static-storage destructors, so the manager is still alive). A
// separate object — not a destructor on EpochTls itself — so the hot
// state stays trivially destructible.
struct SlotReleaser {
  ~SlotReleaser() {
    // Named directly, not through a reference (see Pin in epoch.h).
    using epoch_detail::g_epoch_tls;
    if (g_epoch_tls.slot != nullptr) {
      g_epoch_tls.slot->epoch.store(EpochManager::kIdle,
                                    std::memory_order_release);
      g_epoch_tls.slot->owned.store(false, std::memory_order_release);
      g_epoch_tls.slot = nullptr;
    }
  }
};

}  // namespace

EpochManager::EpochManager()
    : reader_fence_needed_(!RegisterMembarrier()) {}

void EpochManager::HeavyBarrier() {
  if (reader_fence_needed_) {
    // Fallback pairing: readers fence themselves, we fence here.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return;
  }
#if defined(__linux__) && defined(SYS_membarrier)
  // Every running thread of the process executes a full barrier before
  // this returns (and a descheduled thread's context switch is one), so
  // each slot store issued before now is visible to the scan below, and
  // each reader's subsequent loads see every unlink issued before now.
  syscall(SYS_membarrier, kMembarrierPrivateExpedited, 0, 0);
#endif
}

EpochManager::~EpochManager() {
  // No reader can be pinned here (the manager outlives every database
  // thread); whatever is still retired is safe to free.
  std::lock_guard<std::mutex> lock(retire_mu_);
  for (const Retired& r : retired_) r.deleter(r.ptr);
  retired_.clear();
  retired_count_.store(0, std::memory_order_relaxed);
}

EpochManager::Slot* EpochManager::AcquireSlot() {
  // Construction here (once per thread, cold path) registers the
  // thread-exit hand-back for the slot we are about to claim.
  thread_local SlotReleaser releaser;
  (void)releaser;
  const size_t start =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMaxThreads;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    Slot& slot = slots_[(start + i) % kMaxThreads];
    bool expected = false;
    if (slot.owned.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      return &slot;
    }
  }
  MVCC_CHECK(false && "EpochManager: more than kMaxThreads live threads");
  return nullptr;
}

void EpochManager::Retire(void* p, void (*deleter)(void*)) {
  bool should_advance = false;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    retired_.push_back(
        Retired{p, deleter, global_epoch_.load(std::memory_order_seq_cst)});
    retired_count_.store(retired_.size(), std::memory_order_relaxed);
    should_advance = retired_.size() >= kRetireThreshold;
  }
  if (should_advance) Advance();
}

size_t EpochManager::Advance() {
  std::vector<Retired> expired;
  uint64_t e;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);  // one advancer at a time
    HeavyBarrier();
    e = global_epoch_.load(std::memory_order_seq_cst);
    bool can_advance = true;
    for (const Slot& slot : slots_) {
      if (!slot.owned.load(std::memory_order_acquire)) continue;
      const uint64_t pinned = slot.epoch.load(std::memory_order_seq_cst);
      if (pinned != kIdle && pinned != e) {
        // A reader is still in the previous epoch; its grace period has
        // not elapsed. (A pinned thread calling Advance blocks itself
        // here once its own pin lags — never deadlocks, just defers.)
        can_advance = false;
        break;
      }
    }
    if (can_advance) {
      global_epoch_.store(e + 1, std::memory_order_seq_cst);
      epochs_advanced_.fetch_add(1, std::memory_order_relaxed);
      e = e + 1;
    }
    CollectExpiredLocked(e, &expired);
  }
  // Deleters run OUTSIDE retire_mu_: a deleter is free to call Retire
  // (which takes this mutex) — and a slow destructor must not stall
  // every concurrent retirer behind the lock.
  for (const Retired& r : expired) r.deleter(r.ptr);
  total_freed_.fetch_add(expired.size(), std::memory_order_relaxed);
  // Deliberately NOT hashing the absolute epoch: the manager is
  // process-global, so the counter is monotonic ACROSS simulation runs
  // and would make same-seed replays hash differently. The event's
  // position in the schedule plus the expired count is the run-relative
  // signal.
  SimObserve(this, "ebr.advance", expired.size(), 0);
  return expired.size();
}

void EpochManager::CollectExpiredLocked(uint64_t global,
                                        std::vector<Retired>* expired) {
  size_t keep = 0;
  for (size_t i = 0; i < retired_.size(); ++i) {
    if (retired_[i].epoch + 2 <= global) {
      expired->push_back(retired_[i]);
    } else {
      retired_[keep++] = retired_[i];
    }
  }
  retired_.resize(keep);
  retired_count_.store(keep, std::memory_order_relaxed);
}

}  // namespace mvcc
