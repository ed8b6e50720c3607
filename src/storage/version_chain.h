#ifndef MVCC_STORAGE_VERSION_CHAIN_H_
#define MVCC_STORAGE_VERSION_CHAIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/counters.h"
#include "common/epoch.h"
#include "common/ids.h"
#include "common/latch.h"
#include "common/result.h"
#include "storage/version.h"
#include "storage/version_arena.h"

namespace mvcc {

// Aggregate write-side counters for the arena-backed chains, reported
// by bench_readpath: the whole point of the arena redesign is driving
// `republishes` (full-array copies) toward zero on in-order workloads
// and making `pruned_in_place` (O(1) prefix drops) carry GC instead.
struct ChainWriteStats {
  uint64_t installs_in_place = 0;  // append into spare capacity
  uint64_t republishes = 0;        // new array published (grow/ooo/remove)
  uint64_t prunes_in_place = 0;    // prune served by a start-offset bump
};
ChainWriteStats GetChainWriteStats();

// The list of committed versions of one object, ordered by ascending
// version number.
//
// Reads are latch-free and wait-free: the chain keeps its versions in an
// immutable array published through an atomic pointer, with the live
// window [start, count) release-published in two counters. A reader pins
// the reclamation epoch (EpochGuard), acquire-loads the array pointer
// and the window, and searches entries that can never change underneath
// it — no latch, no retry loop, no store to shared state. This is how
// the paper's "read-only transactions never block" guarantee survives
// contention: visibility is coordinated by vtnc and the published
// window, not by mutual exclusion.
//
// The write side is shaped so that it never makes readers pay (the PR 5
// version lost to a latched vector precisely because it did):
//   - Slots are POD (version number, writer, and a pointer into
//     arena-allocated payload bytes), so republishing an array is a
//     memcpy, never a string copy, and reclaimed arrays need no
//     destructor pass.
//   - Arrays and payloads are carved from a VersionArena; a released
//     block is reused by the arena itself once its epoch grace period
//     ends, with no per-array EBR retirement (see version_arena.h).
//   - In-order installs (commits arriving in tn order — the common
//     case) append into reserve-ahead spare capacity and publish by
//     bumping `count`; arrays are sized with headroom so a republish
//     happens only on geometric growth, an out-of-order install, or a
//     Remove rollback.
//   - Prune drops a prefix by bumping `start` — O(1), no allocation, no
//     copy; the array compacts for free at its next republish.
// Blocking-on-pending-writes semantics belong to the concurrency
// control protocols, never to the chain itself.
class VersionChain {
 public:
  // `arena` supplies array/payload storage (nullptr = the process-wide
  // default arena). `version_counter`, when non-null, is credited by
  // Install and debited by Remove/Prune — the object store aggregates
  // installs across chains so GC accounting never walks them.
  explicit VersionChain(VersionArena* arena = nullptr,
                        StripedCounter* version_counter = nullptr);
  ~VersionChain();
  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  // Returns the version with the largest number <= `at_most`
  // (the read rule of Figure 2). NotFound if every version is younger,
  // which can only happen if garbage collection violated its watermark
  // contract or the object was created after the reader's snapshot.
  // Inline (like ReadLatest below): this is the hottest path in the
  // system and the call boundary alone was measurable against it.
  //
  // The newest-first fast case is profile-driven: snapshot readers run
  // at (or near) vtnc, so the newest or second-newest version satisfies
  // almost every read and the binary search is the cold tail.
  Result<VersionRead> Read(TxnNumber at_most) const {
    EpochGuard guard;
    const VersionArray* arr = array_.load(std::memory_order_acquire);
    const VersionSlot* slots = arr->slots();
    // The hit path touches only `count`: slot count-1 is never pruned
    // (Prune always retains the newest version <= its watermark, so
    // start <= count-1 whenever count > 0, and count == 0 implies
    // start == 0). The read linearizes at this load — a concurrent
    // install or prune published after it simply isn't in this reader's
    // snapshot.
    size_t n = arr->count.load(std::memory_order_acquire);
    if (__builtin_expect(n != 0, 1)) {
      const VersionSlot& newest = slots[n - 1];
      if (__builtin_expect(newest.number <= at_most, 1)) {
        return MakeRead(newest);
      }
    }
    size_t s = arr->start.load(std::memory_order_acquire);
    if (__builtin_expect(s >= n && n != 0, 0)) {
      // A prune published a newer window than the count loaded above.
      // Its release-store of `start` happened after it observed a count
      // past the cut, so one acquire reload restores s < n; the extra
      // slots it exposes are published and ascending, so the search
      // below stays correct.
      n = arr->count.load(std::memory_order_acquire);
    }
    if (n > s) {
      if (n - 1 > s) {
        const VersionSlot& prev = slots[n - 2];
        if (prev.number <= at_most) return MakeRead(prev);
      }
      const size_t idx = UpperBound(slots, s, n > s + 2 ? n - 2 : s, at_most);
      if (idx > s) return MakeRead(slots[idx - 1]);
    }
    return Status::NotFound("no version <= " + std::to_string(at_most));
  }

  // Returns the most recent committed version (the 2PL read rule,
  // sn = infinity). NotFound on an empty chain.
  Result<VersionRead> ReadLatest() const {
    EpochGuard guard;
    const VersionArray* arr = array_.load(std::memory_order_acquire);
    // count == 0 iff the chain is empty (see Read); `start` is not
    // consulted because slot count-1 is never pruned away.
    const size_t n = arr->count.load(std::memory_order_acquire);
    if (n == 0) return Status::NotFound("empty version chain");
    return MakeRead(arr->slots()[n - 1]);
  }

  // Returns the newest version with number <= `at_most` whose number also
  // satisfies `pred`, scanning backwards. Used by the MV2PL-CTL baseline,
  // whose readers must additionally check that the version's creator
  // appears in their completed-transaction-list copy. Templated so the
  // hot read path never pays a std::function type-erasure allocation.
  template <typename Pred>
  Result<VersionRead> ReadIf(TxnNumber at_most, const Pred& pred) const {
    EpochGuard guard;
    const VersionArray* arr = array_.load(std::memory_order_acquire);
    const size_t s = arr->start.load(std::memory_order_acquire);
    const size_t n = arr->count.load(std::memory_order_acquire);
    const VersionSlot* slots = arr->slots();
    size_t idx = UpperBound(slots, s, n, at_most);
    while (idx > s) {
      const VersionSlot& v = slots[--idx];
      if (pred(v.number)) return MakeRead(v);
    }
    return Status::NotFound("no qualifying version <= " +
                            std::to_string(at_most));
  }

  // Inserts a committed version. Version numbers are unique per object
  // (writers are serialized by the CC protocol); out-of-order installs
  // are tolerated because TO writers may commit out of tn order.
  void Install(const Version& v);

  // Removes the version with exactly `number`, if present. Returns true
  // if a version was removed. Used by the commit pipeline to roll back
  // installed-but-not-durable versions when the write-ahead append
  // fails: the version was never visible (vtnc cannot have covered it —
  // its transaction never completed), so removal is safe.
  bool Remove(VersionNumber number);

  // Removes all versions strictly older than the newest version whose
  // number is <= `watermark`. That newest-visible version is retained so
  // readers with sn >= watermark still find their snapshot. Returns the
  // number of versions discarded.
  size_t Prune(VersionNumber watermark);

  // Number of committed versions currently retained.
  size_t size() const;

  // Largest committed version number, or kInvalidTxnNumber if empty.
  VersionNumber LatestNumber() const;

 private:
  // One committed version as stored: trivially copyable and trivially
  // destructible, so republishes are memcpys and block reuse never
  // runs destructors. The payload bytes live in the arena (or, when
  // oversized, on its heap path) and are immutable for the life of the
  // version.
  struct VersionSlot {
    VersionNumber number;
    const char* data;  // payload bytes; nullptr iff len == 0
    TxnId writer;
    uint32_t len;
    uint32_t reserved;
  };
  static_assert(std::is_trivially_copyable_v<VersionSlot>);
  static_assert(std::is_trivially_destructible_v<VersionSlot>);

  // One published generation of the chain: slots()[start..count) are
  // immutable and ascending by number; slots at index >= count are
  // writer-private spare capacity; slots below start are pruned (still
  // physically readable under the epoch grace period). Readers
  // synchronize on `count` (acquire) for in-place appends, on `start`
  // (acquire) for in-place prunes, and on the owning chain's array
  // pointer (acquire) for swaps; a swapped-out array is released to the
  // arena, which reuses it only after every reader that could hold it
  // has unpinned.
  //
  // Header and slots live in ONE allocation (trailing array), so a read
  // is two dependent loads (chain -> array -> slot) instead of three —
  // on a cold chain that third hop is a full cache miss, and it put the
  // latch-free path behind the latched vector it replaced.
  struct VersionArray {
    const uint32_t capacity;
    std::atomic<uint32_t> start{0};
    std::atomic<uint64_t> count{0};

    VersionSlot* slots() { return reinterpret_cast<VersionSlot*>(this + 1); }
    const VersionSlot* slots() const {
      return reinterpret_cast<const VersionSlot*>(this + 1);
    }

    static size_t AllocBytes(size_t capacity) {
      return sizeof(VersionArray) + capacity * sizeof(VersionSlot);
    }

    explicit VersionArray(uint32_t cap) : capacity(cap) {}
  };
  static_assert(std::is_trivially_destructible_v<VersionArray>);

  static Result<VersionRead> MakeRead(const VersionSlot& v) {
    return VersionRead{v.number, v.writer,
                       v.len != 0 ? Value(v.data, v.len) : Value()};
  }

  // First index in slots[lo..hi) whose number exceeds `at_most`.
  static size_t UpperBound(const VersionSlot* slots, size_t lo, size_t hi,
                           TxnNumber at_most) {
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (slots[mid].number <= at_most) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  VersionArray* MakeArray(size_t capacity);
  void ReleaseArray(VersionArray* arr);
  const char* CopyPayload(const Value& value);
  void ReleasePayload(const VersionSlot& slot);

  // Builds and publishes a replacement array under latch_, releasing
  // the old one to the arena. The live window [start, count) compacts
  // to 0. `insert_at` is the absolute slot index where `v` lands
  // (SIZE_MAX = none); `drop` is an absolute index to omit (SIZE_MAX =
  // none; its payload is NOT released — the caller decides).
  void Republish(VersionArray* old, size_t start, size_t count,
                 size_t insert_at, const VersionSlot* v, size_t drop);

  static constexpr size_t kInitialCapacity = 8;
  // Republishes reserve room for this many further in-order installs on
  // top of geometric growth, so a freshly compacted or grown array
  // never republishes again for a handful of appends.
  static constexpr size_t kReserveAhead = 8;

  // arena_ precedes array_: the constructor carves the initial array
  // out of it.
  VersionArena* const arena_;
  StripedCounter* const version_counter_;
  mutable SpinLatch latch_;  // serializes writers; readers never touch it
  std::atomic<VersionArray*> array_;
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_VERSION_CHAIN_H_
