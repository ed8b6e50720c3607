#ifndef MVCC_VC_SHARDED_CORE_H_
#define MVCC_VC_SHARDED_CORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/ids.h"
#include "vc/visibility_source.h"

namespace mvcc {

// Sharded visibility core: per-shard commit watermarks, mask-routed by
// transaction number (shard of tn = tn & (shard_count-1), power-of-two
// shard count like object_store). Transaction numbers stay globally
// dense — one atomic fetch_add — but COMPLETION tracking decentralizes:
// each residue class has its own completion ring and its own drain
// cursor, so resolvers of different classes never touch the same cache
// lines and a stalled transaction only parks its own class's cursor.
//
// Representation. shards_[s].next is the smallest UNRESOLVED (or
// not-yet-consumed) transaction number of class s; the class-s commit
// watermark is next-1: every class-s number <= next-1 has resolved
// (completed or discarded). Since next is ≡ s (mod K) plus monotone,
// next-1 also bounds every OTHER class's numbers below it trivially —
// the vector entry is exactly the per-shard closure bound of
// VisibilitySnapshot.
//
// Read-only Begin = TakeSnapshot(): K acquire loads, no CAS, no global
// counter round-trip. The folded floor min_s(next_s) - 1 equals the
// vtnc of the legal scalar history in which transactions become visible
// in resolution-consumption order — see docs/correctness.md ("Snapshot
// vectors preserve readers-never-block") for the closure argument; the
// sim explorer's watermark-vector oracle re-checks it per schedule.
//
// Differences from Figure 1's scalar vtnc, both observably equivalent:
//  * the floor may name a DISCARDED (or never-assigned) number — a
//    discarded tn installs no versions, so reading at it reads the same
//    versions as reading at the largest completed number below it;
//  * total buffering is shard_count * kShardRingSize unresolved
//    transactions, and a preempted resolver stalls only 1/K of
//    registrations — the reason the oversubscribed bench_vc runs stay
//    near their single-thread line.
class ShardedVisibility final : public VisibilitySource {
 public:
  static constexpr size_t kShardRingSize = 4096;
  static constexpr size_t kDefaultShards = 16;

  // `shard_count` is clamped to a power of two in
  // [1, VisibilitySnapshot::kMaxShards].
  explicit ShardedVisibility(size_t shard_count = kDefaultShards);
  ShardedVisibility(const ShardedVisibility&) = delete;
  ShardedVisibility& operator=(const ShardedVisibility&) = delete;

  TxnNumber Start() const override { return ComputeFloorAcquire(); }
  TxnNumber Register(TxnId txn, uint32_t tiebreak) override;
  void Discard(TxnNumber tn) override;
  void Complete(TxnNumber tn) override;
  void Promote(TxnNumber from, TxnNumber to) override;  // CHECK-fails
  void AdvanceCounterPast(TxnNumber tn) override;
  void WaitNoActiveAtOrBelow(TxnNumber sn) override;
  void RecoverTo(TxnNumber last_committed) override;
  TxnNumber StartAtLeast(TxnNumber tn) override;
  TxnNumber NextNumber() const override;
  size_t QueueSize() const override;
  const char* Name() const override { return "sharded"; }

  VisibilitySnapshot TakeSnapshot() const override;
  TxnNumber CachedFloor() const override {
    return floor_cache_.load(std::memory_order_acquire);
  }
  TxnNumber RefreshFloor() override;
  size_t ShardCount() const override { return shard_count_; }
  TxnNumber ShardWatermark(size_t shard) const override {
    return shards_[shard & shard_mask_].next.load(
               std::memory_order_acquire) - 1;
  }

 private:
  // Slot encoding: (tn << 2) | state, 0 == free; the full tn
  // disambiguates wrapped-around occupants.
  static constexpr uint64_t kSlotActive = 1;
  static constexpr uint64_t kSlotComplete = 2;
  static constexpr uint64_t kSlotDiscarded = 3;

  struct alignas(64) Shard {
    // Per-class completion ring, indexed by round: class member number
    // k*K + s lands in slot k & (kShardRingSize-1).
    std::unique_ptr<std::atomic<uint64_t>[]> ring;
    // Smallest unconsumed transaction number of this class (always
    // ≡ s mod K). next - 1 is the class's commit watermark.
    std::atomic<TxnNumber> next{0};
  };

  size_t SlotOf(TxnNumber tn) const {
    return (tn >> shard_shift_) & (kShardRingSize - 1);
  }
  // Smallest number ≡ s (mod K) that is >= from.
  TxnNumber FirstClassMemberAtOrAfter(uint64_t s, TxnNumber from) const {
    return from + ((s - from) & shard_mask_);
  }
  // Class-s members in [1, next): next ≡ s (mod K) always.
  uint64_t MembersBelow(uint64_t s, TxnNumber next) const {
    return (next - s) >> shard_shift_ == 0
               ? 0
               : ((next - s) >> shard_shift_) - (s == 0 ? 1 : 0);
  }

  TxnNumber ComputeFloorAcquire() const;
  TxnNumber ComputeFloorSeqCst() const;

  void Resolve(TxnNumber tn, uint64_t state);
  // Consumes the resolved prefix of class s: CAS-advances shards_[s].next
  // over resolved slots, freeing each. Must NOT be called with mu_ held
  // (TryJumpGapShard locks it).
  void DrainShard(size_t s);
  void DrainAllShards();
  // shards_[s].next is parked at n and n's slot is free: if n lies in a
  // recorded never-assigned range, jump next past the range. Returns
  // true if the caller should retry the drain loop.
  bool TryJumpGapShard(size_t s, TxnNumber n);
  bool HasActiveAtOrBelowLocked(TxnNumber sn) const;
  void WakeWaitersIfAny();
  size_t QueueSizeApprox() const;

  size_t shard_count_;
  uint64_t shard_mask_;
  uint64_t shard_shift_;
  std::unique_ptr<Shard[]> shards_;

  // tnc: numbers stay globally dense and totally ordered; only
  // completion tracking is sharded.
  std::atomic<uint64_t> counter_{1};

  // Lazily-refreshed scalar floor for consumers that poll (GC horizon,
  // replication horizon, admission stats). Lags the exact fold, never
  // leads it. Readers do NOT publish here — Begin stays CAS-free.
  std::atomic<TxnNumber> floor_cache_{0};

  // Never-assigned ranges from AdvanceCounterPast. One range spans all
  // residue classes, so each shard jumps it independently; the entry is
  // dropped once every class that owns a member in the range has jumped
  // (done_mask full). gap_created_/gap_consumed_ feed QueueSize.
  struct GapRange {
    TxnNumber last = 0;
    uint64_t done_mask = 0;  // bit s: class s has drained past the range
  };
  std::map<TxnNumber, GapRange> gaps_;  // first -> range, guarded by mu_
  std::atomic<uint64_t> gap_count_{0};
  std::atomic<uint64_t> gap_created_{0};   // member count ever created
  std::atomic<uint64_t> gap_consumed_{0};  // member count jumped over
  uint64_t full_done_mask_ = 0;

  // Slow sleepers currently inside a cv wait (StartAtLeast,
  // WaitNoActiveAtOrBelow, full-ring backpressure); Dekker pairing with
  // the resolvers' seq_cst cursor updates, so a wakeup is never missed.
  std::atomic<int> waiters_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace mvcc

#endif  // MVCC_VC_SHARDED_CORE_H_
