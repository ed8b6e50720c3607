#ifndef MVCC_VC_VISIBILITY_SOURCE_H_
#define MVCC_VC_VISIBILITY_SOURCE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/ids.h"

namespace mvcc {

// A read-only transaction's begin-time view of visibility, taken as a
// vector of per-shard commit watermarks (one entry per shard; scalar
// cores fill exactly one). watermark[s] is a per-shard closure bound:
// every transaction number t with (t & (shard_count-1)) == s and
// t <= watermark[s] has resolved (completed or discarded).
//
// `floor` folds the vector to a scalar: min over shards of watermark[s].
// The set {t : t <= floor} is closed under completion in EVERY shard —
// it equals the visible set of some legal scalar vtnc history (see
// docs/correctness.md, "Snapshot vectors preserve readers-never-block")
// — so the Figure-2 read rule evaluated at `floor` stays serializable
// while Begin costs only shard_count atomic loads: no CAS, no global
// counter round-trip.
//
// The struct is a fixed-size value (no allocation): cheap to take per
// read-only Begin and to embed in TxnState.
struct VisibilitySnapshot {
  static constexpr size_t kMaxShards = 32;

  TxnNumber floor = 0;      // min over watermark[0..shard_count)
  uint32_t shard_count = 1; // power of two, 1 for scalar cores
  std::array<TxnNumber, kMaxShards> watermark{};

  // Figure-2 visibility against the vector: is version number `tn`
  // visible in this snapshot? (tn's own shard has resolved everything
  // up to and including tn.) Reads evaluate at `floor` — the folded,
  // provably serializable bound — but the vector form is what the sim
  // oracle checks for per-shard closure.
  bool Visible(TxnNumber tn) const {
    return tn <= watermark[tn & (shard_count - 1)];
  }
};

// The seam between the visibility core and every consumer: the paper's
// versionControl contract (VCstart / VCregister / VCcomplete /
// VCdiscard, plus the Section 6 distributed extensions) expressed as an
// interface so the locked map core and the sharded watermark core are
// interchangeable behind one pointer.
//
// Scalar consumers that only need a visibility floor — the GC horizon,
// VisibilityLag/Health(), the replication horizon (replica rvtnc), the
// WAL truncation floor — use the cached-floor accessors instead of
// re-folding (or re-loading) the watermark per item:
//
//   RefreshFloor()  one exact fold, publishes the result; call once per
//                   batch/pass, not per item.
//   CachedFloor()   a single relaxed load of the last published floor;
//                   may lag, never leads — always a safe (conservative)
//                   visibility bound.
class VisibilitySource {
 public:
  virtual ~VisibilitySource() = default;

  // VCstart: the start number for a read-only transaction. Lock-free.
  virtual TxnNumber Start() const = 0;

  // VCregister: assigns and returns tn(T). `tiebreak` disambiguates
  // equal counter values across sites in kSiteTagged mode; dense cores
  // ignore it.
  virtual TxnNumber Register(TxnId txn, uint32_t tiebreak) = 0;

  // VCdiscard: drops T's entry (abort after registration).
  virtual void Discard(TxnNumber tn) = 0;

  // VCcomplete: marks T complete and advances visibility over the
  // resolved prefix.
  virtual void Complete(TxnNumber tn) = 0;

  // Moves a registered-but-incomplete entry to the globally agreed
  // number (2PC number agreement). Only the locked core supports this;
  // others MVCC_CHECK-fail.
  virtual void Promote(TxnNumber from, TxnNumber to) = 0;

  // Ensures every future Register() returns a number > tn.
  virtual void AdvanceCounterPast(TxnNumber tn) = 0;

  // Blocks until no registered-but-incomplete transaction has a number
  // <= sn.
  virtual void WaitNoActiveAtOrBelow(TxnNumber sn) = 0;

  // Restores counters after crash recovery; queue must be empty.
  virtual void RecoverTo(TxnNumber last_committed) = 0;

  // Blocks until the visibility floor reaches tn; returns the floor.
  virtual TxnNumber StartAtLeast(TxnNumber tn) = 0;

  virtual TxnNumber NextNumber() const = 0;
  virtual size_t QueueSize() const = 0;

  TxnNumber vtnc() const { return Start(); }

  // ---- Decentralized-visibility seam ----

  // Begin-time snapshot for a read-only transaction. Pure loads on
  // every core (shard_count of them on the sharded core, one here).
  virtual VisibilitySnapshot TakeSnapshot() const {
    VisibilitySnapshot snap;
    snap.shard_count = 1;
    snap.floor = Start();
    snap.watermark[0] = snap.floor;
    return snap;
  }

  // Last published scalar floor; one relaxed load. Scalar cores are
  // their own cache (Start() IS the floor).
  virtual TxnNumber CachedFloor() const { return Start(); }

  // Exact fold + publish; returns the fresh floor. Call once per
  // batch/pass from scalar consumers.
  virtual TxnNumber RefreshFloor() { return Start(); }

  virtual size_t ShardCount() const { return 1; }
  virtual TxnNumber ShardWatermark(size_t) const { return Start(); }

  virtual const char* Name() const = 0;
};

}  // namespace mvcc

#endif  // MVCC_VC_VISIBILITY_SOURCE_H_
