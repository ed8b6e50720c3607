#ifndef MVCC_VC_VERSION_CONTROL_H_
#define MVCC_VC_VERSION_CONTROL_H_

#include <cstdint>
#include <memory>

#include "common/ids.h"
#include "vc/locked_core.h"  // NumberingMode
#include "vc/visibility_source.h"

namespace mvcc {

// The paper's VersionControl module (Figure 1).
//
// Maintains:
//   tnc     - transaction number counter: the next number to hand out.
//             Transaction Ordering Property: every active-but-unassigned
//             or future transaction will receive tn >= tnc.
//   vtnc    - visible transaction number counter: the largest number such
//             that ALL transactions with tn <= vtnc have completed
//             (Transaction Visibility Property). Controls which versions
//             read-only transactions may see. Invariant: vtnc < tnc.
//   VCQueue - registered transactions whose completion has not yet been
//             made visible.
//
// Entry points map to the paper verbatim:
//   Start()    = VCstart()    : read-only begin; a single atomic load.
//   Register() = VCregister() : called when a read-write transaction's
//                               serial position becomes known (begin under
//                               TO, lock point under 2PL, validation under
//                               OCC). Returns tn(T).
//   Discard()  = VCdiscard()  : called on abort after registration.
//   Complete() = VCcomplete() : called after commit + database update.
//
// This class is a thin facade over one of two cores implementing the
// VisibilitySource contract, fixed by the numbering mode:
//   kDense      ShardedVisibility: per-shard commit watermarks; read-only
//               Begin takes a vector snapshot with no CAS and no global
//               counter round-trip.
//   kSiteTagged LockedVisibility: the mutex + std::map VCQueue of
//               Figure 1. Promote() during distributed 2PC number
//               agreement moves queue entries to non-dense numbers no
//               dense core can index. A regression test pins this routing.
// Consumers that hold a VersionControl& may also take the seam directly
// via source().
//
// One deliberate deviation from the paper's pseudocode: Figure 1's
// VCdiscard only removes the queue entry. If the discarded entry was the
// head and the entries behind it had already completed, vtnc would stall
// forever. Discard() therefore runs the same head-draining step as
// Complete() on every core. A unit test pins this scenario.
class VersionControl final : public VisibilitySource {
 public:
  // `vc_shards` is the kDense core's shard count (0 = the core's
  // default); kSiteTagged ignores it.
  explicit VersionControl(NumberingMode mode = NumberingMode::kDense,
                          size_t vc_shards = 0);
  VersionControl(const VersionControl&) = delete;
  VersionControl& operator=(const VersionControl&) = delete;

  // The seam: every consumer call site ultimately lands here.
  VisibilitySource* source() { return core_.get(); }
  const VisibilitySource* source() const { return core_.get(); }

  // VCstart: the start number for a read-only transaction. Lock-free.
  TxnNumber Start() const override { return core_->Start(); }

  // VCregister: assigns and returns tn(T). In kSiteTagged mode `tiebreak`
  // disambiguates equal counter values across sites; in kDense mode it is
  // ignored.
  TxnNumber Register(TxnId txn, uint32_t tiebreak = 0) override {
    return core_->Register(txn, tiebreak);
  }

  // VCdiscard: drops T's entry (abort after registration). See class
  // comment for the head-draining deviation.
  void Discard(TxnNumber tn) override { core_->Discard(tn); }

  // VCcomplete: marks T complete and advances vtnc over the completed
  // prefix of VCQueue.
  void Complete(TxnNumber tn) override { core_->Complete(tn); }

  // ---- Distributed / currency extensions (Section 6) ----

  // Moves a registered-but-incomplete entry from `from` to the globally
  // agreed number `to` (to >= from) and ensures future local numbers
  // exceed `to`. Used during two-phase commit number agreement.
  // Locked core only (kSiteTagged).
  void Promote(TxnNumber from, TxnNumber to) override {
    core_->Promote(from, to);
  }

  // Ensures every future Register() returns a number > `tn`. Used when a
  // remote read-only transaction with start number `tn` arrives at this
  // site (Lamport-style clock push). Lock-free fast path when already
  // ahead.
  void AdvanceCounterPast(TxnNumber tn) override {
    core_->AdvanceCounterPast(tn);
  }

  // Blocks until no registered-but-incomplete transaction has a number
  // <= `sn`. Afterwards, the set of versions with number <= sn at this
  // site is final (registered writers have resolved; future writers get
  // larger numbers once AdvanceCounterPast(sn) has been called).
  void WaitNoActiveAtOrBelow(TxnNumber sn) override {
    core_->WaitNoActiveAtOrBelow(sn);
  }

  // Restores the counters after crash recovery: every transaction with
  // tn <= `last_committed` has been replayed from the log and is durable
  // and complete. Only legal while the queue is empty (no transactions
  // are in flight during recovery).
  void RecoverTo(TxnNumber last_committed) override {
    core_->RecoverTo(last_committed);
  }

  // Blocks until the visibility floor reaches `tn`: the currency fix of
  // Section 6, letting a read-only transaction insist on observing a
  // specific read-write transaction's effects. Returns the resulting
  // start number.
  TxnNumber StartAtLeast(TxnNumber tn) override {
    return core_->StartAtLeast(tn);
  }

  // ---- Decentralized-visibility seam (pass-through) ----

  VisibilitySnapshot TakeSnapshot() const override {
    return core_->TakeSnapshot();
  }
  TxnNumber CachedFloor() const override { return core_->CachedFloor(); }
  TxnNumber RefreshFloor() override { return core_->RefreshFloor(); }
  size_t ShardCount() const override { return core_->ShardCount(); }
  TxnNumber ShardWatermark(size_t shard) const override {
    return core_->ShardWatermark(shard);
  }

  // ---- Introspection ----

  // Current value of the transaction number counter expressed as the next
  // tn that would be assigned (with tiebreak 0 in kSiteTagged mode).
  TxnNumber NextNumber() const override { return core_->NextNumber(); }

  // Registered-but-not-yet-visible transactions. On the sharded core
  // this may transiently overcount by in-flight registrations; exact at
  // quiesce.
  size_t QueueSize() const override { return core_->QueueSize(); }

  const char* Name() const override { return core_->Name(); }

  NumberingMode mode() const { return mode_; }
  const char* core_name() const { return core_->Name(); }

  // ---- Testing ----

  // Reverts Discard to Figure 1's literal pseudocode: remove the entry
  // and nothing else (no head drain, so a completed suffix behind a
  // discarded head stalls vtnc forever). Exists so the deterministic
  // simulator can demonstrate that the head-draining deviation is
  // load-bearing; never set in production. Must first be set before any
  // registration: it swaps a kDense instance onto the locked core
  // (sticky), since the stalled-suffix observable is defined on the map
  // queue.
  void SetLiteralFigure1DiscardForTest(bool literal);

 private:
  const NumberingMode mode_;
  // Sharded for kDense, locked for kSiteTagged; the literal-Figure-1 test
  // knob may swap a kDense instance onto the locked core.
  std::unique_ptr<VisibilitySource> core_;
};

}  // namespace mvcc

#endif  // MVCC_VC_VERSION_CONTROL_H_
