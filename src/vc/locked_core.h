#ifndef MVCC_VC_LOCKED_CORE_H_
#define MVCC_VC_LOCKED_CORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/ids.h"
#include "vc/vc_queue.h"
#include "vc/visibility_source.h"

namespace mvcc {

// How transaction numbers are generated.
//
//  kDense:      tn = counter++ (1, 2, 3, ...). The centralized scheme of
//               Figure 1.
//  kSiteTagged: tn = (counter << 32) | tiebreak. Used by the distributed
//               extension (Section 6 / reference [3]): the low 32 bits
//               carry a globally unique per-transaction tiebreak so that
//               independently numbered sites can agree on one globally
//               unique, totally ordered tn per read-write transaction.
enum class NumberingMode {
  kDense,
  kSiteTagged,
};

// The mutex + std::map core (VcQueue): the literal Figure-1 shape.
// Retained for kSiteTagged numbering — Promote() during distributed 2PC
// number agreement moves queue entries to non-dense numbers the sharded
// core cannot index — and for the literal-Figure-1 test knob, whose
// observable (QueueSize of a stalled suffix) is defined on the map.
class LockedVisibility final : public VisibilitySource {
 public:
  explicit LockedVisibility(NumberingMode mode) : mode_(mode) {}
  LockedVisibility(const LockedVisibility&) = delete;
  LockedVisibility& operator=(const LockedVisibility&) = delete;

  TxnNumber Start() const override {
    return vtnc_.load(std::memory_order_acquire);
  }
  TxnNumber Register(TxnId txn, uint32_t tiebreak) override;
  void Discard(TxnNumber tn) override;
  void Complete(TxnNumber tn) override;
  void Promote(TxnNumber from, TxnNumber to) override;
  void AdvanceCounterPast(TxnNumber tn) override;
  void WaitNoActiveAtOrBelow(TxnNumber sn) override;
  void RecoverTo(TxnNumber last_committed) override;
  TxnNumber StartAtLeast(TxnNumber tn) override;
  TxnNumber NextNumber() const override;
  size_t QueueSize() const override;
  const char* Name() const override { return "locked"; }

  NumberingMode mode() const { return mode_; }

  // Reverts Discard to Figure 1's literal pseudocode (no head drain).
  // Testing only; see VersionControl::SetLiteralFigure1DiscardForTest.
  void SetLiteralFigure1Discard(bool literal) {
    std::lock_guard<std::mutex> guard(mu_);
    literal_figure1_discard_ = literal;
  }

 private:
  TxnNumber MakeNumber(uint64_t counter, uint32_t tiebreak) const {
    return mode_ == NumberingMode::kDense ? counter
                                          : (counter << 32) | tiebreak;
  }
  uint64_t CounterPart(TxnNumber tn) const {
    return mode_ == NumberingMode::kDense ? tn : tn >> 32;
  }

  const NumberingMode mode_;
  bool literal_figure1_discard_ = false;  // testing only, see setter

  // tnc (counter part). Mutations are serialized under mu_ but the
  // atomic keeps NextNumber lock-free.
  std::atomic<uint64_t> counter_{1};
  std::atomic<TxnNumber> vtnc_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled on Complete/Discard/vtnc moves
  VcQueue queue_;
};

}  // namespace mvcc

#endif  // MVCC_VC_LOCKED_CORE_H_
