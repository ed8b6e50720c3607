#include "vc/version_control.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "vc/locked_core.h"

namespace mvcc {
namespace {

// The dense-numbering cases run against both cores a kDense
// VersionControl can sit on: the locked Figure-1 reference, where vtnc
// takes the exact values of the paper's pseudocode, and the default
// (sharded) core, whose folded floor may name a discarded number — see
// VcSharded.FloorMayNameDiscardedNumber.
enum class DenseCore { kLocked, kDefault };

std::unique_ptr<VisibilitySource> MakeCore(DenseCore core) {
  if (core == DenseCore::kLocked) {
    return std::make_unique<LockedVisibility>(NumberingMode::kDense);
  }
  return std::make_unique<VersionControl>();
}

class DenseCoreTest : public ::testing::TestWithParam<DenseCore> {
 protected:
  bool locked() const { return GetParam() == DenseCore::kLocked; }

  std::unique_ptr<VisibilitySource> core_ = MakeCore(GetParam());
  VisibilitySource& vc = *core_;
};

TEST_P(DenseCoreTest, InitialCounters) {
  EXPECT_EQ(vc.Start(), 0u);       // vtnc = 0
  EXPECT_EQ(vc.NextNumber(), 1u);  // tnc = 1; invariant vtnc < tnc
  EXPECT_EQ(vc.QueueSize(), 0u);
}

TEST_P(DenseCoreTest, RegisterAssignsDenseNumbers) {
  EXPECT_EQ(vc.Register(10, 0), 1u);
  EXPECT_EQ(vc.Register(11, 0), 2u);
  EXPECT_EQ(vc.Register(12, 0), 3u);
  EXPECT_EQ(vc.QueueSize(), 3u);
  EXPECT_EQ(vc.NextNumber(), 4u);
}

TEST_P(DenseCoreTest, CompleteInOrderAdvancesVtnc) {
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  vc.Complete(t1);
  EXPECT_EQ(vc.Start(), t1);
  vc.Complete(t2);
  EXPECT_EQ(vc.Start(), t2);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

TEST_P(DenseCoreTest, OutOfOrderCompletionDelaysVisibility) {
  // The central mechanism: a completed younger transaction stays
  // invisible while an older registered transaction is active.
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  vc.Complete(t2);
  EXPECT_EQ(vc.Start(), 0u);  // t2's updates are NOT visible yet
  vc.Complete(t1);
  EXPECT_EQ(vc.Start(), t2);  // both become visible, in serial order
}

TEST_P(DenseCoreTest, DiscardReleasesDelayedVisibility) {
  // The documented deviation from Figure 1: discarding the head must
  // drain the completed suffix, otherwise vtnc stalls forever.
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  const TxnNumber t3 = vc.Register(3, 0);
  vc.Complete(t2);
  vc.Complete(t3);
  EXPECT_EQ(vc.Start(), 0u);
  vc.Discard(t1);  // abort of the oldest
  EXPECT_EQ(vc.Start(), t3);
}

TEST_P(DenseCoreTest, DiscardMiddleLeavesVtncAlone) {
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  const TxnNumber t3 = vc.Register(3, 0);
  vc.Discard(t2);
  EXPECT_EQ(vc.Start(), 0u);
  vc.Complete(t1);
  if (locked()) {
    EXPECT_EQ(vc.Start(), t1);  // Figure 1: a discard never becomes vtnc
  } else {
    // The sharded floor may name the discarded t2, never the active t3.
    EXPECT_GE(vc.Start(), t1);
    EXPECT_LT(vc.Start(), t3);
  }
  vc.Complete(t3);
  EXPECT_EQ(vc.Start(), t3);
}

// On the locked reference a discarded number is drained past without
// ever becoming the visibility horizon.
TEST(VersionControlTest, LockedDiscardNeverBecomesVtnc) {
  LockedVisibility vc(NumberingMode::kDense);
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  vc.Complete(t1);
  EXPECT_EQ(vc.vtnc(), t1);
  vc.Discard(t2);
  EXPECT_EQ(vc.vtnc(), t1);  // drained past t2, horizon unchanged
  EXPECT_EQ(vc.QueueSize(), 0u);
  const TxnNumber t3 = vc.Register(3, 0);
  vc.Complete(t3);
  EXPECT_EQ(vc.vtnc(), t3);
}

TEST_P(DenseCoreTest, VtncStrictlyBelowTnc) {
  for (int i = 0; i < 100; ++i) {
    const TxnNumber tn = vc.Register(i, 0);
    vc.Complete(tn);
    EXPECT_LT(vc.Start(), vc.NextNumber());
  }
}

TEST_P(DenseCoreTest, StartAtLeastBlocksUntilVisible) {
  const TxnNumber t1 = vc.Register(1, 0);
  std::atomic<TxnNumber> observed{0};
  std::thread reader([&] { observed.store(vc.StartAtLeast(t1)); });
  // Give the reader a moment to block.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(observed.load(), 0u);
  vc.Complete(t1);
  reader.join();
  EXPECT_GE(observed.load(), t1);
}

TEST_P(DenseCoreTest, StartAtLeastReturnsImmediatelyWhenVisible) {
  const TxnNumber t1 = vc.Register(1, 0);
  vc.Complete(t1);
  EXPECT_EQ(vc.StartAtLeast(t1), t1);
}

TEST_P(DenseCoreTest, WaitNoActiveAtOrBelow) {
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    vc.WaitNoActiveAtOrBelow(t1);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  vc.Complete(t1);  // t2 > t1 does not matter for the bound
  waiter.join();
  EXPECT_TRUE(released.load());
  vc.Complete(t2);
}

TEST_P(DenseCoreTest, AdvanceCounterPast) {
  vc.AdvanceCounterPast(100);
  EXPECT_EQ(vc.Register(1, 0), 101u);
  vc.AdvanceCounterPast(50);  // already past: no-op
  EXPECT_EQ(vc.Register(2, 0), 102u);
}

TEST(VersionControlTest, SiteTaggedNumbersEmbedTiebreak) {
  VersionControl vc(NumberingMode::kSiteTagged);
  const TxnNumber a = vc.Register(1, /*tiebreak=*/7);
  const TxnNumber b = vc.Register(2, /*tiebreak=*/9);
  EXPECT_EQ(a, (uint64_t{1} << 32) | 7);
  EXPECT_EQ(b, (uint64_t{2} << 32) | 9);
  EXPECT_LT(a, b);
}

TEST(VersionControlTest, PromoteMovesEntryForward) {
  VersionControl vc(NumberingMode::kSiteTagged);
  const TxnNumber proposed = vc.Register(1, 5);
  const TxnNumber agreed = ((proposed >> 32) + 10) << 32 | 5;
  vc.Promote(proposed, agreed);
  // Future registrations exceed the agreed number.
  EXPECT_GT(vc.Register(2, 6), agreed);
  vc.Complete(agreed);
  EXPECT_EQ(vc.Start(), agreed);
}

TEST(VersionControlTest, PromoteToSameNumberBumpsCounter) {
  VersionControl vc(NumberingMode::kSiteTagged);
  const TxnNumber proposed = vc.Register(1, 5);
  vc.Promote(proposed, proposed);
  EXPECT_GT(vc.Register(2, 6), proposed);
  vc.Complete(proposed);
}

TEST_P(DenseCoreTest, StartAtLeastReleasedByDiscardDrainingHead) {
  // Regression: a StartAtLeast waiter depends on Discard advancing vtnc.
  // t2 completes behind the still-active head t1; a reader insists on
  // seeing t2. When t1 aborts, Discard must drain the completed suffix
  // (advancing vtnc to t2) AND signal the condition variable — with
  // Figure 1's literal VCdiscard the waiter would hang forever.
  const TxnNumber t1 = vc.Register(1, 0);
  const TxnNumber t2 = vc.Register(2, 0);
  vc.Complete(t2);
  ASSERT_EQ(vc.Start(), 0u);  // invisible behind the active head

  std::atomic<TxnNumber> observed{kInvalidTxnNumber};
  std::thread reader([&] { observed.store(vc.StartAtLeast(t2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(observed.load(), kInvalidTxnNumber);  // still blocked

  vc.Discard(t1);  // abort of the head releases the suffix
  reader.join();
  EXPECT_GE(observed.load(), t2);
  EXPECT_EQ(vc.Start(), t2);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

TEST(VersionControlTest, LiteralFigure1DiscardStallsVisibility) {
  // The deviation is load-bearing: with the literal pseudocode the
  // completed suffix stays queued and vtnc never reaches it.
  VersionControl vc;
  vc.SetLiteralFigure1DiscardForTest(true);
  const TxnNumber t1 = vc.Register(1);
  const TxnNumber t2 = vc.Register(2);
  vc.Complete(t2);
  vc.Discard(t1);
  EXPECT_EQ(vc.Start(), 0u);  // stalled: t2 completed but invisible
  EXPECT_EQ(vc.QueueSize(), 1u);

  vc.SetLiteralFigure1DiscardForTest(false);
  const TxnNumber t3 = vc.Register(3);
  vc.Complete(t3);  // the next drain heals the stall
  EXPECT_EQ(vc.Start(), t3);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

TEST(VersionControlTest, ConcurrentPromoteRegisterRace) {
  // Section 6 number agreement under contention: promotions to agreed
  // global numbers race with fresh local registrations. Every handed-out
  // number must stay unique and the counter must end past every
  // promotion target.
  VersionControl vc(NumberingMode::kSiteTagged);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<uint32_t> tiebreak{1};
  std::atomic<TxnNumber> max_agreed{0};
  std::vector<std::vector<TxnNumber>> finals(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      finals[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t tb = tiebreak.fetch_add(1);
        const TxnNumber proposed = vc.Register(tb, tb);
        TxnNumber final_tn = proposed;
        if (i % 2 == 0) {
          // "Agreement" picked a higher coordinator number: promote.
          const TxnNumber agreed =
              ((proposed >> 32) + 1 + (tb % 3)) << 32 | tb;
          vc.Promote(proposed, agreed);
          final_tn = agreed;
          TxnNumber cur = max_agreed.load();
          while (cur < agreed &&
                 !max_agreed.compare_exchange_weak(cur, agreed)) {
          }
        }
        finals[t].push_back(final_tn);
        if (i % 3 == 0) {
          vc.Discard(final_tn);
        } else {
          vc.Complete(final_tn);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<TxnNumber> all;
  for (const auto& list : finals) all.insert(all.end(), list.begin(), list.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate transaction number handed out under the race";
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_GT(vc.NextNumber(), max_agreed.load());
  EXPECT_LT(vc.Start(), vc.NextNumber());
}

TEST(VersionControlTest, AdvanceCounterPastVsInFlightRegister) {
  // Remote read-only snapshots push the counter (Lamport-style) while
  // local writers register. Each thread checks that its own push is
  // honored by its very next registration; globally all numbers stay
  // unique and the vtnc < tnc invariant holds at quiesce.
  VersionControl vc(NumberingMode::kSiteTagged);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<uint32_t> tiebreak{1};
  std::atomic<bool> failed{false};
  std::vector<std::vector<TxnNumber>> assigned(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      assigned[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t tb = tiebreak.fetch_add(1);
        // A remote snapshot with an aggressive start number arrives.
        const TxnNumber sn = (uint64_t{static_cast<uint32_t>(
                                 (t * kPerThread + i) % 3000)}
                              << 32);
        vc.AdvanceCounterPast(sn);
        const TxnNumber tn = vc.Register(tb, tb);
        if (tn <= sn) failed.store(true);
        assigned[t].push_back(tn);
        vc.Complete(tn);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load())
      << "Register returned a number not past a prior AdvanceCounterPast";

  std::vector<TxnNumber> all;
  for (const auto& list : assigned) all.insert(all.end(), list.begin(), list.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_LT(vc.Start(), vc.NextNumber());
}

TEST_P(DenseCoreTest, WaitNoActiveReleasedByMixedCompleteAndDiscard) {
  // The Section 6 snapshot-read barrier must fall no matter HOW the
  // registered transactions below the bound resolve: commits
  // (Complete) and aborts (Discard) both count, in any interleaving.
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    std::unique_ptr<VisibilitySource> core = MakeCore(GetParam());
    VisibilitySource& vc = *core;
    constexpr int kTxns = 6;
    std::vector<TxnNumber> tns;
    for (int i = 0; i < kTxns; ++i) tns.push_back(vc.Register(i + 1, 0));
    const TxnNumber bound = tns.back();

    std::atomic<bool> released{false};
    std::thread waiter([&] {
      vc.WaitNoActiveAtOrBelow(bound);
      released.store(true);
    });

    // Resolve every transaction from competing threads, alternating
    // commit/abort with a rotation per round.
    std::vector<std::thread> resolvers;
    for (int i = 0; i < kTxns; ++i) {
      resolvers.emplace_back([&, i] {
        if ((i + round) % 2 == 0) {
          vc.Complete(tns[i]);
        } else {
          vc.Discard(tns[i]);
        }
      });
    }
    for (auto& r : resolvers) r.join();
    waiter.join();
    EXPECT_TRUE(released.load());
    EXPECT_EQ(vc.QueueSize(), 0u);
    EXPECT_LT(vc.Start(), vc.NextNumber());
  }
}

TEST_P(DenseCoreTest, ConcurrentRegistrationStress) {
  // The two counter properties must hold under concurrency:
  //  - every Start() value is < every later-assigned tn (ordering);
  //  - Start() never exceeds a tn that has not completed (visibility).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const TxnNumber before = vc.Start();
        const TxnNumber tn = vc.Register(1, 0);
        if (before >= tn) failed.store(true);
        const TxnNumber visible = vc.Start();
        if (visible >= tn) failed.store(true);  // we have not completed
        vc.Complete(tn);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_EQ(vc.Start(), uint64_t{kThreads} * kPerThread);
}

TEST_P(DenseCoreTest, ConcurrentMixedCompleteAndDiscard) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const TxnNumber tn = vc.Register(1, 0);
        if ((i + t) % 3 == 0) {
          vc.Discard(tn);
        } else {
          vc.Complete(tn);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_LT(vc.Start(), vc.NextNumber());
}

INSTANTIATE_TEST_SUITE_P(
    Cores, DenseCoreTest,
    ::testing::Values(DenseCore::kLocked, DenseCore::kDefault),
    [](const ::testing::TestParamInfo<DenseCore>& info) {
      return std::string(info.param == DenseCore::kLocked ? "locked"
                                                          : "sharded");
    });

}  // namespace
}  // namespace mvcc
