// Property-based tests: randomized workloads swept over protocol, seed,
// and contention, each checked against the paper's correctness criteria
// (MVSG acyclicity; the VC lemmas; a reference model of the counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "history/serializability.h"
#include "txn/database.h"
#include "vc/locked_core.h"
#include "vc/version_control.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace mvcc {
namespace {

// ---------------------------------------------------------------------
// Sweep: every protocol x seed x skew must produce 1SR histories.
// ---------------------------------------------------------------------

using SweepParam = std::tuple<ProtocolKind, uint64_t /*seed*/,
                              double /*zipf theta*/>;

class SerializabilitySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SerializabilitySweep, RandomWorkloadIsOneCopySerializable) {
  const auto [kind, seed, theta] = GetParam();
  DatabaseOptions opts;
  opts.protocol = kind;
  opts.preload_keys = 48;
  opts.record_history = true;
  Database db(opts);

  WorkloadSpec spec;
  spec.num_keys = 48;
  spec.zipf_theta = theta;
  spec.read_only_fraction = 0.35;
  spec.rw_ops = 5;
  spec.ro_ops = 5;
  spec.seed = seed;
  RunOptions run;
  run.threads = 4;
  run.txns_per_thread = 120;
  RunResult result = RunWorkload(&db, spec, run);
  ASSERT_GT(result.committed(), 0u);

  auto verdict = CheckOneCopySerializable(*db.history());
  EXPECT_TRUE(verdict.one_copy_serializable)
      << ProtocolKindName(kind) << " seed=" << seed << " theta=" << theta
      << ": cycle of " << verdict.cycle.size();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SerializabilitySweep,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kVc2pl, ProtocolKind::kVcTo,
                          ProtocolKind::kVcOcc, ProtocolKind::kMvto,
                          ProtocolKind::kMv2plCtl, ProtocolKind::kSv2pl,
                          ProtocolKind::kWeihlTi),
        ::testing::Values(uint64_t{1}, uint64_t{7}),
        ::testing::Values(0.0, 0.95)));

// ---------------------------------------------------------------------
// Sweep: the VC protocols additionally satisfy Lemmas 1-3 and leave
// read-only transactions completely undisturbed.
// ---------------------------------------------------------------------

class VcLemmaSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VcLemmaSweep, LemmasAndReaderFreedomHold) {
  const auto [kind, seed, theta] = GetParam();
  DatabaseOptions opts;
  opts.protocol = kind;
  opts.preload_keys = 32;
  opts.record_history = true;
  Database db(opts);

  WorkloadSpec spec;
  spec.num_keys = 32;
  spec.zipf_theta = theta;
  spec.read_only_fraction = 0.5;
  spec.seed = seed;
  RunOptions run;
  run.threads = 4;
  run.txns_per_thread = 100;
  RunWorkload(&db, spec, run);

  EXPECT_TRUE(CheckLemmas(db.history()->Records()).empty());
  const auto snap = db.counters().Snap();
  EXPECT_EQ(snap.ro_blocks, 0u);
  EXPECT_EQ(snap.ro_aborts, 0u);
  EXPECT_EQ(snap.ro_metadata_writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    VcProtocols, VcLemmaSweep,
    ::testing::Combine(::testing::Values(ProtocolKind::kVc2pl,
                                         ProtocolKind::kVcTo,
                                         ProtocolKind::kVcOcc),
                       ::testing::Values(uint64_t{3}, uint64_t{11},
                                         uint64_t{23}),
                       ::testing::Values(0.0, 0.8)));

// ---------------------------------------------------------------------
// Sweep: workloads that mix range scans into both transaction classes
// stay one-copy serializable under every VC protocol (2PL: range locks;
// TO: range floors; OCC: scanned-range validation; adaptive: whichever
// engine is active).
// ---------------------------------------------------------------------

class ScanWorkloadSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ScanWorkloadSweep, MixedScansStaySerializable) {
  DatabaseOptions opts;
  opts.protocol = GetParam();
  opts.preload_keys = 40;
  opts.record_history = true;
  Database db(opts);

  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 0.6;
  spec.read_only_fraction = 0.4;
  spec.scan_fraction = 0.25;
  spec.scan_span = 8;
  RunOptions run;
  run.threads = 4;
  run.txns_per_thread = 100;
  RunResult result = RunWorkload(&db, spec, run);
  ASSERT_GT(result.committed(), 0u);
  auto verdict = CheckOneCopySerializable(*db.history());
  EXPECT_TRUE(verdict.one_copy_serializable)
      << ProtocolKindName(GetParam()) << ": cycle of "
      << verdict.cycle.size();
  const auto snap = db.counters().Snap();
  EXPECT_EQ(snap.ro_blocks, 0u);
  EXPECT_EQ(snap.ro_aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(VcProtocols, ScanWorkloadSweep,
                         ::testing::Values(ProtocolKind::kVc2pl,
                                           ProtocolKind::kVcTo,
                                           ProtocolKind::kVcOcc,
                                           ProtocolKind::kVcAdaptive));

// ---------------------------------------------------------------------
// Model check: both visibility cores against a brute-force reference
// under random single-threaded interleavings of register/complete/discard.
// ---------------------------------------------------------------------

class VcModel {
 public:
  TxnNumber Register() {
    const TxnNumber tn = next_++;
    active_.insert(tn);
    return tn;
  }
  void Complete(TxnNumber tn) {
    active_.erase(tn);
    completed_.insert(tn);
  }
  void Discard(TxnNumber tn) { active_.erase(tn); }

  // Transaction Visibility Property, computed from first principles: the
  // largest n < next_ such that no active transaction has tn <= n, and n
  // was assigned (or 0).
  TxnNumber Vtnc() const {
    TxnNumber best = 0;
    for (TxnNumber n = 1; n < next_; ++n) {
      if (active_.count(n)) break;
      if (completed_.count(n)) best = n;
      // discarded numbers are skipped but do not block visibility
    }
    return best;
  }

  // The sharded core's folded floor: everything below the smallest
  // unresolved number has resolved, so the floor is that number minus
  // one (tnc - 1 when nothing is active). It may name a discarded
  // number, which Vtnc() never does.
  TxnNumber Floor() const {
    return (active_.empty() ? next_ : *active_.begin()) - 1;
  }

 private:
  TxnNumber next_ = 1;
  std::set<TxnNumber> active_;
  std::set<TxnNumber> completed_;
};

// Drives `vc` and the model through the same random steps; after each
// step the core's Start() must equal `expected(model)`.
template <typename Expected>
void RunModelCheck(uint64_t seed, VisibilitySource& vc, Expected expected) {
  Random rng(seed);
  VcModel model;
  std::vector<TxnNumber> open;
  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.NextDouble();
    if (open.empty() || roll < 0.4) {
      const TxnNumber tn = vc.Register(step + 1, 0);
      const TxnNumber expected = model.Register();
      ASSERT_EQ(tn, expected);
      open.push_back(tn);
    } else {
      const size_t pick = rng.Uniform(open.size());
      const TxnNumber tn = open[pick];
      open.erase(open.begin() + pick);
      if (roll < 0.8) {
        vc.Complete(tn);
        model.Complete(tn);
      } else {
        vc.Discard(tn);
        model.Discard(tn);
      }
    }
    ASSERT_EQ(vc.Start(), expected(model)) << "step " << step;
    ASSERT_GE(vc.Start(), model.Vtnc()) << "step " << step;
    ASSERT_LT(vc.Start(), vc.NextNumber());
  }
}

class VcModelCheck : public ::testing::TestWithParam<uint64_t> {};

// The locked reference holds Figure 1's exact vtnc.
TEST_P(VcModelCheck, LockedMatchesFigure1Vtnc) {
  LockedVisibility vc(NumberingMode::kDense);
  RunModelCheck(GetParam(), vc, [](const VcModel& m) { return m.Vtnc(); });
}

// The default (sharded) core holds the closure floor, at the default
// shard count and at one small enough that classes interleave densely.
TEST_P(VcModelCheck, ShardedMatchesClosureFloor) {
  for (size_t shards : {size_t{0}, size_t{4}}) {
    VersionControl vc(NumberingMode::kDense, shards);
    RunModelCheck(GetParam(), vc, [](const VcModel& m) { return m.Floor(); });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcModelCheck,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}, uint64_t{5},
                                           uint64_t{8}, uint64_t{13}));

// ---------------------------------------------------------------------
// Property: under any VC protocol, the union of committed values in the
// store equals what a serial replay by tn order would produce.
// ---------------------------------------------------------------------

class SerialEquivalenceSweep
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SerialEquivalenceSweep, FinalStateMatchesSerialReplayByTn) {
  DatabaseOptions opts;
  opts.protocol = GetParam();
  opts.preload_keys = 24;
  opts.initial_value = "0";
  opts.record_history = true;
  Database db(opts);
  WorkloadSpec spec;
  spec.num_keys = 24;
  spec.read_only_fraction = 0.2;
  spec.zipf_theta = 0.7;
  RunOptions run;
  run.threads = 4;
  run.txns_per_thread = 80;
  RunWorkload(&db, spec, run);

  // Replay committed writes in tn order.
  std::vector<TxnRecord> records = db.history()->Records();
  std::sort(records.begin(), records.end(),
            [](const TxnRecord& a, const TxnRecord& b) {
              return a.number < b.number;
            });
  std::map<ObjectKey, VersionNumber> expect_latest;
  for (const TxnRecord& rec : records) {
    if (rec.cls != TxnClass::kReadWrite) continue;
    for (const RecordedWrite& w : rec.writes) {
      expect_latest[w.key] = w.version;
    }
  }
  for (const auto& [key, version] : expect_latest) {
    VersionChain* chain = db.store().Find(key);
    ASSERT_NE(chain, nullptr);
    EXPECT_EQ(chain->LatestNumber(), version) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(VcProtocols, SerialEquivalenceSweep,
                         ::testing::Values(ProtocolKind::kVc2pl,
                                           ProtocolKind::kVcTo,
                                           ProtocolKind::kVcOcc));

}  // namespace
}  // namespace mvcc
