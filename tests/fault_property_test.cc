// Failure-injection property tests: outages, aggressive garbage
// collection, and widened install windows must never cost correctness —
// only availability (graceful errors) or performance.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dist/distributed_db.h"
#include "recovery/faulty_env.h"
#include "recovery/log_format.h"
#include "recovery/recovery.h"
#include "history/serializability.h"
#include "sim/sim_scheduler.h"
#include "txn/database.h"
#include "workload/runner.h"

namespace mvcc {
namespace {

TEST(FaultPropertyTest, DistributedWorkloadSurvivesRandomOutages) {
  DistributedDb::Options opts;
  opts.num_sites = 3;
  opts.preload_keys = 30;
  opts.initial_value = "init";
  opts.record_history = true;
  DistributedDb db(opts);

  std::atomic<bool> stop{false};
  // Chaos thread: flips one site down and back up repeatedly.
  std::thread chaos([&] {
    Random rng(1234);
    while (!stop.load()) {
      const int victim = static_cast<int>(rng.Uniform(3));
      db.site(victim).SetDown(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      db.site(victim).SetDown(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::vector<std::thread> workers;
  std::atomic<uint64_t> unavailable{0};
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Random rng(400 + t);
      for (int i = 0; i < 200; ++i) {
        const int home = static_cast<int>(rng.Uniform(3));
        if (rng.Bernoulli(0.4)) {
          auto reader = db.Begin(TxnClass::kReadOnly, home);
          bool ok = true;
          for (int op = 0; op < 3 && ok; ++op) {
            auto r = reader->Read(rng.Uniform(30));
            if (!r.ok()) {
              ok = false;
              if (r.status().IsUnavailable()) unavailable.fetch_add(1);
            }
          }
          if (ok) {
            reader->Commit();
          } else {
            reader->Abort();
          }
        } else {
          auto writer = db.Begin(TxnClass::kReadWrite, home);
          bool dead = false;
          for (int op = 0; op < 3 && !dead; ++op) {
            Status s = writer->Write(rng.Uniform(30), "w");
            if (!s.ok()) {
              dead = true;
              if (s.IsUnavailable()) unavailable.fetch_add(1);
              writer->Abort();
            }
          }
          if (!dead) writer->Commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  chaos.join();

  // Outages cost availability, never consistency.
  auto verdict = CheckOneCopySerializable(*db.history());
  EXPECT_TRUE(verdict.one_copy_serializable);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(db.site(s).version_control().QueueSize(), 0u) << "site " << s;
  }
  // After the chaos ends, everything works again.
  auto txn = db.Begin(TxnClass::kReadWrite, 0);
  ASSERT_TRUE(txn->Write(0, "after").ok());
  ASSERT_TRUE(txn->Write(1, "after").ok());
  EXPECT_TRUE(txn->Commit().ok());
}

TEST(FaultPropertyTest, AggressiveGcNeverBreaksSerializability) {
  for (ProtocolKind kind :
       {ProtocolKind::kVc2pl, ProtocolKind::kVcTo, ProtocolKind::kVcOcc}) {
    DatabaseOptions opts;
    opts.protocol = kind;
    opts.preload_keys = 32;
    opts.record_history = true;
    // The background collector is the one under test.
    opts.enable_gc = true;
    opts.inline_gc = false;
    Database db(opts);
    db.StartGc(std::chrono::milliseconds(1));

    WorkloadSpec spec;
    spec.num_keys = 32;
    spec.read_only_fraction = 0.4;
    spec.zipf_theta = 0.8;
    RunOptions run;
    run.threads = 4;
    run.txns_per_thread = 150;
    RunWorkload(&db, spec, run);
    db.StopGc();
    // The background thread's last pass may predate the last commits;
    // one synchronous pass guarantees there is something to reclaim.
    db.gc()->RunOnce();

    auto verdict = CheckOneCopySerializable(*db.history());
    EXPECT_TRUE(verdict.one_copy_serializable) << ProtocolKindName(kind);
    // GC under the watermark can never make a pinned snapshot fail, so
    // every read-only transaction still committed untouched.
    EXPECT_EQ(db.counters().ro_aborts.load(), 0u) << ProtocolKindName(kind);
    EXPECT_GT(db.gc()->total_reclaimed(), 0u) << ProtocolKindName(kind);
  }
}

TEST(FaultPropertyTest, WidenedInstallWindowsNeverBreakSerializability) {
  for (ProtocolKind kind : {ProtocolKind::kVc2pl, ProtocolKind::kVcTo}) {
    DatabaseOptions opts;
    opts.protocol = kind;
    opts.preload_keys = 16;
    opts.record_history = true;
    opts.install_pause_ns = 2000;  // stretch every commit's install phase
    Database db(opts);
    WorkloadSpec spec;
    spec.num_keys = 16;
    spec.read_only_fraction = 0.5;
    spec.zipf_theta = 0.9;
    RunOptions run;
    run.threads = 4;
    run.txns_per_thread = 80;
    RunWorkload(&db, spec, run);
    auto verdict = CheckOneCopySerializable(*db.history());
    EXPECT_TRUE(verdict.one_copy_serializable) << ProtocolKindName(kind);
    EXPECT_TRUE(CheckLemmas(db.history()->Records()).empty())
        << ProtocolKindName(kind);
  }
}

TEST(FaultPropertyTest, WalSurvivesHighAbortWorkload) {
  // Aborts must leave no trace in the log: replaying it reproduces the
  // exact committed state even when most transactions die.
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 8;  // brutal contention
  opts.enable_wal = true;
  // Stretch commits so transactions genuinely overlap even on one core.
  opts.install_pause_ns = 20000;
  Database db(opts);
  WorkloadSpec spec;
  spec.num_keys = 8;
  spec.read_only_fraction = 0.0;
  spec.rw_ops = 4;
  RunOptions run;
  run.threads = 6;
  run.txns_per_thread = 200;
  RunResult result = RunWorkload(&db, spec, run);
  EXPECT_GT(result.aborted_rw, 0u);  // the premise: many aborts
  EXPECT_EQ(db.wal()->size(), db.counters().rw_commits.load());

  auto reader = db.Begin(TxnClass::kReadOnly);
  auto expected = reader->Scan(0, 7);
  reader->Commit();

  auto log = WriteAheadLog::Deserialize(db.wal()->Serialize());
  ASSERT_TRUE(log.ok());
  auto recovered = RecoverDatabase(opts, nullptr, *(*log)->Batches());
  auto post = recovered->Begin(TxnClass::kReadOnly);
  auto actual = post->Scan(0, 7);
  post->Commit();
  EXPECT_EQ(*expected, *actual);
}

// ---- explorer-driven storage crash sweep ----
//
// The schedule explorer's FaultPlan can crash the storage Env at any
// mutating syscall (FaultPlan::crash_at_env_op), the same way it crashes
// the in-memory WAL. For every crash placement the durability oracle
// must hold: the recovered state is a prefix of the commit order, no
// acknowledged commit is lost, and multi-key transactions recover
// atomically.

constexpr int kEnvSweepTxns = 6;
constexpr uint64_t kEnvSweepKeys = 2 * kEnvSweepTxns;

// Two of the sweep's ~76-byte records fill a segment, so the workload
// rotates and every crash point also lands in segment preparation and
// in a replay that spans several segments.
WalDurableOptions EnvSweepWalOpts() {
  WalDurableOptions options;
  options.segment_target_bytes = 160;
  return options;
}

DatabaseOptions EnvSweepOpts() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = kEnvSweepKeys;
  opts.initial_value = "init";
  return opts;
}

std::string EnvSweepDir(const std::string& tag) {
  const std::string dir = "/tmp/mvcc_envsweep_" + tag + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Opens a durable database over `env` and runs the fixed two-key
// workload, counting acknowledged commits. Tolerates failure at any
// point — that is the point.
int RunEnvSweepWorkload(Env* env, const std::string& dir) {
  RecoveryReport report;
  auto db = OpenDatabaseDurable(EnvSweepOpts(), env, dir, EnvSweepWalOpts(),
                                &report);
  if (!db.ok()) return 0;
  int acked = 0;
  for (int i = 0; i < kEnvSweepTxns; ++i) {
    auto txn = (*db)->Begin(TxnClass::kReadWrite);
    const std::string value = "v" + std::to_string(i);
    if (!txn->Write(2 * i, value).ok() ||
        !txn->Write(2 * i + 1, value).ok()) {
      txn->Abort();
      break;
    }
    if (txn->Commit().ok()) ++acked;
  }
  return acked;
}

TEST(FaultPropertyTest, EnvCrashSweepPreservesDurabilityOracle) {
  // Fault-free probe run sizes the sweep.
  const std::string probe_dir = EnvSweepDir("probe");
  FaultyEnv probe(GetPosixEnv());
  ASSERT_EQ(RunEnvSweepWorkload(&probe, probe_dir), kEnvSweepTxns);
  const uint64_t total_ops = probe.op_count();
  ASSERT_GT(total_ops, 0u);
  int segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(probe_dir + "/wal")) {
    if (ParseWalSegmentFileName(entry.path().filename().string()) != 0) {
      ++segments;
    }
  }
  ASSERT_GE(segments, 3) << "the sweep's workload no longer rotates";
  std::filesystem::remove_all(probe_dir);

  for (uint64_t c = 0; c < total_ops; ++c) {
    const std::string dir = EnvSweepDir(std::to_string(c));
    sim::SimScheduler::Options sopts;
    sopts.seed = c + 1;
    sopts.faults.crash_at_env_op = static_cast<int64_t>(c);
    sim::SimScheduler sched(sopts);
    FaultyEnv env(GetPosixEnv());
    int acked = 0;
    sched.Spawn("writer", /*expect_wait_free=*/false,
                [&] { acked = RunEnvSweepWorkload(&env, dir); });
    sched.Run();
    EXPECT_TRUE(sched.report().env_crashed) << sched.report().Summary();
    EXPECT_TRUE(env.crashed()) << "crash at env op " << c;

    // "Restart the process": recover from the directory as written.
    RecoveryReport report;
    auto db = OpenDatabaseDurable(EnvSweepOpts(), GetPosixEnv(), dir,
                                  EnvSweepWalOpts(), &report);
    ASSERT_TRUE(db.ok()) << "crash at env op " << c << ": "
                         << db.status().ToString();
    bool in_prefix = true;
    int recovered = 0;
    for (int i = 0; i < kEnvSweepTxns; ++i) {
      const std::string lo = *(*db)->Get(2 * i);
      const std::string hi = *(*db)->Get(2 * i + 1);
      EXPECT_EQ(lo, hi) << "txn " << i << " torn, crash at op " << c;
      if (lo == "v" + std::to_string(i)) {
        EXPECT_TRUE(in_prefix) << "gap before txn " << i << ", op " << c;
        ++recovered;
      } else {
        EXPECT_EQ(lo, "init") << "txn " << i << " mangled, op " << c;
        in_prefix = false;
      }
    }
    EXPECT_GE(recovered, acked) << "acked commit lost, crash at op " << c;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace mvcc
