// Schedule-exploration sweep driver: runs the deterministic simulator
// over many seeds per configuration and reports coverage (distinct
// schedules, commits/aborts, faults exercised) plus any invariant
// violations — each violation line carries the seed that replays it.
//
// Usage:
//   bench_sim [--seeds=N] [--start-seed=S] [--drop=P] [--delay=K]
//             [--crash-every=M]
//             [--dist-only | --local-only | --repl-only]
//
// Exit status is non-zero if any configuration produced a violation, so
// this doubles as a CI sweep job.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "sim/explorer.h"

namespace {

using namespace mvcc;
using namespace mvcc::sim;

struct SweepStats {
  uint64_t runs = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t crashes = 0;
  uint64_t deadlocks = 0;
  std::set<uint64_t> hashes;
  std::vector<std::string> failures;

  void Absorb(const SimReport& report) {
    ++runs;
    commits += report.commits;
    aborts += report.aborts;
    crashes += report.wal_crashed ? 1 : 0;
    deadlocks += report.deadlock ? 1 : 0;
    hashes.insert(report.schedule_hash);
    if (!report.ok()) failures.push_back(report.Summary());
  }

  void Print(const std::string& label) const {
    std::cout << label << ": runs=" << runs << " distinct-schedules="
              << hashes.size() << " commits=" << commits
              << " aborts=" << aborts;
    if (crashes > 0) std::cout << " crashes=" << crashes;
    if (deadlocks > 0) std::cout << " deadlocks=" << deadlocks;
    std::cout << " failures=" << failures.size() << "\n";
    for (const std::string& f : failures) {
      std::cout << "  FAIL " << f << "\n";
    }
  }
};

uint64_t FlagU64(int argc, char** argv, const char* name,
                 uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

double FlagDouble(int argc, char** argv, const char* name,
                  double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return fallback;
}

bool FlagSet(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seeds = FlagU64(argc, argv, "seeds", 500);
  const uint64_t start_seed = FlagU64(argc, argv, "start-seed", 1);
  const double drop = FlagDouble(argc, argv, "drop", 0.15);
  const uint64_t delay = FlagU64(argc, argv, "delay", 4);
  // Every Mth local seed also crashes the WAL at a rotating record
  // boundary (0 disables crash injection).
  const uint64_t crash_every = FlagU64(argc, argv, "crash-every", 4);
  const bool dist_only = FlagSet(argc, argv, "dist-only");
  const bool local_only = FlagSet(argc, argv, "local-only");
  const bool repl_only = FlagSet(argc, argv, "repl-only");

  bool failed = false;
  const int64_t t0 = NowNanos();

  if (!dist_only && !repl_only) {
    const ProtocolKind protocols[] = {
        ProtocolKind::kVc2pl, ProtocolKind::kVcTo, ProtocolKind::kVcOcc,
        ProtocolKind::kVcAdaptive};
    for (ProtocolKind protocol : protocols) {
      SweepStats stats;
      for (uint64_t s = start_seed; s < start_seed + seeds; ++s) {
        ExploreOptions opt;
        opt.protocol = protocol;
        opt.seed = s;
        opt.currency_reader = s % 2 == 0;
        // Every run is on the sharded visibility core and checked by the
        // watermark-vector oracle (register/resolve/drain/snapshot
        // closure, see explorer.h). Shard count rotates so
        // class-interleaving bugs can't hide behind one K.
        opt.vc_shards = 1ull << (s % 4);  // 1, 2, 4, 8
        switch (s % 3) {
          case 0: opt.deadlock_policy = DeadlockPolicy::kWaitDie; break;
          case 1: opt.deadlock_policy = DeadlockPolicy::kDetect; break;
          default: opt.deadlock_policy = DeadlockPolicy::kTimeout; break;
        }
        if (crash_every != 0 && s % crash_every == 0) {
          opt.faults.crash_at_wal_append = static_cast<int64_t>(s % 7);
        }
        // Odd seeds keep the WAL on even without a crash, so the
        // group-commit pipeline is explored under clean schedules too.
        opt.enable_wal = s % 2 == 1;
        stats.Absorb(ExploreOnce(opt));
      }
      stats.Print(std::string(ProtocolKindName(protocol)));
      failed |= !stats.failures.empty();
    }
  }

  if (!local_only && !repl_only) {
    SweepStats clean;
    SweepStats faulty;
    for (uint64_t s = start_seed; s < start_seed + seeds; ++s) {
      DistExploreOptions opt;
      opt.seed = s;
      // Odd seeds assemble read-only snapshots as a vector of per-site
      // visibility floors instead of one coordinator round.
      opt.global_snapshot_vector = s % 2 == 1;
      clean.Absorb(ExploreDistributedOnce(opt));
      opt.faults.message_drop_probability = drop;
      opt.faults.message_delay_max_steps = static_cast<uint32_t>(delay);
      faulty.Absorb(ExploreDistributedOnce(opt));
    }
    clean.Print("dist");
    faulty.Print("dist+faults");
    failed |= !clean.failures.empty() || !faulty.failures.empty();
  }

  if (!local_only && !dist_only) {
    // Replication sweep: each seed runs once clean and once under the
    // full fault mix — message drops/delays (dropped or reordered WAL
    // shipments), replica crashes with checkpoint resync, and WAL
    // truncation racing the shipping cursor. Replica count, protocol and
    // staleness budget rotate with the seed for coverage.
    SweepStats clean;
    SweepStats faulty;
    for (uint64_t s = start_seed; s < start_seed + seeds; ++s) {
      ReplExploreOptions opt;
      opt.seed = s;
      opt.replicas = 1 + static_cast<int>(s % 3);
      opt.protocol = s % 2 == 0 ? ProtocolKind::kVc2pl : ProtocolKind::kVcTo;
      opt.staleness_budget = s % 5 == 0 ? 0 : 2 + s % 6;
      clean.Absorb(ExploreReplicationOnce(opt));
      opt.faults.message_drop_probability = drop;
      opt.faults.message_delay_max_steps = static_cast<uint32_t>(delay);
      opt.replica_crashes = static_cast<int>(s % 3);
      opt.wal_truncations = static_cast<int>(s % 2);
      faulty.Absorb(ExploreReplicationOnce(opt));
    }
    clean.Print("repl");
    faulty.Print("repl+faults");
    failed |= !clean.failures.empty() || !faulty.failures.empty();
  }

  std::cout << "elapsed=" << (NowNanos() - t0) / 1e9 << "s\n";
  return failed ? 1 : 0;
}
