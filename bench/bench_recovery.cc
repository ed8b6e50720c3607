// Experiment E10: recovery from the write-ahead log.
//
// The paper's opening motivation: versions exist to support transaction
// and system recovery. We measure (a) crash-recovery time as a function
// of log length, (b) the effect of checkpointing on both the log replay
// cost and the recovered version count, and (c) that the recovered
// database resumes the serial order (new transactions get larger
// numbers, readers see the full committed state). The durable on-disk
// rows (E10b) go to BENCH_recovery.json with the host header
// (host_header.h); run from inside the checkout so git_sha resolves.

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common/clock.h"
#include "host_header.h"
#include "recovery/env.h"
#include "recovery/recovery.h"
#include "txn/database.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace {

using namespace mvcc;

struct RecoveryCell {
  uint64_t log_batches = 0;
  double recover_ms = 0;
  size_t recovered_versions = 0;
  bool state_matches = false;
};

RecoveryCell Measure(uint64_t committed_txns, bool with_checkpoint) {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 1024;
  opts.enable_wal = true;
  Database db(opts);

  WorkloadSpec spec;
  spec.num_keys = 1024;
  spec.read_only_fraction = 0.0;
  spec.rw_ops = 4;
  spec.write_fraction = 1.0;
  RunOptions run;
  run.threads = 4;
  run.txns_per_thread = committed_txns / 4;
  RunWorkload(&db, spec, run);

  Checkpoint checkpoint;
  if (with_checkpoint) {
    checkpoint = TakeCheckpoint(&db);
    db.wal()->Truncate(checkpoint.vtnc);
  }

  // Expected state: one final full scan.
  auto pre = db.Begin(TxnClass::kReadOnly);
  auto expected = pre->Scan(0, 1023);
  pre->Commit();

  const std::string wal_image = db.wal()->Serialize();
  auto log = WriteAheadLog::Deserialize(wal_image);

  RecoveryCell cell;
  cell.log_batches = (*log)->size();
  const int64_t begin = NowNanos();
  auto recovered = RecoverDatabase(
      opts, with_checkpoint ? &checkpoint : nullptr, *(*log)->Batches());
  cell.recover_ms = static_cast<double>(NowNanos() - begin) / 1e6;
  cell.recovered_versions = recovered->store().TotalVersions();

  auto post = recovered->Begin(TxnClass::kReadOnly);
  auto actual = post->Scan(0, 1023);
  post->Commit();
  cell.state_matches = expected.ok() && actual.ok() && *expected == *actual;
  return cell;
}

struct DurableCell {
  uint64_t segments = 0;
  uint64_t replayed = 0;
  double commit_ms = 0;   // workload wall time (fsynced group commits)
  double recover_ms = 0;  // scan-verified reopen
  bool state_matches = false;
};

// On-disk smoke row: real fsynced segments through the Env, CRC
// scan-verified reopen. Small txn count — every group commit pays a
// real fsync.
DurableCell MeasureDurable(uint64_t committed_txns, bool with_checkpoint) {
  const std::string dir =
      "/tmp/mvcc_bench_recovery_" +
      std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 1024;

  DurableCell cell;
  std::vector<std::pair<ObjectKey, Value>> expected;
  {
    RecoveryReport report;
    auto db = OpenDatabaseDurable(opts, GetPosixEnv(), dir,
                                  WalDurableOptions{}, &report);
    if (!db.ok()) return cell;
    WorkloadSpec spec;
    spec.num_keys = 1024;
    spec.read_only_fraction = 0.0;
    spec.rw_ops = 4;
    spec.write_fraction = 1.0;
    RunOptions run;
    run.threads = 4;
    run.txns_per_thread = committed_txns / 4;
    const int64_t begin = NowNanos();
    RunWorkload(db->get(), spec, run);
    cell.commit_ms = static_cast<double>(NowNanos() - begin) / 1e6;
    if (with_checkpoint) {
      (void)CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    }
    cell.segments = (*db)->wal()->SegmentCount();
    auto pre = (*db)->Begin(TxnClass::kReadOnly);
    expected = *pre->Scan(0, 1023);
    pre->Commit();
  }
  RecoveryReport report;
  const int64_t begin = NowNanos();
  auto recovered = OpenDatabaseDurable(opts, GetPosixEnv(), dir,
                                       WalDurableOptions{}, &report);
  cell.recover_ms = static_cast<double>(NowNanos() - begin) / 1e6;
  if (!recovered.ok()) return cell;
  cell.replayed = report.replayed_batches;
  auto post = (*recovered)->Begin(TxnClass::kReadOnly);
  auto actual = post->Scan(0, 1023);
  post->Commit();
  cell.state_matches = actual.ok() && *actual == expected;
  std::filesystem::remove_all(dir);
  return cell;
}

}  // namespace

int main() {
  std::cout << "E10: crash recovery (write-heavy 2PL workload, 1024 keys)\n\n";
  Table table({"committed_txns", "checkpoint", "log_batches", "recover_ms",
               "versions_after", "state_matches"});
  for (uint64_t txns : {1000, 10000, 50000}) {
    for (bool ck : {false, true}) {
      RecoveryCell cell = Measure(txns, ck);
      table.AddRow({Table::Num(txns), Table::Bool(ck),
                    Table::Num(cell.log_batches),
                    Table::Num(cell.recover_ms, 2),
                    Table::Num(uint64_t{cell.recovered_versions}),
                    Table::Bool(cell.state_matches)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: recovery time grows linearly with the\n"
               "replayed log; checkpointing collapses both replay time and\n"
               "the recovered version count; state always matches.\n";

  std::cout << "\nE10b: durable on-disk WAL (CRC32C segments, fsynced "
               "group commits)\n\n";
  Table durable({"committed_txns", "checkpoint", "segments", "replayed",
                 "commit_ms", "recover_ms", "state_matches"});
  for (bool ck : {false, true}) {
    DurableCell cell = MeasureDurable(2000, ck);
    durable.AddRow({Table::Num(uint64_t{2000}), Table::Bool(ck),
                    Table::Num(cell.segments), Table::Num(cell.replayed),
                    Table::Num(cell.commit_ms, 2),
                    Table::Num(cell.recover_ms, 2),
                    Table::Bool(cell.state_matches)});
  }
  durable.Print(std::cout);
  const std::string json = "BENCH_recovery.json";
  std::cout << (WriteBenchJson(json, durable) ? "\nwrote "
                                               : "\nfailed to write ")
            << json << "\n";
  std::cout << "\nexpected shape: checkpoint truncation deletes covered\n"
               "segments and collapses replay; state always matches the\n"
               "pre-crash scan.\n";
  return 0;
}
