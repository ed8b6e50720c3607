// Crash recovery end to end, with on-disk images.
//
// Phase 1 runs a workload with the write-ahead log enabled, takes a
// checkpoint mid-stream, saves both images to disk, and records a
// reference scan of the committed state. Phase 2 simulates the crash by
// destroying the database, loads the images back, replays, and verifies
// the recovered state byte-for-byte — then keeps writing, showing the
// serial order resumes where it stopped.

#include <cstdio>
#include <iostream>

#include "recovery/file_io.h"
#include "recovery/recovery.h"
#include "txn/database.h"
#include "workload/runner.h"

int main() {
  using namespace mvcc;

  const std::string wal_path = "/tmp/mvcc_example_wal.bin";
  const std::string ck_path = "/tmp/mvcc_example_checkpoint.bin";

  DatabaseOptions options;
  options.protocol = ProtocolKind::kVc2pl;
  options.preload_keys = 256;
  options.initial_value = "0";
  options.enable_wal = true;

  std::vector<std::pair<ObjectKey, Value>> reference;
  TxnNumber last_tn = 0;
  {
    Database db(options);
    WorkloadSpec spec;
    spec.num_keys = 256;
    spec.read_only_fraction = 0.0;
    spec.write_fraction = 1.0;
    RunOptions run;
    run.threads = 4;
    run.txns_per_thread = 2000;
    RunWorkload(&db, spec, run);

    // Mid-stream checkpoint + log truncation.
    Checkpoint ck = TakeCheckpoint(&db);
    db.wal()->Truncate(ck.vtnc);
    std::cout << "checkpoint at vtnc=" << ck.vtnc << " ("
              << ck.entries.size() << " objects); log truncated to "
              << db.wal()->size() << " batches\n";

    // More work after the checkpoint.
    RunWorkload(&db, spec, run);
    std::cout << "post-checkpoint log: " << db.wal()->size()
              << " batches\n";

    // Persist both images.
    Status s = WriteFileAtomic(ck_path, ck.Serialize());
    if (!s.ok()) {
      std::cerr << "save checkpoint: " << s << "\n";
      return 1;
    }
    s = WriteFileAtomic(wal_path, db.wal()->Serialize());
    if (!s.ok()) {
      std::cerr << "save WAL: " << s << "\n";
      return 1;
    }

    auto reader = db.Begin(TxnClass::kReadOnly);
    reference = *reader->Scan(0, 255);
    reader->Commit();
    last_tn = db.version_control().vtnc();
    std::cout << "pre-crash state captured: vtnc=" << last_tn << "\n";
  }  // <- the "crash": everything in memory is gone

  auto ck_image = ReadFile(ck_path);
  auto wal_image = ReadFile(wal_path);
  if (!ck_image.ok() || !wal_image.ok()) {
    std::cerr << "cannot read images back\n";
    return 1;
  }
  auto checkpoint = Checkpoint::Deserialize(*ck_image);
  auto log = WriteAheadLog::Deserialize(*wal_image);
  if (!checkpoint.ok() || !log.ok()) {
    std::cerr << "corrupt images\n";
    return 1;
  }

  auto db = RecoverDatabase(options, &*checkpoint, *(*log)->Batches());
  std::cout << "recovered: vtnc=" << db->version_control().vtnc()
            << " versions=" << db->store().TotalVersions() << "\n";

  auto reader = db->Begin(TxnClass::kReadOnly);
  auto recovered = *reader->Scan(0, 255);
  reader->Commit();
  const bool match = recovered == reference &&
                     db->version_control().vtnc() == last_tn;
  std::cout << "state matches pre-crash capture: "
            << (match ? "yes" : "NO") << "\n";

  // Life goes on: the serial order resumes above the recovered point.
  auto txn = db->Begin(TxnClass::kReadWrite);
  txn->Write(0, "after-recovery");
  txn->Commit();
  std::cout << "first post-recovery transaction got tn="
            << txn->txn_number() << " (> " << last_tn << ")\n";

  std::remove(wal_path.c_str());
  std::remove(ck_path.c_str());
  return match ? 0 : 1;
}
