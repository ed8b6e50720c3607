#include "recovery/recovery.h"

#include <gtest/gtest.h>

#include <thread>

#include "history/serializability.h"
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "recovery/checkpoint.h"
#include "recovery/file_io.h"
#include "recovery/wal.h"
#include "txn/database.h"
#include "workload/runner.h"

namespace mvcc {
namespace {

DatabaseOptions WalOpts(ProtocolKind kind = ProtocolKind::kVc2pl) {
  DatabaseOptions opts;
  opts.protocol = kind;
  opts.preload_keys = 8;
  opts.initial_value = "init";
  opts.enable_wal = true;
  return opts;
}

TEST(WalTest, AppendAndSnapshot) {
  WriteAheadLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.MaxTn(), 0u);
  log.Append(CommitBatch{1, 5, {{3, "x"}}});
  log.Append(CommitBatch{2, 7, {{4, "y"}, {5, "z"}}});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.MaxTn(), 7u);
  auto batches = log.Batches();
  ASSERT_TRUE(batches.ok());
  ASSERT_EQ(batches->size(), 2u);
  EXPECT_EQ((*batches)[1].writes.size(), 2u);
  EXPECT_EQ((*batches)[1].writes[0].value, "y");
}

TEST(WalTest, TruncateDropsCoveredBatches) {
  WriteAheadLog log;
  log.Append(CommitBatch{1, 5, {{3, "x"}}});
  log.Append(CommitBatch{2, 7, {{4, "y"}}});
  log.Truncate(5);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ((*log.Batches())[0].tn, 7u);
}

TEST(WalTest, SerializeRoundTrip) {
  WriteAheadLog log;
  log.Append(CommitBatch{1, 5, {{3, "hello"}, {9, ""}}});
  log.Append(CommitBatch{2, 7, {}});
  const std::string image = log.Serialize();
  auto restored = WriteAheadLog::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->size(), 2u);
  auto batches = (*restored)->Batches();
  ASSERT_TRUE(batches.ok());
  EXPECT_EQ((*batches)[0].writes[0].value, "hello");
  EXPECT_EQ((*batches)[0].writes[1].value, "");
  EXPECT_EQ((*batches)[1].tn, 7u);
}

TEST(WalTest, DeserializeRejectsCorruptImages) {
  WriteAheadLog log;
  log.Append(CommitBatch{1, 5, {{3, "hello"}}});
  std::string image = log.Serialize();
  EXPECT_FALSE(WriteAheadLog::Deserialize("garbage").ok());
  EXPECT_FALSE(
      WriteAheadLog::Deserialize(image.substr(0, image.size() - 3)).ok());
  EXPECT_FALSE(WriteAheadLog::Deserialize(image + "x").ok());
  EXPECT_TRUE(WriteAheadLog::Deserialize(image).ok());
}

TEST(CheckpointTest, SerializeRoundTrip) {
  Checkpoint ck;
  ck.vtnc = 42;
  ck.entries.push_back(CheckpointEntry{1, 10, 100, "a"});
  ck.entries.push_back(CheckpointEntry{2, 42, 0, ""});
  auto restored = Checkpoint::Deserialize(ck.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->vtnc, 42u);
  ASSERT_EQ(restored->entries.size(), 2u);
  EXPECT_EQ(restored->entries[0].value, "a");
  EXPECT_EQ(restored->entries[0].writer, 100u);
  EXPECT_EQ(restored->entries[1].version, 42u);
}

TEST(CheckpointTest, RejectsCorruptImages) {
  Checkpoint ck;
  ck.vtnc = 1;
  const std::string image = ck.Serialize();
  EXPECT_FALSE(Checkpoint::Deserialize("nope").ok());
  EXPECT_FALSE(Checkpoint::Deserialize(image + "trailing").ok());
}

TEST(RecoveryTest, DatabaseLogsCommittedWritesOnly) {
  Database db(WalOpts());
  ASSERT_TRUE(db.Put(1, "committed").ok());
  auto doomed = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(doomed->Write(2, "aborted").ok());
  doomed->Abort();
  ASSERT_NE(db.wal(), nullptr);
  EXPECT_EQ(db.wal()->size(), 1u);
  EXPECT_EQ((*db.wal()->Batches())[0].writes[0].value, "committed");
}

TEST(RecoveryTest, ReplayRestoresCommittedState) {
  DatabaseOptions opts = WalOpts();
  std::string wal_image;
  {
    Database db(opts);
    ASSERT_TRUE(db.Put(1, "one").ok());
    ASSERT_TRUE(db.Put(2, "two").ok());
    ASSERT_TRUE(db.Put(1, "one-v2").ok());
    wal_image = db.wal()->Serialize();
    // db destroyed here: the "crash".
  }
  auto log = WriteAheadLog::Deserialize(wal_image);
  ASSERT_TRUE(log.ok());
  auto recovered =
      RecoverDatabase(opts, /*checkpoint=*/nullptr, *(*log)->Batches());
  EXPECT_EQ(*recovered->Get(1), "one-v2");
  EXPECT_EQ(*recovered->Get(2), "two");
  EXPECT_EQ(*recovered->Get(3), "init");  // untouched preloaded key
  // The multiversion history is preserved, not just the latest state.
  EXPECT_EQ(recovered->store().Find(1)->size(), 3u);  // init + 2 versions
}

TEST(RecoveryTest, RecoveredCountersContinueTheSerialOrder) {
  DatabaseOptions opts = WalOpts();
  TxnNumber last_tn = 0;
  std::string wal_image;
  {
    Database db(opts);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(db.Put(1, "v").ok());
    last_tn = 5;
    wal_image = db.wal()->Serialize();
  }
  auto log = WriteAheadLog::Deserialize(wal_image);
  auto recovered = RecoverDatabase(opts, nullptr, *(*log)->Batches());
  EXPECT_EQ(recovered->version_control().vtnc(), last_tn);
  // A new transaction extends the order.
  auto txn = recovered->Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(txn->Write(1, "after-crash").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GT(txn->txn_number(), last_tn);
  // A reader started now sees everything.
  auto reader = recovered->Begin(TxnClass::kReadOnly);
  EXPECT_EQ(*reader->Read(1), "after-crash");
  reader->Commit();
}

TEST(RecoveryTest, CheckpointPlusTruncatedLog) {
  DatabaseOptions opts = WalOpts();
  Database db(opts);
  ASSERT_TRUE(db.Put(1, "pre-ck").ok());
  ASSERT_TRUE(db.Put(2, "pre-ck").ok());
  Checkpoint ck = TakeCheckpoint(&db);
  db.wal()->Truncate(ck.vtnc);
  ASSERT_TRUE(db.Put(1, "post-ck").ok());
  EXPECT_EQ(db.wal()->size(), 1u);

  auto log = WriteAheadLog::Deserialize(db.wal()->Serialize());
  auto restored_ck = Checkpoint::Deserialize(ck.Serialize());
  ASSERT_TRUE(restored_ck.ok());
  auto recovered =
      RecoverDatabase(opts, &*restored_ck, *(*log)->Batches());
  EXPECT_EQ(*recovered->Get(1), "post-ck");
  EXPECT_EQ(*recovered->Get(2), "pre-ck");
  EXPECT_EQ(recovered->version_control().vtnc(),
            db.version_control().vtnc());
}

TEST(RecoveryTest, UntruncatedLogWithCheckpointDoesNotDuplicate) {
  DatabaseOptions opts = WalOpts();
  Database db(opts);
  ASSERT_TRUE(db.Put(1, "a").ok());
  Checkpoint ck = TakeCheckpoint(&db);
  // No truncation: batches at or below ck.vtnc must be skipped on replay.
  auto log = WriteAheadLog::Deserialize(db.wal()->Serialize());
  auto recovered = RecoverDatabase(opts, &ck, *(*log)->Batches());
  EXPECT_EQ(*recovered->Get(1), "a");
  // init (preload) + checkpointed version only — no duplicate installs.
  EXPECT_EQ(recovered->store().Find(1)->size(), 2u);
}

TEST(RecoveryTest, CheckpointIsTransactionallyConsistent) {
  // Writers update pairs (k, k+1) with equal values; every checkpoint
  // must capture both halves of any transaction it contains.
  DatabaseOptions opts = WalOpts(ProtocolKind::kVcTo);
  opts.preload_keys = 2;
  Database db(opts);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      auto txn = db.Begin(TxnClass::kReadWrite);
      const Value v = std::to_string(++i);
      if (!txn->Write(0, v).ok()) continue;
      if (!txn->Write(1, v).ok()) continue;
      txn->Commit();
    }
  });
  for (int round = 0; round < 50; ++round) {
    Checkpoint ck = TakeCheckpoint(&db);
    ASSERT_EQ(ck.entries.size(), 2u);
    EXPECT_EQ(ck.entries[0].value, ck.entries[1].value)
        << "torn checkpoint at vtnc " << ck.vtnc;
  }
  stop.store(true);
  writer.join();
}

TEST(FileIoTest, AtomicWriteAndReadBack) {
  const std::string path = "/tmp/mvcc_file_io_test.bin";
  const std::string payload = std::string("binary\0data", 11);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  // Overwrite is atomic too.
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(*ReadFile(path), "second");
  std::remove(path.c_str());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(ReadFile(path).status().IsNotFound());
}

TEST(FileIoTest, RoundTripWalImageThroughDisk) {
  const std::string path = "/tmp/mvcc_wal_roundtrip.bin";
  WriteAheadLog log;
  log.Append(CommitBatch{1, 5, {{3, "disk"}}});
  ASSERT_TRUE(WriteFileAtomic(path, log.Serialize()).ok());
  auto image = ReadFile(path);
  ASSERT_TRUE(image.ok());
  auto restored = WriteAheadLog::Deserialize(*image);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->size(), 1u);
  EXPECT_EQ((*(*restored)->Batches())[0].writes[0].value, "disk");
  std::remove(path.c_str());
}

TEST(RecoveryTest, DurableSegmentRotationAndTruncation) {
  const std::string dir = "/tmp/mvcc_durable_rotate_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DatabaseOptions opts = WalOpts();
  opts.enable_wal = false;  // the durable open supplies the log itself
  WalDurableOptions wopts;
  wopts.segment_target_bytes = 256;  // rotate every few records
  uint64_t sealed_plus_active = 0;
  {
    RecoveryReport report;
    auto db = OpenDatabaseDurable(opts, GetPosixEnv(), dir, wopts, &report);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*db)->Put(i % 8, "v" + std::to_string(i)).ok());
    }
    sealed_plus_active = (*db)->wal()->SegmentCount();
    EXPECT_GT(sealed_plus_active, 3u);  // rotation actually happened
    // Checkpoint + truncate deletes every sealed segment the checkpoint
    // covers — this is what frees disk space.
    auto gen = CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    ASSERT_TRUE(gen.ok());
    EXPECT_LT((*db)->wal()->SegmentCount(), sealed_plus_active);
    ASSERT_TRUE((*db)->Put(0, "post-checkpoint").ok());
  }
  RecoveryReport report;
  auto db = OpenDatabaseDurable(opts, GetPosixEnv(), dir, wopts, &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT(report.checkpoint.loaded_generation, 0u);
  EXPECT_FALSE(report.wal.salvaged);
  EXPECT_EQ(*(*db)->Get(0), "post-checkpoint");
  for (ObjectKey k = 1; k < 8; ++k) {
    // Last write to key k in the loop above was i = 32 + k.
    EXPECT_EQ(*(*db)->Get(k), "v" + std::to_string(32 + k)) << "key " << k;
  }
  std::filesystem::remove_all(dir);
}

class RecoveryProtocolSweep : public ::testing::TestWithParam<ProtocolKind> {
};

TEST_P(RecoveryProtocolSweep, CrashRecoveryUnderConcurrentWorkload) {
  DatabaseOptions opts = WalOpts(GetParam());
  opts.preload_keys = 64;
  std::string wal_image;
  std::vector<std::pair<ObjectKey, Value>> expected;
  {
    Database db(opts);
    WorkloadSpec spec;
    spec.num_keys = 64;
    spec.read_only_fraction = 0.2;
    spec.zipf_theta = 0.5;
    RunOptions run;
    run.threads = 4;
    run.txns_per_thread = 150;
    RunWorkload(&db, spec, run);
    wal_image = db.wal()->Serialize();
    // Capture the pre-crash committed state.
    auto reader = db.Begin(TxnClass::kReadOnly);
    auto scan = reader->Scan(0, 63);
    ASSERT_TRUE(scan.ok());
    expected = *scan;
    reader->Commit();
  }
  auto log = WriteAheadLog::Deserialize(wal_image);
  ASSERT_TRUE(log.ok());
  auto recovered = RecoverDatabase(opts, nullptr, *(*log)->Batches());
  auto reader = recovered->Begin(TxnClass::kReadOnly);
  auto scan = reader->Scan(0, 63);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan, expected);
  reader->Commit();
}

INSTANTIATE_TEST_SUITE_P(VcProtocols, RecoveryProtocolSweep,
                         ::testing::Values(ProtocolKind::kVc2pl,
                                           ProtocolKind::kVcTo,
                                           ProtocolKind::kVcOcc,
                                           ProtocolKind::kVcAdaptive));

}  // namespace
}  // namespace mvcc
