// Storage fault-tolerance (ISSUE 4): checksummed on-disk WAL, torn-tail
// salvage vs interior-corruption fail-stop, checkpoint generation
// fallback, fsyncgate fail-stop, ENOSPC degraded read-only mode, and the
// crash matrix — a process crash at EVERY mutating file-system syscall
// must lose at most a suffix of the acknowledged commit order.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "recovery/env.h"
#include "recovery/faulty_env.h"
#include "recovery/file_io.h"
#include "recovery/log_format.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "read_hook_env.h"
#include "repl/replica.h"
#include "repl/replication_stream.h"
#include "txn/database.h"

namespace mvcc {
namespace {

constexpr uint64_t kKeys = 20;

DatabaseOptions DurableOpts() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = kKeys;
  opts.initial_value = "init";
  return opts;
}

// Fresh empty directory unique to the calling test.
std::string TestDir(const std::string& tag) {
  const std::string dir = "/tmp/mvcc_sfault_" + tag + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Result<std::unique_ptr<Database>> Open(
    Env* env, const std::string& dir, RecoveryReport* report,
    SalvagePolicy policy = SalvagePolicy::kSalvageTornTail,
    uint64_t segment_bytes = WalDurableOptions{}.segment_target_bytes) {
  WalDurableOptions wopts;
  wopts.policy = policy;
  wopts.segment_target_bytes = segment_bytes;
  return OpenDatabaseDurable(DurableOpts(), env, dir, wopts, report);
}

// Segment size for the prepared-segment tests: two of the tests' small
// records fill one, so a handful of commits rotates several times.
constexpr uint64_t kSmallSegment = 128;

// Path of the newest WAL segment in `dir`.
std::string NewestSegment(const std::string& dir) {
  std::string newest;
  uint64_t newest_seq = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/wal")) {
    const uint64_t seq =
        ParseWalSegmentFileName(entry.path().filename().string());
    if (seq > newest_seq) {
      newest_seq = seq;
      newest = entry.path().string();
    }
  }
  return newest;
}

TEST(StorageFaultTest, DurableRoundTripSurvivesReopen) {
  const std::string dir = TestDir("roundtrip");
  RecoveryReport report;
  {
    auto db = Open(GetPosixEnv(), dir, &report);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Put(1, "one").ok());
    ASSERT_TRUE((*db)->Put(2, "two").ok());
    ASSERT_TRUE((*db)->Put(1, "one-v2").ok());
    EXPECT_TRUE((*db)->Health().ok());
  }
  auto db = Open(GetPosixEnv(), dir, &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.replayed_batches, 3u);
  EXPECT_FALSE(report.wal.salvaged);
  EXPECT_EQ(*(*db)->Get(1), "one-v2");
  EXPECT_EQ(*(*db)->Get(2), "two");
  EXPECT_EQ(*(*db)->Get(3), "init");
  // The recovered counters extend the serial order.
  ASSERT_TRUE((*db)->Put(3, "after").ok());
  EXPECT_EQ(*(*db)->Get(3), "after");
}

TEST(StorageFaultTest, EioOnAppendFailStopsThePipeline) {
  const std::string dir = TestDir("eio_append");
  FaultyEnv env(GetPosixEnv());
  RecoveryReport report;
  auto db = Open(&env, dir, &report);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put(0, "good").ok());

  env.FailAt(env.op_count(), FaultKind::kEio);  // next op: the append
  Status s = (*db)->Put(1, "doomed");
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  // The failed commit was rolled back: not visible, not half-installed.
  EXPECT_EQ(*(*db)->Get(1), "init");
  EXPECT_GT((*db)->counters().durability_failures.load(), 0u);

  // kDataLoss is a latch (fsyncgate-style): no later write is accepted,
  // and new read-write transactions are refused outright.
  EXPECT_TRUE((*db)->Health().IsDataLoss());
  EXPECT_TRUE((*db)->Put(2, "also-doomed").IsDataLoss());
  auto rw = (*db)->TryBegin(TxnClass::kReadWrite);
  EXPECT_TRUE(rw.status().IsDataLoss());
  // Reads keep working at the last durable state.
  auto ro = (*db)->TryBegin(TxnClass::kReadOnly);
  ASSERT_TRUE(ro.ok());
  EXPECT_EQ(*(*ro)->Read(0), "good");
  (*ro)->Commit();
}

TEST(StorageFaultTest, FailedFsyncIsNeverRetried) {
  const std::string dir = TestDir("fsyncgate");
  FaultyEnv env(GetPosixEnv());
  RecoveryReport report;
  auto db = Open(&env, dir, &report);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put(0, "durable").ok());

  // Append succeeds, the fsync after it fails: the pages may or may not
  // have reached the disk, so the commit must NOT be acknowledged and
  // the log must never pretend a later fsync can fix it.
  env.FailAt(env.op_count() + 1, FaultKind::kEio);  // append, then sync
  EXPECT_TRUE((*db)->Put(1, "unflushed").IsDataLoss());
  EXPECT_EQ(*(*db)->Get(1), "init");
  EXPECT_TRUE((*db)->Health().IsDataLoss());
  // Permanently: even with no further faults armed, the latch holds.
  env.ClearFaults();
  EXPECT_TRUE((*db)->Put(2, "still-doomed").IsDataLoss());
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(StorageFaultTest, FailedGroupNeverReachesATailOrAReplay) {
  // A group whose fsync failed was written: its bytes sit in the
  // segment file (and the page cache). The log must still never hand it
  // to a reader — not to BatchesSince/Batches, not to a replica through
  // the replication stream, not to a replay built from Batches().
  const std::string dir = TestDir("failed_group_tail");
  FaultyEnv env(GetPosixEnv());
  RecoveryReport report;
  auto db = Open(&env, dir, &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  SimulatedNetwork network;
  repl::Replica replica(0, &network, /*history=*/nullptr);
  repl::ReplicationStream stream(db->get(), &network, {&replica});
  auto converge = [&] {
    for (int i = 0; i < 50 && !stream.CaughtUp(); ++i) {
      stream.PumpOnce();
      replica.ApplyOnce();
    }
  };
  converge();  // bootstrap seeds the replica at vtnc 0
  ASSERT_TRUE((*db)->Put(1, "acked-1").ok());
  ASSERT_TRUE((*db)->Put(2, "acked-2").ok());
  converge();
  ASSERT_TRUE(stream.CaughtUp());
  ASSERT_EQ(replica.batches_applied(), 2u);

  // A read-write transaction that writes nothing commits without a log
  // append, so it still completes after the failure and carries vtnc —
  // the replicas' horizon — past the discarded tn.
  auto no_writes = (*db)->Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(no_writes->Read(5).ok());
  env.FailAt(env.op_count() + 1, FaultKind::kEio);  // append, then sync
  EXPECT_TRUE((*db)->Put(3, "unflushed").IsDataLoss());
  EXPECT_TRUE((*db)->Health().IsDataLoss());
  ASSERT_TRUE(no_writes->Commit().ok());
  ASSERT_EQ((*db)->version_control().vtnc(), 4u);
  // The premise: the discarded record's bytes are in the file.
  ASSERT_NE(ReadWholeFile(NewestSegment(dir)).find("unflushed"),
            std::string::npos);

  WriteAheadLog* wal = (*db)->wal();
  for (auto batches : {wal->BatchesSince(0), wal->Batches()}) {
    ASSERT_TRUE(batches.ok()) << batches.status().ToString();
    ASSERT_EQ(batches->size(), 2u);
    EXPECT_EQ((*batches)[0].writes[0].value, "acked-1");
    EXPECT_EQ((*batches)[1].writes[0].value, "acked-2");
  }
  auto replayed = RecoverDatabase(DurableOpts(), nullptr, *wal->Batches());
  EXPECT_EQ(*replayed->Get(1), "acked-1");
  EXPECT_EQ(*replayed->Get(2), "acked-2");
  EXPECT_EQ(*replayed->Get(3), "init");

  for (int i = 0; i < 20; ++i) {
    stream.PumpOnce();
    replica.ApplyOnce();
  }
  EXPECT_EQ(replica.batches_applied(), 2u);
  const TxnNumber horizon = replica.Horizon();
  EXPECT_EQ(replica.SnapshotRead(horizon, 2)->value, "acked-2");
  EXPECT_EQ(replica.SnapshotRead(horizon, 3)->value, "init");
  db->reset();
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, DurableOpenReadsEachSegmentOnceAndKeepsNoBatch) {
  const std::string dir = TestDir("read_once");
  RecoveryReport report;
  {
    auto db = Open(GetPosixEnv(), dir, &report, SalvagePolicy::kStrict,
                   kSmallSegment);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*db)->Put(i, "v" + std::to_string(i)).ok());
      // Acknowledged means on disk, not in memory.
      EXPECT_EQ((*db)->wal()->size(), 0u);
    }
    ASSERT_GT((*db)->wal()->SegmentCount(), 2u);
  }
  ReadHookEnv env;
  auto db = Open(&env, dir, &report, SalvagePolicy::kStrict, kSmallSegment);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.replayed_batches, 8u);
  EXPECT_EQ((*db)->wal()->size(), 0u);
  int segment_reads = 0;
  for (const auto& [path, reads] : env.reads) {
    if (path.find("/wal/") == std::string::npos) continue;
    EXPECT_EQ(reads, 1) << path;
    ++segment_reads;
  }
  EXPECT_EQ(static_cast<uint64_t>(segment_reads), report.wal.segments);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(*(*db)->Get(i), "v" + std::to_string(i));
  }
  db->reset();
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, PosixPreparedFileIsHeaderThenZeros) {
  // Larger than the zero block and not a multiple of it, so the fill
  // loop runs several times and ends on a partial block.
  const std::string dir = TestDir("posix_prepared");
  const std::string path = dir + "/p.log";
  constexpr uint64_t kSize = 150001;
  auto file = GetPosixEnv()->NewPreparedFile(path, "HEADER", kSize);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->offset(), 6u);
  ASSERT_TRUE((*file)->Close().ok());
  const std::string image = ReadWholeFile(path);
  ASSERT_EQ(image.size(), kSize);
  EXPECT_EQ(image.substr(0, 6), "HEADER");
  EXPECT_EQ(image.find_first_not_of('\0', 6), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(StorageFaultTest, EnospcDegradedModeRecoversAfterTruncation) {
  const std::string dir = TestDir("enospc");
  FaultyEnv env(GetPosixEnv());
  RecoveryReport report;
  auto db = Open(&env, dir, &report);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put(0, "kept").ok());

  env.FailAt(env.op_count(), FaultKind::kEnospc);
  Status s = (*db)->Put(1, "no-space");
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(*(*db)->Get(1), "init");  // rolled back, not visible

  // Degraded read-only: RW begins refused, RO begins served.
  EXPECT_TRUE((*db)->Health().IsResourceExhausted());
  EXPECT_TRUE(
      (*db)->TryBegin(TxnClass::kReadWrite).status().IsResourceExhausted());
  auto ro = (*db)->TryBegin(TxnClass::kReadOnly);
  ASSERT_TRUE(ro.ok());
  EXPECT_EQ(*(*ro)->Read(0), "kept");
  (*ro)->Commit();

  // Checkpoint + truncation frees space and lifts the degraded state.
  auto gen = CheckpointAndTruncateDurable(db->get(), &env, dir);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_TRUE((*db)->Health().ok());
  ASSERT_TRUE((*db)->TryBegin(TxnClass::kReadWrite).ok());
  ASSERT_TRUE((*db)->Put(1, "after-recovery").ok());

  // And everything survives a reopen through the checkpoint + WAL tail.
  db->reset();
  auto reopened = Open(GetPosixEnv(), dir, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.checkpoint.loaded_generation, *gen);
  EXPECT_EQ(*(*reopened)->Get(0), "kept");
  EXPECT_EQ(*(*reopened)->Get(1), "after-recovery");
}

TEST(StorageFaultTest, TornTailIsSalvagedExactlyOnceStrictRefuses) {
  const std::string dir = TestDir("torn_tail");
  {
    FaultyEnv env(GetPosixEnv());
    RecoveryReport report;
    auto db = Open(&env, dir, &report);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put(0, "a").ok());
    ASSERT_TRUE((*db)->Put(1, "b").ok());
    // A torn append persists only a prefix of the record; the rollback
    // truncate then fails too (the disk is dying), so the torn bytes
    // stay on disk and the log fail-stops.
    env.FailAt(env.op_count(), FaultKind::kTornWrite);
    env.FailAt(env.op_count() + 1, FaultKind::kEio);  // the rollback
    EXPECT_TRUE((*db)->Put(2, "torn").IsDataLoss());
    EXPECT_TRUE((*db)->Health().IsDataLoss());
  }
  // Strict policy refuses the torn tail outright (and must not modify
  // the directory, so the salvage open below still sees the tear).
  RecoveryReport report;
  auto strict = Open(GetPosixEnv(), dir, &report, SalvagePolicy::kStrict);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsDataLoss()) << strict.status().ToString();

  // Default policy: truncate the tear, keep every acknowledged commit.
  auto db = Open(GetPosixEnv(), dir, &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(report.wal.salvaged);
  EXPECT_GT(report.wal.torn_tail_bytes, 0u);
  EXPECT_EQ(report.replayed_batches, 2u);
  EXPECT_EQ(*(*db)->Get(0), "a");
  EXPECT_EQ(*(*db)->Get(1), "b");
  EXPECT_EQ(*(*db)->Get(2), "init");  // never acknowledged, never seen

  // A second reopen is clean: salvage truncated the tear for good.
  db->reset();
  auto again = Open(GetPosixEnv(), dir, &report);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(report.wal.salvaged);
}

TEST(StorageFaultTest, InteriorCorruptionFailStopsRecovery) {
  const std::string dir = TestDir("bitflip");
  {
    FaultyEnv env(GetPosixEnv());
    RecoveryReport report;
    auto db = Open(&env, dir, &report);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put(0, "a").ok());
    // The flipped append "succeeds" — the commit is acknowledged and
    // only recovery's CRC scan can notice.
    env.FailAt(env.op_count(), FaultKind::kBitFlip);
    ASSERT_TRUE((*db)->Put(1, "flipped").ok());
    ASSERT_TRUE((*db)->Put(2, "c").ok());
  }
  // A bad record FOLLOWED by valid ones is not a torn tail: salvaging
  // would silently drop an interior acknowledged commit. Fail-stop, even
  // under the permissive policy.
  RecoveryReport report;
  auto db = Open(GetPosixEnv(), dir, &report);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsDataLoss()) << db.status().ToString();
}

TEST(StorageFaultTest, CheckpointGenerationFallback) {
  const std::string dir = TestDir("ckpt_fallback");
  uint64_t gen1 = 0, gen2 = 0;
  {
    RecoveryReport report;
    auto db = Open(GetPosixEnv(), dir, &report);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put(0, "a").ok());
    auto g1 = CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    ASSERT_TRUE(g1.ok());
    gen1 = *g1;
    ASSERT_TRUE((*db)->Put(1, "b").ok());
    auto g2 = CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    ASSERT_TRUE(g2.ok());
    gen2 = *g2;
    ASSERT_TRUE((*db)->Put(2, "c").ok());
  }
  // Bit-rot the newest generation on disk.
  const std::string gen2_path =
      dir + "/ckpt/" + CheckpointFileName(gen2);
  {
    auto image = ReadFile(gen2_path);
    ASSERT_TRUE(image.ok());
    std::string corrupt = *image;
    ASSERT_GT(corrupt.size(), 16u);
    corrupt[corrupt.size() / 2] ^= 0x01;
    std::ofstream out(gen2_path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  {
    RecoveryReport report;
    auto db = Open(GetPosixEnv(), dir, &report);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(report.checkpoint.generations_seen, 2u);
    EXPECT_EQ(report.checkpoint.generations_bad, 1u);
    EXPECT_EQ(report.checkpoint.loaded_generation, gen1);
    // The WAL still holds the gap: truncation lags one generation
    // behind the newest checkpoint precisely so this fallback can
    // replay everything above gen1's vtnc.
    EXPECT_EQ(*(*db)->Get(0), "a");
    EXPECT_EQ(*(*db)->Get(1), "b");
    EXPECT_EQ(*(*db)->Get(2), "c");
  }
  // With EVERY generation corrupt there is no floor to replay from:
  // refusing to open beats silently resurrecting pre-checkpoint state.
  const std::string gen1_path =
      dir + "/ckpt/" + CheckpointFileName(gen1);
  {
    std::ofstream out(gen1_path, std::ios::binary | std::ios::trunc);
    out << "rotten";
  }
  RecoveryReport report;
  auto db = Open(GetPosixEnv(), dir, &report);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsDataLoss()) << db.status().ToString();
}

TEST(StorageFaultTest, CheckpointFallbackSurvivesSegmentDeletion) {
  // The dangerous shape of generation fallback: segments ROTATE between
  // the two checkpoints, so truncating to the newest generation's vtnc
  // would delete sealed segments in (gen1.vtnc, gen2.vtnc] — and a
  // later fallback to gen1 would replay over a hole. Truncation must
  // lag one generation behind to keep that gap replayable.
  const std::string dir = TestDir("ckpt_fallback_rotate");
  WalDurableOptions wopts;
  wopts.segment_target_bytes = 256;  // rotate every few records
  uint64_t gen1 = 0, gen2 = 0;
  {
    RecoveryReport report;
    auto db = OpenDatabaseDurable(DurableOpts(), GetPosixEnv(), dir,
                                  wopts, &report);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE((*db)->Put(i, "g1-" + std::to_string(i)).ok());
    }
    auto g1 = CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    ASSERT_TRUE(g1.ok());
    gen1 = *g1;
    const uint64_t segments_after_gen1 = (*db)->wal()->SegmentCount();
    for (uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_TRUE((*db)->Put(i, "g2-" + std::to_string(i)).ok());
    }
    // Rotation sealed whole segments between the two checkpoints —
    // exactly the bytes fallback recovery needs when gen2 rots.
    ASSERT_GT((*db)->wal()->SegmentCount(), segments_after_gen1);
    auto g2 = CheckpointAndTruncateDurable(db->get(), GetPosixEnv(), dir);
    ASSERT_TRUE(g2.ok());
    gen2 = *g2;
    ASSERT_TRUE((*db)->Put(0, "tail").ok());
  }
  // Bit-rot the newest generation on disk.
  const std::string gen2_path = dir + "/ckpt/" + CheckpointFileName(gen2);
  {
    auto image = ReadFile(gen2_path);
    ASSERT_TRUE(image.ok());
    std::string corrupt = *image;
    ASSERT_GT(corrupt.size(), 16u);
    corrupt[corrupt.size() / 2] ^= 0x01;
    std::ofstream out(gen2_path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  // Fallback to gen1 must replay every post-gen1 commit from the WAL,
  // including those in segments a newest-vtnc truncation would have
  // deleted. Silent loss here is the never-serve-a-hole violation.
  RecoveryReport report;
  auto db = OpenDatabaseDurable(DurableOpts(), GetPosixEnv(), dir,
                                wopts, &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.checkpoint.loaded_generation, gen1);
  EXPECT_EQ(*(*db)->Get(0), "tail");
  for (uint64_t k = 1; k < kKeys; ++k) {
    EXPECT_EQ(*(*db)->Get(k), "g2-" + std::to_string(k)) << "key " << k;
  }
}

TEST(StorageFaultTest, CorruptLengthFieldIsNotATornTail) {
  // A flipped bit in a record's LENGTH field both fails its CRC and
  // poisons any length-based resync. The classifier must still see the
  // valid records that follow (sliding probe) and call it interior
  // corruption — salvaging "a torn tail" here would silently truncate
  // acknowledged commits.
  std::string image = EncodeWalSegmentHeader();
  image += EncodeWalRecord(CommitBatch{1, 1, {{0, "aa"}}});
  const size_t rec2 = image.size();
  image += EncodeWalRecord(CommitBatch{2, 2, {{1, "bbb"}}});
  const size_t rec3 = image.size();
  image += EncodeWalRecord(CommitBatch{3, 3, {{2, "cccc"}}});

  {
    // Low bit of the interior record's length: record still "fits", CRC
    // fails, and a length-hop resync would land one byte off.
    std::string mangled = image;
    mangled[rec2] ^= 0x01;
    WalScanResult scan = ScanWalSegment(mangled, "t");
    EXPECT_EQ(scan.tail, WalTailState::kCorrupt) << scan.detail;
    EXPECT_EQ(scan.batches.size(), 1u);
  }
  {
    // High bit of the interior record's length: the record claims to
    // extend past the end of the segment, which must not read as torn
    // while a valid record follows.
    std::string mangled = image;
    mangled[rec2 + 3] ^= 0x40;
    WalScanResult scan = ScanWalSegment(mangled, "t");
    EXPECT_EQ(scan.tail, WalTailState::kCorrupt) << scan.detail;
    EXPECT_EQ(scan.batches.size(), 1u);
  }
  {
    // The same damage in the FINAL record has nothing valid after it:
    // that IS a torn tail, salvageable to the first two records.
    std::string mangled = image;
    mangled[rec3 + 3] ^= 0x40;
    WalScanResult scan = ScanWalSegment(mangled, "t");
    EXPECT_EQ(scan.tail, WalTailState::kTorn) << scan.detail;
    EXPECT_EQ(scan.batches.size(), 2u);
    EXPECT_EQ(scan.valid_bytes, rec3);
  }
}

TEST(StorageFaultTest, DurableOpenRefusesPostVisibilityProtocols) {
  // Baselines append to the WAL after the commit is already visible in
  // memory; durable mode would acknowledge readers a commit that a
  // failed append then loses. The open refuses the combination.
  const std::string dir = TestDir("baseline_refused");
  DatabaseOptions opts = DurableOpts();
  opts.protocol = ProtocolKind::kMvto;
  RecoveryReport report;
  auto db = OpenDatabaseDurable(opts, GetPosixEnv(), dir,
                                WalDurableOptions{}, &report);
  EXPECT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
}

TEST(StorageFaultTest, WriteFileAtomicCleansUpOrphanedTemps) {
  const std::string dir = TestDir("atomic");
  const std::string target = dir + "/image.bin";
  ASSERT_TRUE(WriteFileAtomic(target, "published").ok());
  // Debris of a writer that died between open and rename.
  {
    std::ofstream orphan(dir + "/image.bin.tmp.99.1234",
                         std::ios::binary);
    orphan << "half-written";
  }
  EXPECT_EQ(CleanupOrphanedTempFiles(dir), 1u);
  EXPECT_FALSE(FileExists(dir + "/image.bin.tmp.99.1234"));
  EXPECT_EQ(*ReadFile(target), "published");
  EXPECT_EQ(CleanupOrphanedTempFiles(dir), 0u);  // idempotent
}

TEST(StorageFaultTest, FiniteDiskModelChargesAndCredits) {
  const std::string dir = TestDir("capacity");
  FaultyEnv env(GetPosixEnv());
  env.set_capacity_bytes(4096);
  auto file = env.NewAppendableFile(dir + "/a.log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(3000, 'x')).ok());
  EXPECT_EQ(env.used_bytes(), 3000u);
  Status s = (*file)->Append(std::string(2000, 'x'));
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  ASSERT_TRUE((*file)->Close().ok());
  // Deleting the file credits its bytes back — the checkpoint-truncation
  // path the degraded mode relies on.
  ASSERT_TRUE(env.DeleteFile(dir + "/a.log").ok());
  EXPECT_EQ(env.used_bytes(), 0u);
  auto fresh = env.NewAppendableFile(dir + "/b.log");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Append(std::string(2000, 'y')).ok());
  ASSERT_TRUE((*fresh)->Close().ok());
}

// ---- the crash matrix ----
//
// Run a fixed workload of two-key transactions once, fault-free, to
// count the mutating syscalls. Then for EVERY syscall index c, rerun the
// workload with a crash injected at c, recover from the directory as the
// crash left it, and check the durability oracle:
//
//   1. the recovered state is an exact PREFIX of the commit order,
//   2. every acknowledged commit is in that prefix (nothing acked lost),
//   3. both keys of each transaction are present or absent TOGETHER.

struct MatrixRun {
  uint64_t ops = 0;      // mutating syscalls consumed
  int acked = 0;         // commits acknowledged before the crash
  bool opened = false;   // OpenDatabaseDurable succeeded
};

constexpr int kMatrixTxns = 10;

MatrixRun RunMatrixWorkload(
    FaultyEnv* env, const std::string& dir,
    uint64_t segment_bytes = WalDurableOptions{}.segment_target_bytes) {
  MatrixRun run;
  RecoveryReport report;
  auto db = Open(env, dir, &report, SalvagePolicy::kSalvageTornTail,
                 segment_bytes);
  if (!db.ok()) {
    run.ops = env->op_count();
    return run;
  }
  run.opened = true;
  for (int i = 0; i < kMatrixTxns; ++i) {
    auto txn = (*db)->Begin(TxnClass::kReadWrite);
    const std::string value = "v" + std::to_string(i);
    if (!txn->Write(2 * i, value).ok() ||
        !txn->Write(2 * i + 1, value).ok()) {
      txn->Abort();
      break;
    }
    if (txn->Commit().ok()) {
      // Acks must be a prefix too: once the log fail-stops, nothing
      // later may sneak through.
      EXPECT_EQ(run.acked, i);
      ++run.acked;
    }
  }
  run.ops = env->op_count();
  return run;
}

// Verifies the oracle over a recovered database; returns the prefix
// length k (number of recovered transactions).
int CheckRecoveredPrefix(Database* db) {
  int k = 0;
  bool in_prefix = true;
  for (int i = 0; i < kMatrixTxns; ++i) {
    const std::string lo = *db->Get(2 * i);
    const std::string hi = *db->Get(2 * i + 1);
    EXPECT_EQ(lo, hi) << "txn " << i << " recovered torn";
    const bool present = lo == "v" + std::to_string(i);
    if (!present) {
      EXPECT_EQ(lo, "init") << "txn " << i << " recovered mangled";
      in_prefix = false;
    } else {
      EXPECT_TRUE(in_prefix) << "txn " << i << " present after a gap";
      ++k;
    }
  }
  return k;
}

// Runs the matrix: for every mutating syscall index c of the workload,
// fault it, recover from the directory as the fault left it, and check
// the oracle and that the recovered database accepts new commits. With
// `die_mid_write` the op at c is torn (a write persists a prefix; any
// other op fails) and the process dies at the op after it — how a
// crash in the middle of a write looks on disk.
void RunCrashMatrix(uint64_t segment_bytes, bool die_mid_write) {
  // Fault-free probe run sizes the matrix.
  const std::string probe_dir = TestDir("matrix_probe");
  FaultyEnv probe(GetPosixEnv());
  const MatrixRun clean = RunMatrixWorkload(&probe, probe_dir, segment_bytes);
  ASSERT_TRUE(clean.opened);
  ASSERT_EQ(clean.acked, kMatrixTxns);
  ASSERT_GT(clean.ops, 0u);

  for (uint64_t c = 0; c < clean.ops; ++c) {
    const std::string dir = TestDir("matrix_" + std::to_string(c));
    FaultyEnv env(GetPosixEnv());
    if (die_mid_write) {
      env.FailAt(c, FaultKind::kTornWrite);
      env.FailAt(c + 1, FaultKind::kCrash);
    } else {
      env.FailAt(c, FaultKind::kCrash);
    }
    const MatrixRun crashed = RunMatrixWorkload(&env, dir, segment_bytes);
    EXPECT_TRUE(die_mid_write || env.crashed())
        << "crash at op " << c << " never fired";

    RecoveryReport report;
    auto db = Open(GetPosixEnv(), dir, &report,
                   SalvagePolicy::kSalvageTornTail, segment_bytes);
    ASSERT_TRUE(db.ok()) << "crash at op " << c << ": "
                         << db.status().ToString();
    const int recovered = CheckRecoveredPrefix(db->get());
    // Acknowledged implies durable: fsync happens before the ack, so a
    // crash can only lose commits that were never acknowledged.
    EXPECT_GE(recovered, crashed.acked) << "crash at op " << c;
    // And the recovered database is live: it accepts new commits.
    ASSERT_TRUE((*db)->Put(2 * kMatrixTxns - 1, "post-crash").ok())
        << "crash at op " << c;
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(probe_dir);
}

TEST(StorageFaultTest, CrashMatrixLosesOnlyAnUnackedSuffix) {
  RunCrashMatrix(WalDurableOptions{}.segment_target_bytes,
                 /*die_mid_write=*/false);
}

TEST(StorageFaultTest, CrashMatrixCoversSegmentPreparation) {
  // Small segments rotate every two commits, so the matrix crosses
  // every step of preparing a segment: the header write, the zero fill,
  // the sync and the directory sync. A crash at the fill leaves a bare
  // header, at the sync header plus zeros, at the directory sync a
  // synced file; dying mid-write leaves a partial header or partial
  // zeros.
  FaultyEnv fill_probe(GetPosixEnv());
  fill_probe.FailAtOp("fill", 0, FaultKind::kCrash);
  const std::string probe_dir = TestDir("matrix_fill_probe");
  RunMatrixWorkload(&fill_probe, probe_dir, kSmallSegment);
  ASSERT_TRUE(fill_probe.crashed()) << "the workload never filled a segment";
  std::filesystem::remove_all(probe_dir);

  RunCrashMatrix(kSmallSegment, /*die_mid_write=*/false);
  RunCrashMatrix(kSmallSegment, /*die_mid_write=*/true);
}

TEST(StorageFaultTest, TornRecordInPreparedSegmentIsSalvaged) {
  const std::string dir = TestDir("torn_prepared");
  {
    FaultyEnv env(GetPosixEnv());
    RecoveryReport report;
    auto db = Open(&env, dir, &report, SalvagePolicy::kSalvageTornTail,
                   kSmallSegment);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put(0, "a").ok());
    ASSERT_TRUE((*db)->Put(1, "b").ok());  // fills segment 1: rotation
    ASSERT_TRUE((*db)->Put(2, "c").ok());  // first record of segment 2
    ASSERT_EQ((*db)->wal()->SegmentCount(), 2u);
    // Tear the next record inside the prepared segment, and fail the
    // rollback so the torn bytes stay on disk between the good record
    // and the zero tail.
    env.FailAt(env.op_count(), FaultKind::kTornWrite);
    env.FailAt(env.op_count() + 1, FaultKind::kEio);
    EXPECT_TRUE((*db)->Put(3, "torn").IsDataLoss());
  }
  ASSERT_EQ(std::filesystem::file_size(NewestSegment(dir)), kSmallSegment);
  RecoveryReport report;
  auto db = Open(GetPosixEnv(), dir, &report,
                 SalvagePolicy::kSalvageTornTail, kSmallSegment);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(report.wal.salvaged);
  EXPECT_GT(report.wal.torn_tail_bytes, 0u);
  EXPECT_EQ(report.replayed_batches, 3u);
  EXPECT_EQ(*(*db)->Get(2), "c");
  EXPECT_EQ(*(*db)->Get(3), "init");
  ASSERT_TRUE((*db)->Put(3, "after").ok());
}

TEST(StorageFaultTest, ZeroTailIsTheCleanEndOfAPreparedSegment) {
  std::string image = EncodeWalSegmentHeader();
  image += EncodeWalRecord(CommitBatch{1, 1, {{0, "aa"}}});
  const size_t end = image.size();
  const std::string record2 = EncodeWalRecord(CommitBatch{2, 2, {{1, "bb"}}});
  {
    // Zeros to EOF, shorter or longer than a record header, are the
    // unwritten rest of the segment.
    for (size_t zeros : {size_t{5}, size_t{16}, size_t{4000}}) {
      WalScanResult scan =
          ScanWalSegment(image + std::string(zeros, '\0'), "t");
      EXPECT_EQ(scan.tail, WalTailState::kClean) << scan.detail;
      EXPECT_EQ(scan.batches.size(), 1u);
      EXPECT_EQ(scan.valid_bytes, end);
    }
  }
  {
    // A zero header followed by a valid record is not an end: a record
    // went missing in the middle.
    WalScanResult scan =
        ScanWalSegment(image + std::string(16, '\0') + record2, "t");
    EXPECT_EQ(scan.tail, WalTailState::kCorrupt) << scan.detail;
    EXPECT_EQ(scan.batches.size(), 1u);
  }
  {
    // A zero header followed by non-zero bytes that hold no valid record
    // keeps the torn-tail rule.
    std::string tail(64, '\0');
    tail[40] = 0x5A;
    WalScanResult scan = ScanWalSegment(image + tail, "t");
    EXPECT_EQ(scan.tail, WalTailState::kTorn) << scan.detail;
    EXPECT_EQ(scan.valid_bytes, end);
  }
  {
    // A prepared segment whose blocks never reached the disk reads as
    // zeros, magic included: a torn header, salvageable to nothing.
    WalScanResult scan = ScanWalSegment(std::string(4096, '\0'), "t");
    EXPECT_EQ(scan.tail, WalTailState::kTorn) << scan.detail;
    EXPECT_EQ(scan.valid_bytes, 0u);
  }
}

TEST(StorageFaultTest, CrashReopenCommitCrashReopenStaysClean) {
  const std::string dir = TestDir("crash_twice");
  int next = 0;  // writes key next % kKeys with value "w<next>"
  auto commit_until_crash = [&](FaultyEnv* env) {
    RecoveryReport report;
    auto db = Open(env, dir, &report, SalvagePolicy::kSalvageTornTail,
                   kSmallSegment);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE(report.wal.salvaged);
    // Crash in the middle of the fifth commit from now, which lands
    // mid-segment: the reopen must resume after its last record, not
    // after the zero tail.
    for (int i = 0; i < 4; ++i, ++next) {
      ASSERT_TRUE((*db)->Put(next % kKeys, "w" + std::to_string(next)).ok());
    }
    env->FailAt(env->op_count(), FaultKind::kCrash);
    EXPECT_FALSE((*db)->Put(next % kKeys, "lost").ok());
  };
  for (int round = 0; round < 3; ++round) {
    FaultyEnv env(GetPosixEnv());
    commit_until_crash(&env);
  }
  RecoveryReport report;
  auto db = Open(GetPosixEnv(), dir, &report,
                 SalvagePolicy::kSalvageTornTail, kSmallSegment);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.replayed_batches, static_cast<uint64_t>(next));
  for (int i = 0; i < next; ++i) {
    if (i + static_cast<int>(kKeys) < next) continue;  // overwritten later
    EXPECT_EQ(*(*db)->Get(i % kKeys), "w" + std::to_string(i));
  }
}

TEST(StorageFaultTest, PreparedSegmentSizeIsConstantBetweenRotations) {
  const std::string dir = TestDir("constant_size");
  constexpr uint64_t kSegment = 4096;
  RecoveryReport report;
  auto db = Open(GetPosixEnv(), dir, &report,
                 SalvagePolicy::kSalvageTornTail, kSegment);
  ASSERT_TRUE(db.ok());
  int i = 0;
  while ((*db)->wal()->SegmentCount() < 2) {
    ASSERT_TRUE((*db)->Put(i % kKeys, "v" + std::to_string(i)).ok());
    ++i;
  }
  // Segment 2 was prepared at full size; every commit into it writes in
  // place, so no sync has a size change to journal.
  const std::string segment = NewestSegment(dir);
  int commits_in_place = 0;
  while ((*db)->wal()->SegmentCount() == 2) {
    EXPECT_EQ(std::filesystem::file_size(segment), kSegment);
    ASSERT_TRUE((*db)->Put(i % kKeys, "v" + std::to_string(i)).ok());
    ++i;
    ++commits_in_place;
  }
  EXPECT_GT(commits_in_place, 10);
}

TEST(StorageFaultTest, FiniteDiskModelChargesPreparedFilesAtFill) {
  const std::string dir = TestDir("capacity_prepared");
  FaultyEnv env(GetPosixEnv());
  env.set_capacity_bytes(4096);
  auto file = env.NewPreparedFile(dir + "/a.log", "hdr", 3000);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(env.used_bytes(), 3000u);
  EXPECT_EQ((*file)->offset(), 3u);
  // Records written into the prepared space were paid for at the fill.
  ASSERT_TRUE((*file)->Append(std::string(2000, 'x')).ok());
  EXPECT_EQ(env.used_bytes(), 3000u);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/a.log"), 3000u);
  // A second fill does not fit, and fails as disk-full.
  auto second = env.NewPreparedFile(dir + "/b.log", "hdr", 2000);
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  ASSERT_TRUE(env.DeleteFile(dir + "/b.log").ok());
  ASSERT_TRUE(env.DeleteFile(dir + "/a.log").ok());
  EXPECT_EQ(env.used_bytes(), 0u);
  EXPECT_TRUE(env.NewPreparedFile(dir + "/c.log", "hdr", 2000).ok());
}

}  // namespace
}  // namespace mvcc
