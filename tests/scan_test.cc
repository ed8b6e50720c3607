#include <gtest/gtest.h>

#include <thread>

#include "txn/database.h"

namespace mvcc {
namespace {

DatabaseOptions Opts(ProtocolKind kind = ProtocolKind::kVc2pl) {
  DatabaseOptions opts;
  opts.protocol = kind;
  opts.preload_keys = 10;
  opts.initial_value = "init";
  return opts;
}

TEST(ScanTest, FullRangeScan) {
  Database db(Opts());
  ASSERT_TRUE(db.Put(3, "three").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  auto scan = reader->Scan(0, 9);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 10u);
  EXPECT_EQ((*scan)[3].first, 3u);
  EXPECT_EQ((*scan)[3].second, "three");
  EXPECT_EQ((*scan)[4].second, "init");
  reader->Commit();
}

TEST(ScanTest, SubRangeAndEmptyRange) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  auto scan = reader->Scan(4, 6);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 3u);
  auto empty = reader->Scan(100, 200);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  reader->Commit();
}

TEST(ScanTest, PhantomFreeSnapshotScan) {
  // An object created after the reader's snapshot must not appear,
  // with no locking whatsoever — the chain has no version <= sn.
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  ASSERT_TRUE(db.Put(42, "phantom").ok());  // new key after the snapshot
  auto scan = reader->Scan(0, 100);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 10u);  // preloaded keys only
  for (const auto& [key, value] : *scan) EXPECT_NE(key, 42u);
  reader->Commit();
  // A new reader sees it.
  auto reader2 = db.Begin(TxnClass::kReadOnly);
  auto scan2 = reader2->Scan(0, 100);
  ASSERT_TRUE(scan2.ok());
  EXPECT_EQ(scan2->size(), 11u);
  reader2->Commit();
}

TEST(ScanTest, ScanValuesAreFromOneSnapshot) {
  Database db(Opts(ProtocolKind::kVcTo));
  auto reader = db.Begin(TxnClass::kReadOnly);
  // Concurrent multi-key committed update must be invisible.
  auto writer = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(writer->Write(0, "new").ok());
  ASSERT_TRUE(writer->Write(1, "new").ok());
  ASSERT_TRUE(writer->Commit().ok());
  auto scan = reader->Scan(0, 1);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)[0].second, "init");
  EXPECT_EQ((*scan)[1].second, "init");
  reader->Commit();
}

TEST(ScanTest, ScanRejectedForBaselineReadWriteTransactions) {
  // Baseline protocols expose no phantom-safe read-write scan.
  Database db(Opts(ProtocolKind::kMvto));
  auto rw = db.Begin(TxnClass::kReadWrite);
  EXPECT_TRUE(rw->Scan(0, 9).status().IsInvalidArgument());
  rw->Abort();
}

TEST(ScanTest, ScanRejectedUnderBaselineProtocols) {
  Database db(Opts(ProtocolKind::kMvto));
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_TRUE(reader->Scan(0, 9).status().IsInvalidArgument());
  reader->Abort();
}

TEST(ScanTest, ScanAfterFinishRejected) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  reader->Commit();
  EXPECT_TRUE(reader->Scan(0, 9).status().IsInvalidArgument());
}

TEST(ScanTest, ScanRangeLimitTruncates) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  auto limited = reader->ScanRange(0, 9, ScanOptions{/*limit=*/3});
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->size(), 3u);
  EXPECT_EQ((*limited)[0].first, 0u);
  EXPECT_EQ((*limited)[2].first, 2u);
  // limit 0 = unlimited; a limit past the range size is harmless.
  auto all = reader->ScanRange(0, 9, ScanOptions{/*limit=*/0});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 10u);
  auto big = reader->ScanRange(0, 9, ScanOptions{/*limit=*/1000});
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->size(), 10u);
  reader->Commit();
}

TEST(ScanTest, ScanRangeLimitOnReadWritePath) {
  Database db(Opts(ProtocolKind::kVc2pl));
  auto rw = db.Begin(TxnClass::kReadWrite);
  auto limited = rw->ScanRange(0, 9, ScanOptions{/*limit=*/4});
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 4u);
  rw->Commit();
}

TEST(ScanTest, ScanPrefixCoversTheLowBitsWindow) {
  DatabaseOptions opts = Opts();
  opts.preload_keys = 0;
  Database db(opts);
  // Populate keys under two 8-bit prefixes: 0x100-0x1FF and 0x200-0x2FF.
  for (ObjectKey k = 0x100; k <= 0x1FF; k += 16) {
    ASSERT_TRUE(db.Put(k, "a").ok());
  }
  ASSERT_TRUE(db.Put(0x200, "b").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  auto scan = reader->ScanPrefix(/*prefix=*/0x1, /*low_bits=*/8);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 16u);  // 0x100, 0x110, ..., 0x1F0
  for (const auto& [key, value] : *scan) {
    EXPECT_EQ(key >> 8, 0x1u);
  }
  auto other = reader->ScanPrefix(/*prefix=*/0x2, /*low_bits=*/8,
                                  ScanOptions{/*limit=*/10});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->size(), 1u);
  reader->Commit();
}

TEST(ScanTest, ScanPrefixRejectsOverflowingPrefix) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  // A prefix that does not fit above low_bits would wrap; reject it.
  EXPECT_TRUE(reader->ScanPrefix(~ObjectKey{0}, 8)
                  .status()
                  .IsInvalidArgument());
  reader->Commit();
}

TEST(ScanTest, ScanIsStableUnderConcurrentWriters) {
  Database db(Opts());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      db.Put(i % 10, std::to_string(i));
      ++i;
    }
  });
  for (int round = 0; round < 100; ++round) {
    auto reader = db.Begin(TxnClass::kReadOnly);
    auto first = reader->Scan(0, 9);
    auto second = reader->Scan(0, 9);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*first, *second);  // repeatable within the transaction
    reader->Commit();
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace mvcc
