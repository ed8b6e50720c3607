#include "gc/garbage_collector.h"

#include <gtest/gtest.h>

#include <chrono>

#include "gc/reader_registry.h"
#include "txn/database.h"

namespace mvcc {
namespace {

DatabaseOptions GcOpts() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 4;
  opts.initial_value = "init";
  // These tests drive the collector by hand (RunOnce, the background
  // thread), so inline pruning at commit is off unless a test says so.
  opts.enable_gc = true;
  opts.inline_gc = false;
  return opts;
}

TEST(ReaderRegistryTest, TracksMinActive) {
  ReaderRegistry reg;
  EXPECT_FALSE(reg.MinActive().has_value());
  reg.Enter(10);
  reg.Enter(5);
  reg.Enter(10);
  EXPECT_EQ(reg.MinActive().value(), 5u);
  EXPECT_EQ(reg.ActiveCount(), 3u);
  reg.Exit(5);
  EXPECT_EQ(reg.MinActive().value(), 10u);
  reg.Exit(10);
  reg.Exit(10);
  EXPECT_FALSE(reg.MinActive().has_value());
}

TEST(ReaderRegistryTest, ExitOfUnknownIsNoop) {
  ReaderRegistry reg;
  reg.Exit(7);
  EXPECT_EQ(reg.ActiveCount(), 0u);
}

TEST(GcTest, WatermarkIsVtncWithoutReaders) {
  Database db(GcOpts());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(db.Put(1, "v").ok());
  EXPECT_EQ(db.gc()->Watermark(), db.version_control().vtnc());
}

TEST(GcTest, RunOncePrunesOldVersions) {
  Database db(GcOpts());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(db.Put(1, "v").ok());
  // Key 1 holds the initial version plus 10 committed versions.
  EXPECT_EQ(db.store().Find(1)->size(), 11u);
  EXPECT_GT(db.gc()->RunOnce(), 0u);
  EXPECT_EQ(db.store().Find(1)->size(), 1u);
  // The latest value is untouched.
  EXPECT_EQ(*db.Get(1), "v");
}

TEST(GcTest, ActiveReaderHoldsBackPruning) {
  Database db(GcOpts());
  ASSERT_TRUE(db.Put(1, "old").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);  // snapshot pins "old"
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(db.Put(1, "new").ok());
  db.gc()->RunOnce();
  // The reader's version must have survived.
  EXPECT_EQ(*reader->Read(1), "old");
  EXPECT_TRUE(reader->Commit().ok());
  // With the reader gone, a second pass reclaims the rest.
  db.gc()->RunOnce();
  EXPECT_EQ(db.store().Find(1)->size(), 1u);
}

TEST(GcTest, WatermarkNeverExceedsVtnc) {
  Database db(GcOpts());
  ASSERT_TRUE(db.Put(1, "a").ok());
  EXPECT_LE(db.gc()->Watermark(), db.version_control().vtnc());
}

TEST(GcTest, BackgroundThreadReclaims) {
  Database db(GcOpts());
  db.StartGc(std::chrono::milliseconds(5));
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(db.Put(1, "v").ok());
  // Give the collector a few passes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  db.StopGc();
  EXPECT_GT(db.gc()->total_reclaimed(), 0u);
  EXPECT_GT(db.gc()->passes(), 1u);
  EXPECT_EQ(*db.Get(1), "v");
}

TEST(GcTest, InlineGcPrunesAtCommit) {
  DatabaseOptions opts = GcOpts();
  opts.inline_gc = true;
  Database db(opts);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(db.Put(1, "v").ok());
  // No background thread ever ran; inline pruning alone bounds the chain
  // (the version just installed is above the watermark, so a small tail
  // remains).
  EXPECT_LE(db.store().Find(1)->size(), 3u);
  EXPECT_EQ(*db.Get(1), "v");
}

TEST(GcTest, InlineGcRespectsPinnedReader) {
  DatabaseOptions opts = GcOpts();
  opts.inline_gc = true;
  Database db(opts);
  ASSERT_TRUE(db.Put(1, "old").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(db.Put(1, "new").ok());
  EXPECT_EQ(*reader->Read(1), "old");  // pin survived inline pruning
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(GcTest, SnapshotReadsNeverFailUnderConcurrentGc) {
  // The watermark contract: a pinned reader can always reach its
  // snapshot, no matter how aggressively GC runs.
  Database db(GcOpts());
  db.StartGc(std::chrono::milliseconds(1));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::thread reader_thread([&] {
    while (!stop.load()) {
      auto reader = db.Begin(TxnClass::kReadOnly);
      for (ObjectKey k = 0; k < 4; ++k) {
        if (!reader->Read(k).ok()) failures.fetch_add(1);
      }
      reader->Commit();
    }
  });
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.Put(i % 4, "v").ok());
  }
  stop.store(true);
  reader_thread.join();
  db.StopGc();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace mvcc
