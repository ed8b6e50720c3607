#include "baselines/mvto.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "txn/database.h"

namespace mvcc {
namespace {

DatabaseOptions Opts() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kMvto;
  opts.preload_keys = 16;
  opts.initial_value = "init";
  opts.record_history = true;
  return opts;
}

TEST(MvtoTest, BasicReadWriteCommit) {
  Database db(Opts());
  auto txn = db.Begin(TxnClass::kReadWrite);
  EXPECT_EQ(*txn->Read(1), "init");
  ASSERT_TRUE(txn->Write(1, "one").ok());
  EXPECT_EQ(*txn->Read(1), "one");
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*db.Get(1), "one");
}

TEST(MvtoTest, EveryTransactionDrawsUniqueTimestamp) {
  Database db(Opts());
  auto a = db.Begin(TxnClass::kReadWrite);
  auto ro = db.Begin(TxnClass::kReadOnly);  // read-only also ticketed
  auto b = db.Begin(TxnClass::kReadWrite);
  EXPECT_EQ(a->txn_number(), 1u);
  EXPECT_EQ(ro->txn_number(), 2u);
  EXPECT_EQ(b->txn_number(), 3u);
  a->Abort();
  ro->Abort();
  b->Abort();
}

TEST(MvtoTest, OldTimestampReaderKeepsItsVersionUnderDefaultOptions) {
  // GC is on by default, but only for the VC protocols: MVTO readers
  // never enter the reader registry, so pruning by a watermark could
  // drop the version an old-timestamp reader still needs. The baseline
  // must keep its chains whole.
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kMvto;
  opts.preload_keys = 16;
  opts.initial_value = "init";
  Database db(opts);
  EXPECT_FALSE(db.options().enable_gc);
  EXPECT_FALSE(db.options().inline_gc);
  EXPECT_EQ(db.gc(), nullptr);
  auto reader = db.Begin(TxnClass::kReadOnly);  // ts = 1
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Put(4, "new" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*reader->Read(4), "init");
  EXPECT_TRUE(reader->Commit().ok());
  EXPECT_EQ(db.store().Find(4)->size(), 21u);
}

TEST(MvtoTest, ReadOnlyReadUpdatesMetadata) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_EQ(*reader->Read(3), "init");
  // Reed's protocol: the read wrote an r-ts — concurrency control
  // overhead charged to a read-only transaction.
  EXPECT_EQ(db.counters().ro_metadata_writes.load(), 1u);
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(MvtoTest, ReadOnlyTransactionCausesWriterAbort) {
  // The paper's headline complaint about [14]: a read-only transaction
  // can cause a read-write transaction to abort.
  Database db(Opts());
  auto writer = db.Begin(TxnClass::kReadWrite);   // ts = 1
  auto reader = db.Begin(TxnClass::kReadOnly);    // ts = 2
  EXPECT_EQ(*reader->Read(5), "init");            // r-ts(init version) = 2
  Status s = writer->Write(5, "late");            // would invalidate read
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(db.counters().rw_aborts_caused_by_ro.load(), 1u);
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(MvtoTest, ReadOnlyReadBlocksOnPendingWrite) {
  // Second complaint: reads (including read-only ones) block on pending
  // writes of older transactions.
  Database db(Opts());
  auto writer = db.Begin(TxnClass::kReadWrite);   // ts = 1
  ASSERT_TRUE(writer->Write(5, "pending").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);    // ts = 2

  std::atomic<bool> done{false};
  Value observed;
  std::thread t([&] {
    observed = *reader->Read(5);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  EXPECT_GE(db.counters().ro_blocks.load(), 1u);
  ASSERT_TRUE(writer->Commit().ok());
  t.join();
  EXPECT_EQ(observed, "pending");
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(MvtoTest, WriteIntoThePastAllowedWithoutInterveningRead) {
  // MVTO's advantage over single-version TO: an old writer succeeds if
  // nobody younger read the preceding version.
  Database db(Opts());
  auto t_old = db.Begin(TxnClass::kReadWrite);   // ts = 1
  auto t_young = db.Begin(TxnClass::kReadWrite); // ts = 2
  ASSERT_TRUE(t_young->Write(5, "young").ok());
  ASSERT_TRUE(t_young->Commit().ok());
  // Old writer creates version 1 behind version 2: allowed.
  EXPECT_TRUE(t_old->Write(5, "old").ok());
  ASSERT_TRUE(t_old->Commit().ok());
  // Latest value is still the young one.
  EXPECT_EQ(*db.Get(5), "young");
  VersionChain* chain = db.store().Find(5);
  EXPECT_EQ(chain->Read(1)->value, "old");
}

TEST(MvtoTest, AbortedPendingWriteUnblocksReaders) {
  Database db(Opts());
  auto writer = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(writer->Write(5, "doomed").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  std::atomic<bool> done{false};
  Value observed;
  std::thread t([&] {
    observed = *reader->Read(5);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  writer->Abort();
  t.join();
  EXPECT_EQ(observed, "init");
  EXPECT_TRUE(reader->Commit().ok());
}

TEST(MvtoTest, CommitsVisibleImmediately) {
  // Unlike the VC framework there is no delayed visibility in MVTO.
  Database db(Opts());
  ASSERT_TRUE(db.Put(1, "x").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_EQ(*reader->Read(1), "x");
  EXPECT_TRUE(reader->Commit().ok());
}

}  // namespace
}  // namespace mvcc
