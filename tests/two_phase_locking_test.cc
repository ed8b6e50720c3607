#include "cc/two_phase_locking.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "txn/database.h"

namespace mvcc {
namespace {

DatabaseOptions Opts() {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 16;
  opts.initial_value = "init";
  opts.record_history = true;
  return opts;
}

TEST(Vc2plTest, ReadWriteCommitReadBack) {
  Database db(Opts());
  auto writer = db.Begin(TxnClass::kReadWrite);
  EXPECT_EQ(*writer->Read(3), "init");
  EXPECT_TRUE(writer->Write(3, "updated").ok());
  EXPECT_EQ(*writer->Read(3), "updated");  // read own write
  EXPECT_TRUE(writer->Commit().ok());
  EXPECT_EQ(writer->txn_number(), 1u);

  EXPECT_EQ(*db.Get(3), "updated");
}

TEST(Vc2plTest, ReadWriteTransactionsReadLatest) {
  Database db(Opts());
  ASSERT_TRUE(db.Put(3, "a").ok());
  ASSERT_TRUE(db.Put(3, "b").ok());
  auto txn = db.Begin(TxnClass::kReadWrite);
  EXPECT_EQ(*txn->Read(3), "b");
  EXPECT_EQ(txn->start_number(), kInfiniteTxnNumber);
  txn->Abort();
}

TEST(Vc2plTest, ReadOnlySnapshotIgnoresLaterCommits) {
  Database db(Opts());
  ASSERT_TRUE(db.Put(3, "first").ok());
  auto reader = db.Begin(TxnClass::kReadOnly);
  ASSERT_TRUE(db.Put(3, "second").ok());
  // The reader's snapshot predates the second write.
  EXPECT_EQ(*reader->Read(3), "first");
  EXPECT_TRUE(reader->Commit().ok());
  EXPECT_EQ(*db.Get(3), "second");
}

TEST(Vc2plTest, ReadOnlySeesDelayedVisibility) {
  // While an older registered transaction is incomplete, a younger
  // committed transaction stays invisible to new readers.
  Database db(Opts());
  auto old_writer = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(old_writer->Write(1, "old").ok());

  std::atomic<bool> old_committing{false};
  std::thread older([&] {
    old_committing.store(true);
    ASSERT_TRUE(old_writer->Commit().ok());
  });
  while (!old_committing.load()) std::this_thread::yield();

  // A younger writer on a different key commits completely.
  auto young = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(young->Write(2, "young").ok());
  ASSERT_TRUE(young->Commit().ok());
  older.join();

  // By now both completed; visible in serial order.
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_EQ(*reader->Read(2), "young");
}

TEST(Vc2plTest, WriterBlocksWriterUntilCommit) {
  Database db(Opts());
  auto t_old = db.Begin(TxnClass::kReadWrite);  // smaller id = older
  auto t_new = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(t_new->Write(5, "new").ok());
  // Older requester waits under wait-die.
  std::atomic<bool> done{false};
  std::thread blocked([&] {
    ASSERT_TRUE(t_old->Write(5, "old").ok());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(t_new->Commit().ok());
  blocked.join();
  ASSERT_TRUE(t_old->Commit().ok());
  // Last committer in serial order wins: t_old's lock point is later.
  EXPECT_EQ(*db.Get(5), "old");
}

TEST(Vc2plTest, YoungerConflictingWriterDies) {
  Database db(Opts());
  auto t_old = db.Begin(TxnClass::kReadWrite);
  auto t_new = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(t_old->Write(5, "old").ok());
  Status s = t_new->Write(5, "new");
  EXPECT_TRUE(s.IsAborted());
  EXPECT_FALSE(t_new->active());
  EXPECT_EQ(db.counters().rw_aborts.load(), 1u);
  ASSERT_TRUE(t_old->Commit().ok());
  EXPECT_EQ(*db.Get(5), "old");
}

TEST(Vc2plTest, AbortDiscardsBufferedWrites) {
  Database db(Opts());
  auto txn = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(txn->Write(4, "doomed").ok());
  txn->Abort();
  EXPECT_EQ(*db.Get(4), "init");
  EXPECT_EQ(db.version_control().QueueSize(), 0u);
}

TEST(Vc2plTest, TnAssignedInCommitOrder) {
  Database db(Opts());
  auto a = db.Begin(TxnClass::kReadWrite);
  auto b = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(b->Write(1, "b").ok());
  ASSERT_TRUE(a->Write(2, "a").ok());
  ASSERT_TRUE(b->Commit().ok());
  ASSERT_TRUE(a->Commit().ok());
  // b reached its lock point first.
  EXPECT_EQ(b->txn_number(), 1u);
  EXPECT_EQ(a->txn_number(), 2u);
}

TEST(Vc2plTest, VersionsCarryTheWritersNumber) {
  // Counts raw versions, so the chain must keep every one.
  DatabaseOptions opts = Opts();
  opts.enable_gc = false;
  opts.inline_gc = false;
  Database db(opts);
  ASSERT_TRUE(db.Put(9, "x").ok());
  VersionChain* chain = db.store().Find(9);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->LatestNumber(), 1u);
  ASSERT_TRUE(db.Put(9, "y").ok());
  EXPECT_EQ(chain->LatestNumber(), 2u);
  EXPECT_EQ(chain->size(), 3u);  // initial + two writes
}

TEST(Vc2plTest, ReadOnlyNeverTouchesLocks) {
  Database db(Opts());
  auto writer = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(writer->Write(7, "w").ok());  // X lock held on key 7
  // A reader proceeds instantly despite the exclusive lock.
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_EQ(*reader->Read(7), "init");
  EXPECT_TRUE(reader->Commit().ok());
  EXPECT_EQ(db.counters().ro_blocks.load(), 0u);
  ASSERT_TRUE(writer->Commit().ok());
}

TEST(Vc2plTest, NotFoundForMissingKey) {
  Database db(Opts());
  auto reader = db.Begin(TxnClass::kReadOnly);
  EXPECT_TRUE(reader->Read(999).status().IsNotFound());
  auto writer = db.Begin(TxnClass::kReadWrite);
  EXPECT_TRUE(writer->Read(999).status().IsNotFound());
  writer->Abort();
}

TEST(Vc2plTest, DeadlockDetectPolicyResolvesCycle) {
  DatabaseOptions opts = Opts();
  opts.deadlock_policy = DeadlockPolicy::kDetect;
  Database db(opts);
  auto t1 = db.Begin(TxnClass::kReadWrite);
  auto t2 = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(t1->Write(1, "a").ok());
  ASSERT_TRUE(t2->Write(2, "b").ok());
  std::atomic<int> aborted{0};
  std::thread th([&] {
    Status s = t1->Write(2, "a2");
    if (s.IsAborted()) aborted.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status s = t2->Write(1, "b1");
  if (s.IsAborted()) aborted.fetch_add(1);
  th.join();
  EXPECT_EQ(aborted.load(), 1);
  if (t1->active()) t1->Abort();
  if (t2->active()) t2->Abort();
}

}  // namespace
}  // namespace mvcc
