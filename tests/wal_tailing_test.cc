// WriteAheadLog::BatchesSince — the incremental tail replication rides
// on — and its interaction with Truncate/MaxTn: tailing across a
// truncation gap must be refused (the caller resyncs from the covering
// checkpoint), never silently skipped.
//
// Every case runs against both modes of the log. The durable log keeps
// no batch in memory and tails by reading its segment files back; its
// segments are small enough that the cursor crosses sealed segments,
// rotations, out-of-order tns and Truncate()s that delete segments.

#include "recovery/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "read_hook_env.h"
#include "recovery/env.h"

namespace mvcc {
namespace {

// A record here is ~50 bytes: two or three fill a durable segment.
constexpr uint64_t kSmallSegment = 128;

CommitBatch Batch(TxnId txn, TxnNumber tn, ObjectKey key) {
  return CommitBatch{txn, tn, {{key, "v" + std::to_string(tn)}}};
}

std::string FreshDir() {
  static int next = 0;
  const std::string dir = "/tmp/mvcc_waltail_" +
                          std::to_string(static_cast<long>(::getpid())) +
                          "_" + std::to_string(next++);
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<WriteAheadLog> MakeLog(bool durable, const std::string& dir) {
  if (!durable) return std::make_unique<WriteAheadLog>();
  WalDurableOptions options;
  options.segment_target_bytes = kSmallSegment;
  auto log = WriteAheadLog::OpenDurable(GetPosixEnv(), dir, options,
                                        /*report=*/nullptr);
  if (!log.ok()) {
    std::fprintf(stderr, "cannot open a durable log in %s: %s\n",
                 dir.c_str(), log.status().ToString().c_str());
    std::abort();
  }
  return std::move(log).value();
}

// Parameter: true = durable log, false = in-memory log.
class WalTailingTest : public ::testing::TestWithParam<bool> {
 protected:
  WalTailingTest()
      : dir_(FreshDir()), owned_(MakeLog(GetParam(), dir_)), log(*owned_) {}
  ~WalTailingTest() override {
    owned_.reset();
    std::filesystem::remove_all(dir_);
  }

  bool durable() const { return GetParam(); }

  const std::string dir_;
  std::unique_ptr<WriteAheadLog> owned_;
  WriteAheadLog& log;
};

TEST_P(WalTailingTest, EmptyLogYieldsEmptyTail) {
  auto tail = log.BatchesSince(0);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->empty());
}

TEST_P(WalTailingTest, ReturnsOnlyBatchesPastTheCursor) {
  ASSERT_TRUE(log.Append(Batch(1, 1, 10)).ok());
  ASSERT_TRUE(log.Append(Batch(2, 2, 11)).ok());
  ASSERT_TRUE(log.Append(Batch(3, 3, 12)).ok());
  auto tail = log.BatchesSince(1);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].tn, 2u);
  EXPECT_EQ((*tail)[1].tn, 3u);
  // Cursor at the head: the whole log.
  EXPECT_EQ(log.BatchesSince(0)->size(), 3u);
  // Cursor at the tail: nothing.
  EXPECT_TRUE(log.BatchesSince(3)->empty());
}

TEST_P(WalTailingTest, SortsOutOfOrderAppendsByTn) {
  // TO/OCC writers may commit out of tn order, so appends arrive out of
  // order; the tail must come back ascending (replicas apply in tn
  // order, seq = position in this ordering).
  ASSERT_TRUE(log.Append(Batch(6, 6, 1)).ok());
  ASSERT_TRUE(log.Append(Batch(4, 4, 2)).ok());
  ASSERT_TRUE(log.Append(Batch(5, 5, 3)).ok());
  auto tail = log.BatchesSince(3);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 3u);
  EXPECT_EQ((*tail)[0].tn, 4u);
  EXPECT_EQ((*tail)[1].tn, 5u);
  EXPECT_EQ((*tail)[2].tn, 6u);
}

TEST_P(WalTailingTest, TruncationBelowCursorIsRefused) {
  for (TxnNumber tn = 1; tn <= 6; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  const uint64_t segments = log.SegmentCount();
  log.Truncate(4);  // checkpoint covered tn <= 4
  EXPECT_EQ(log.TruncatedUpTo(), 4u);
  if (durable()) {
    // Rotation sealed segments wholly at or below tn 4; they are gone.
    EXPECT_GT(segments, 2u);
    EXPECT_LT(log.SegmentCount(), segments);
  }

  // A cursor below the watermark cannot tell whether (cursor, 4] held
  // batches that are now gone — kUnavailable forces the resync path.
  for (TxnNumber cursor : {0u, 1u, 3u}) {
    auto tail = log.BatchesSince(cursor);
    EXPECT_FALSE(tail.ok()) << "cursor " << cursor;
    EXPECT_TRUE(tail.status().IsUnavailable()) << tail.status().ToString();
  }

  // Boundary: a cursor exactly at the watermark is safe — everything at
  // or below it is covered by the checkpoint the truncation mirrored.
  auto at_watermark = log.BatchesSince(4);
  ASSERT_TRUE(at_watermark.ok());
  ASSERT_EQ(at_watermark->size(), 2u);
  EXPECT_EQ((*at_watermark)[0].tn, 5u);
  EXPECT_EQ((*at_watermark)[1].tn, 6u);
}

TEST_P(WalTailingTest, WatermarkIsMonotoneAcrossTruncations) {
  for (TxnNumber tn = 1; tn <= 8; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  log.Truncate(5);
  log.Truncate(3);  // stale checkpoint must not lower the watermark
  EXPECT_EQ(log.TruncatedUpTo(), 5u);
  EXPECT_FALSE(log.BatchesSince(4).ok());
  EXPECT_TRUE(log.BatchesSince(5).ok());
}

TEST_P(WalTailingTest, MaxTnSurvivesTruncation) {
  for (TxnNumber tn = 1; tn <= 5; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  EXPECT_EQ(log.MaxTn(), 5u);
  log.Truncate(5);  // whole log covered: empty, but the durable frontier
  EXPECT_TRUE(log.Batches()->empty());
  EXPECT_EQ(log.MaxTn(), 5u);  // recovery still knows how far we got
  // Tailing from the frontier works and is empty; below it is refused.
  EXPECT_TRUE(log.BatchesSince(5)->empty());
  EXPECT_FALSE(log.BatchesSince(2).ok());
}

TEST_P(WalTailingTest, TailingResumesPastTruncationAfterNewAppends) {
  for (TxnNumber tn = 1; tn <= 3; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  log.Truncate(3);
  ASSERT_TRUE(log.Append(Batch(4, 4, 40)).ok());
  ASSERT_TRUE(log.Append(Batch(5, 5, 50)).ok());
  auto tail = log.BatchesSince(3);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].tn, 4u);
  EXPECT_EQ((*tail)[1].writes[0].key, 50u);
}

TEST_P(WalTailingTest, CursorWalksTheWholeLogAcrossTruncations) {
  // A replication-style tail: appends arrive out of tn order in
  // TO-style windows, the cursor follows the largest tn shipped, and a
  // checkpoint truncates behind it midway. Every batch reaches the tail
  // exactly once, in tn order, and Batches() always equals the part of
  // the log above the watermark.
  TxnNumber cursor = 0;
  TxnNumber next_expected = 1;
  for (TxnNumber base = 0; base < 24; base += 3) {
    for (TxnNumber tn : {base + 3, base + 1, base + 2}) {
      ASSERT_TRUE(log.Append(Batch(tn, tn, tn * 10)).ok());
    }
    auto tail = log.BatchesSince(cursor);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    ASSERT_EQ(tail->size(), 3u) << "cursor " << cursor;
    for (const CommitBatch& batch : *tail) {
      EXPECT_EQ(batch.tn, next_expected++);
      EXPECT_EQ(batch.writes[0].key, batch.tn * 10);
      cursor = batch.tn;
    }
    if (base == 12) log.Truncate(cursor - 1);
  }
  EXPECT_EQ(log.TruncatedUpTo(), 14u);
  auto all = log.Batches();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 10u);  // tns 15..24
  EXPECT_EQ(all->front().tn, 15u);
  EXPECT_EQ(all->back().tn, 24u);
  EXPECT_TRUE(log.BatchesSince(24)->empty());
  EXPECT_FALSE(log.BatchesSince(13).ok());
  if (durable()) {
    // The log's only copy is on disk.
    EXPECT_EQ(log.size(), 0u);
    EXPECT_GT(log.SegmentCount(), 3u);
  }
}

TEST_P(WalTailingTest, ConcurrentReadersSeeContiguousPrefixes) {
  // A tail and a full read race a writer (whose appends rotate
  // segments) and a checkpointer (whose truncations delete them). A
  // durable read lists its segments under the log's lock and reads them
  // outside it, so segments get sealed, and deleted, under it.
  constexpr TxnNumber kAppends = 300;
  std::atomic<TxnNumber> shipped{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (TxnNumber tn = 1; tn <= kAppends; ++tn) {
      Status s = log.Append(Batch(tn, tn, tn));
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) break;
    }
  });
  std::thread checkpointer([&] {
    while (!done.load()) {
      log.Truncate(shipped.load() / 2);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread scanner([&] {
    while (!done.load()) {
      auto all = log.Batches();
      EXPECT_TRUE(all.ok()) << all.status().ToString();
      if (!all.ok()) break;
      for (size_t i = 1; i < all->size(); ++i) {
        EXPECT_EQ((*all)[i].tn, (*all)[i - 1].tn + 1);
      }
    }
  });
  TxnNumber cursor = 0;
  while (cursor < kAppends) {
    auto tail = log.BatchesSince(cursor);
    EXPECT_TRUE(tail.ok()) << tail.status().ToString();
    if (!tail.ok()) break;
    for (const CommitBatch& batch : *tail) {
      EXPECT_EQ(batch.tn, cursor + 1);
      cursor = batch.tn;
    }
    shipped.store(cursor);
  }
  writer.join();
  done.store(true);
  checkpointer.join();
  scanner.join();
  EXPECT_EQ(cursor, kAppends);
  if (durable()) EXPECT_EQ(log.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, WalTailingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "durable" : "in_memory";
                         });

TEST(WalDurableTailingTest, TruncationBetweenListingAndReadingRestarts) {
  // A durable read lists its segments under the log's lock and reads
  // them outside it. A Truncate() in that gap deletes a listed segment;
  // the read must start over from the new watermark, not fail on the
  // missing file and not return batches the watermark now covers.
  const std::string dir = FreshDir();
  ReadHookEnv env;
  WalDurableOptions options;
  options.segment_target_bytes = kSmallSegment;
  auto opened = WriteAheadLog::OpenDurable(&env, dir, options, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  WriteAheadLog& log = **opened;
  TxnNumber truncate_before_next_read = 0;  // 0 = none pending
  env.before_read = [&](const std::string&) {
    const TxnNumber up_to = truncate_before_next_read;
    truncate_before_next_read = 0;
    if (up_to != 0) log.Truncate(up_to);
  };
  for (TxnNumber tn = 1; tn <= 6; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  const uint64_t segments = log.SegmentCount();
  ASSERT_GT(segments, 2u);

  truncate_before_next_read = 4;
  auto all = log.Batches();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_LT(log.SegmentCount(), segments);  // the gap deleted a segment
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].tn, 5u);
  EXPECT_EQ((*all)[1].tn, 6u);

  // A tail whose cursor the truncation passed is refused, as if it had
  // been called after the Truncate().
  for (TxnNumber tn = 7; tn <= 12; ++tn) {
    ASSERT_TRUE(log.Append(Batch(tn, tn, tn)).ok());
  }
  truncate_before_next_read = 12;
  auto tail = log.BatchesSince(6);
  EXPECT_TRUE(tail.status().IsUnavailable()) << tail.status().ToString();
  env.before_read = nullptr;
  opened->reset();
  std::filesystem::remove_all(dir);
}

TEST(WalDurableTailingTest, ReopenedLogTailsWhatWasAcknowledged) {
  const std::string dir = FreshDir();
  {
    auto log = MakeLog(/*durable=*/true, dir);
    for (TxnNumber tn : {2u, 1u, 4u, 3u, 5u}) {
      ASSERT_TRUE(log->Append(Batch(tn, tn, tn)).ok());
    }
  }
  std::vector<CommitBatch> scanned;
  WalDurableOptions options;
  options.segment_target_bytes = kSmallSegment;
  auto reopened = WriteAheadLog::OpenDurable(GetPosixEnv(), dir, options,
                                             nullptr, &scanned);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The open scan hands over every record in append order and keeps
  // none; tailing then reads the same records back from disk, sorted.
  ASSERT_EQ(scanned.size(), 5u);
  EXPECT_EQ(scanned[0].tn, 2u);
  EXPECT_EQ((*reopened)->size(), 0u);
  EXPECT_EQ((*reopened)->MaxTn(), 5u);
  auto tail = (*reopened)->BatchesSince(2);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->size(), 3u);
  EXPECT_EQ((*tail)[0].tn, 3u);
  EXPECT_EQ((*tail)[2].tn, 5u);
  // Appending resumes after the scanned records.
  ASSERT_TRUE((*reopened)->Append(Batch(6, 6, 6)).ok());
  EXPECT_EQ((*reopened)->Batches()->size(), 6u);
  reopened->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mvcc
