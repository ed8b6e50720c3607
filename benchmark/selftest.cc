// selftest: checks the benchmark's own measuring and checking code —
// percentile and self-time math on synthetic data, the value tags, and
// that the durability checker flags a WAL whose last segment was cut
// below an acknowledged commit. Registered with this project's ctest.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "durability.h"
#include "recovery/log_format.h"
#include "recovery/recovery.h"
#include "stats.h"
#include "tracer.h"
#include "workload.h"

namespace mvccbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestPercentiles() {
  std::vector<int64_t> v;
  for (int64_t i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  const Summary s = Summarize(v);
  Expect(s.n == 100 && s.p50 == 50 && s.p99 == 99,
         "nearest-rank p50/p99 of 1..100");
  Expect(Summarize({7}).p99 == 7, "single sample is every percentile");
  Expect(Summarize({}).n == 0, "empty summary");
  std::vector<int64_t> sorted = {1, 2, 3, 4};
  Expect(NearestRank(sorted, 0.5) == 2 && NearestRank(sorted, 0.51) == 3,
         "nearest rank rounds the rank up");
  Expect(HighestSupportedPercentile(1000) == 0.99,
         "1000 samples support p99 (10 beyond it)");
  Expect(HighestSupportedPercentile(10) == 0.0, "10 samples support nothing");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of four");
}

Span MakeSpan(uint32_t tid, uint64_t flight, SpanName name, int64_t start,
              int64_t end) {
  Span s;
  s.start_ns = start;
  s.dur_ns = end - start;
  s.self_ns = 0;
  s.flight = flight;
  s.tid = tid;
  s.name = name;
  s.phase = 0;
  s.read_only = 0;
  return s;
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      MakeSpan(1, 7, SpanName::kTxnCommit, 40, 90),
      MakeSpan(1, 7, SpanName::kTxnFlight, 0, 100),
      MakeSpan(1, 7, SpanName::kTxnBegin, 10, 30),
      MakeSpan(1, 7, SpanName::kEnvSync, 50, 60),
      // Runs past its parent: only the covered part is subtracted.
      MakeSpan(1, 7, SpanName::kTxnWrite, 95, 110),
      // Another flight overlapping on the same thread never nests.
      MakeSpan(1, 8, SpanName::kClientFlight, 20, 25),
      // Same interval on another thread: independent.
      MakeSpan(2, 7, SpanName::kTxnRead, 10, 30),
  };
  ComputeSelfTimes(&spans);
  auto self = [&](uint32_t tid, SpanName name) -> int64_t {
    for (const Span& s : spans) {
      if (s.tid == tid && s.name == name) return s.self_ns;
    }
    return -1;
  };
  Expect(self(1, SpanName::kTxnFlight) == 100 - 20 - 50 - 5,
         "root self = duration minus covered children");
  Expect(self(1, SpanName::kTxnCommit) == 40, "commit self minus env.sync");
  Expect(self(1, SpanName::kEnvSync) == 10, "leaf self = duration");
  Expect(self(1, SpanName::kTxnWrite) == 15, "overhanging child keeps its own");
  Expect(self(1, SpanName::kClientFlight) == 5, "foreign flight is a root");
  Expect(self(2, SpanName::kTxnRead) == 20, "threads do not nest");
}

void TestValues() {
  const mvcc::Value v = TagValue(3, 77);
  Expect(v.size() == kValueBytes && WellFormedValue(v), "tag is well formed");
  Expect(WellFormedValue(PreloadValue()), "preload value is well formed");
  mvcc::Value bad = v;
  bad[30] = bad[30] == 'a' ? 'b' : 'a';
  Expect(!WellFormedValue(bad), "a flipped filler byte is detected");
  Expect(!WellFormedValue("0"), "short value is rejected");
  Expect(TagValue(3, 77) != TagValue(4, 77), "tags differ by connection");

  AckedMap acked;
  RecordAck(&acked, 5, Ack{10, 1, 3});
  RecordAck(&acked, 5, Ack{10, 1, 4});  // same txn writes the key again
  RecordAck(&acked, 5, Ack{9, 2, 99});  // an older txn
  Expect(acked[5].tn == 10 && acked[5].seq == 4,
         "acked map keeps the highest tn, and its last write");
}

void TestDurabilityChecker() {
  char tmpl[] = "selftest-XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    Expect(false, "mkdtemp");
    return;
  }
  const std::string dir = tmpl;
  mvcc::DatabaseOptions opts = ServedDatabaseOptions();
  opts.preload_keys = 0;
  AckedMap acked;
  {
    auto db = mvcc::OpenDatabaseDurable(opts, mvcc::GetPosixEnv(), dir,
                                        mvcc::WalDurableOptions{}, nullptr);
    Expect(db.ok(), "durable open");
    if (!db.ok()) return;
    for (uint64_t i = 1; i <= 50; ++i) {
      auto txn = (*db)->Begin(mvcc::TxnClass::kReadWrite);
      (void)txn->Write(i % 20, TagValue(1, i));
      Expect(txn->Commit().ok(), "commit");
      RecordAck(&acked, i % 20, Ack{txn->txn_number(), 1, i});
    }
  }
  DurabilityResult clean = CheckDurability(dir, acked);
  Expect(clean.opened && clean.keys_checked == 20 && clean.acked_lost == 0,
         "intact WAL: every acknowledged write recovered");

  // Cut the newest segment into its last record: a torn tail the reopen
  // salvages, losing a commit that was acknowledged.
  namespace fs = std::filesystem;
  fs::path last;
  uint64_t last_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/wal")) {
    const uint64_t seq =
        mvcc::ParseWalSegmentFileName(entry.path().filename().string());
    if (seq > last_seq) {
      last_seq = seq;
      last = entry.path();
    }
  }
  Expect(last_seq != 0, "found a WAL segment");
  if (last_seq != 0) {
    fs::resize_file(last, fs::file_size(last) - 10);
    DurabilityResult torn = CheckDurability(dir, acked);
    Expect(torn.opened && torn.acked_lost >= 1,
           "truncated WAL: the checker reports acknowledged writes lost");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mvccbench

int main() {
  mvccbench::TestPercentiles();
  mvccbench::TestSelfTimes();
  mvccbench::TestValues();
  mvccbench::TestDurabilityChecker();
  if (mvccbench::g_failures != 0) {
    std::printf("selftest: %d failures\n", mvccbench::g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
