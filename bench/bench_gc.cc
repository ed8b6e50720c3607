// Experiment E6: garbage collection under the vtnc watermark.
//
// Section 6: the only restriction version control imposes on GC is that
// no version at or younger than vtnc (or needed by an active read-only
// transaction) may be discarded. Two parts:
//
//  - Retention: retained versions over time under an update-heavy
//    workload, without collection, with the background collector, and
//    with the collector held back by a long-running read-only
//    transaction pinning an old snapshot (inline collection off, so the
//    background thread is the only collector).
//  - Uniform cell: what collection buys a served database in memory.
//    VC-2PL with the default options (inline collection on), 1M
//    preloaded 64-byte keys, five rounds of 300k two-write transactions
//    on uniform keys; process RSS and the version arenas' byte
//    accounting after each round. With freed version blocks reused,
//    RSS stays flat after the first round; without reuse it grows by
//    the overwritten payloads, ~38 MB a round.
//
// Writes BENCH_gc.json (host header + the uniform cell's rows). Run it
// from inside the checkout so the header's git_sha resolves.
//
// `--smoke` runs only the uniform cell and exits nonzero unless RSS
// stays within 5% over rounds 2-5.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "host_header.h"
#include "txn/database.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace {

using namespace mvcc;

struct GcRun {
  std::vector<size_t> retained_series;  // sampled every 50ms
  uint64_t reclaimed = 0;
  uint64_t passes = 0;
};

GcRun Run(bool with_long_reader, bool with_gc) {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 512;
  opts.enable_gc = true;
  opts.inline_gc = false;  // the background thread is the collector here
  Database db(opts);
  if (with_gc) db.StartGc(std::chrono::milliseconds(10));

  std::unique_ptr<Transaction> long_reader;
  if (with_long_reader) {
    long_reader = db.Begin(TxnClass::kReadOnly);
    (void)long_reader->Read(0);  // pin the snapshot
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load()) {
        db.Put((t * 128 + i++) % 512, "v");
      }
    });
  }

  GcRun out;
  for (int sample = 0; sample < 20; ++sample) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    out.retained_series.push_back(db.store().TotalVersions());
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  if (long_reader) long_reader->Commit();
  db.StopGc();
  if (db.gc() != nullptr) {
    out.reclaimed = db.gc()->total_reclaimed();
    out.passes = db.gc()->passes();
  }
  return out;
}

// Process resident set size from /proc/self/status; 0 if unreadable.
uint64_t RssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

struct UniformRound {
  uint64_t rss = 0;
  size_t versions = 0;
  VersionArena::Stats arena;
};

constexpr uint64_t kUniformKeys = 1000000;
constexpr uint64_t kUniformTxnsPerRound = 300000;
constexpr int kUniformRounds = 5;
constexpr size_t kValueBytes = 64;

std::vector<UniformRound> RunUniformCell() {
  DatabaseOptions opts;  // default GC: enabled, inline at commit
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = kUniformKeys;
  opts.initial_value = Value(kValueBytes, 'p');
  Database db(opts);
  Random rng(26);
  const Value value(kValueBytes, 'v');
  std::vector<UniformRound> rounds;
  for (int round = 0; round < kUniformRounds; ++round) {
    for (uint64_t i = 0; i < kUniformTxnsPerRound; ++i) {
      const ObjectKey a = rng.Uniform(kUniformKeys);
      ObjectKey b = rng.Uniform(kUniformKeys);
      if (b == a) b = (a + 1) % kUniformKeys;
      auto txn = db.Begin(TxnClass::kReadWrite);
      if (!txn->Write(a, value).ok() || !txn->Write(b, value).ok() ||
          !txn->Commit().ok()) {
        std::cerr << "uniform cell: single-writer transaction failed\n";
        std::exit(2);
      }
    }
    UniformRound r;
    r.rss = RssBytes();
    r.versions = db.store().TotalVersions();
    r.arena = db.store().ArenaStats();
    rounds.push_back(r);
  }
  return rounds;
}

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

// Prints the cell and returns its table; `*flat` reports the gate.
Table ReportUniformCell(const std::vector<UniformRound>& rounds, bool* flat) {
  std::cout << "uniform cell: VC-2PL, default GC, " << kUniformKeys
            << " preloaded " << kValueBytes << " B keys, "
            << kUniformRounds << " rounds of " << kUniformTxnsPerRound
            << " two-write transactions on uniform keys\n";
  Table table({"round", "rss_mb", "versions", "resident_mb", "live_mb",
               "pending_mb", "free_mb", "blocks_reused"});
  for (size_t i = 0; i < rounds.size(); ++i) {
    const UniformRound& r = rounds[i];
    table.AddRow({Table::Num(uint64_t{i + 1}), Table::Num(Mb(r.rss), 1),
                  Table::Num(uint64_t{r.versions}),
                  Table::Num(Mb(r.arena.resident_bytes), 1),
                  Table::Num(Mb(r.arena.live_bytes), 1),
                  Table::Num(Mb(r.arena.pending_bytes), 2),
                  Table::Num(Mb(r.arena.free_bytes), 2),
                  Table::Num(r.arena.blocks_reused)});
  }
  table.Print(std::cout);
  // Round 1 may still settle (slab tails, allocator warm-up); from
  // round 2 on the footprint must not move by more than 5%.
  uint64_t lo = rounds[1].rss;
  uint64_t hi = rounds[1].rss;
  for (size_t i = 1; i < rounds.size(); ++i) {
    lo = std::min(lo, rounds[i].rss);
    hi = std::max(hi, rounds[i].rss);
  }
  const double spread =
      lo > 0 ? static_cast<double>(hi - lo) / static_cast<double>(lo) : 1.0;
  *flat = lo > 0 && spread <= 0.05;
  std::cout << "RSS over rounds 2-" << rounds.size() << ": " << Mb(lo)
            << " .. " << Mb(hi) << " MB, spread " << spread * 100.0
            << "% (bar 5%): " << (*flat ? "flat" : "GROWING") << "\n";
  return table;
}

int RunSmoke() {
  bool flat = false;
  ReportUniformCell(RunUniformCell(), &flat);
  if (!flat) {
    std::cout << "FAIL: served memory grows with every commit — released "
                 "version blocks are not being reused\n";
    return 1;
  }
  std::cout << "smoke-uniform OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  std::cout << "E6: version retention over a 1s update-heavy run "
               "(512 keys, 4 writers, GC every 10ms)\n\n";

  GcRun no_gc = Run(/*with_long_reader=*/false, /*with_gc=*/false);
  GcRun gc = Run(/*with_long_reader=*/false, /*with_gc=*/true);
  GcRun gc_pinned = Run(/*with_long_reader=*/true, /*with_gc=*/true);

  Table table({"t_ms", "no_gc", "gc", "gc+long_reader"});
  for (size_t i = 0; i < no_gc.retained_series.size(); ++i) {
    table.AddRow({Table::Num(uint64_t{(i + 1) * 50}),
                  Table::Num(uint64_t{no_gc.retained_series[i]}),
                  Table::Num(uint64_t{gc.retained_series[i]}),
                  Table::Num(uint64_t{gc_pinned.retained_series[i]})});
  }
  table.Print(std::cout);

  Table totals({"run", "reclaimed", "gc_passes"});
  totals.AddRow({"gc", Table::Num(gc.reclaimed), Table::Num(gc.passes)});
  totals.AddRow({"gc+long_reader", Table::Num(gc_pinned.reclaimed),
                 Table::Num(gc_pinned.passes)});
  std::cout << '\n';
  totals.Print(std::cout);

  std::cout << "\nexpected shape: no_gc grows without bound; gc stays flat\n"
               "near the key count; gc+long_reader grows while the pinned\n"
               "snapshot holds the watermark at its start number (versions\n"
               "above the pin are still uncollectable).\n\n";

  bool flat = false;
  const Table uniform = ReportUniformCell(RunUniformCell(), &flat);
  const std::string json = "BENCH_gc.json";
  if (WriteBenchJson(json, uniform)) {
    std::cout << "\nwrote " << json << "\n";
  } else {
    std::cout << "\nfailed to write " << json << "\n";
  }
  return flat ? 0 : 1;
}
