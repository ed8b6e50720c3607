// Microbenchmarks for the ordered-index substrate: the epoch-protected
// copy-on-write B+ tree behind ObjectStore::Scan versus the standard
// library's red-black tree, for the operations the database performs
// (insert-on-create, streaming range scans, point probes) — plus a
// concurrent cell where readers scan latch-free while a writer splits
// leaves under them, the case the COW design exists for.

#include <benchmark/benchmark.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/btree.h"

namespace mvcc {
namespace {

void BM_BtreeInsert(benchmark::State& state) {
  Random rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(rng.Uniform(1 << 20), nullptr);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BtreeInsert)->Arg(1024)->Arg(16384);

void BM_StdSetInsert(benchmark::State& state) {
  Random rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    std::set<ObjectKey> tree;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.insert(rng.Uniform(1 << 20));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSetInsert)->Arg(1024)->Arg(16384);

void BM_BtreeScan(benchmark::State& state) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 100000; ++k) tree.Insert(k, nullptr);
  Random rng(9);
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  uint64_t rows = 0;
  for (auto _ : state) {
    const ObjectKey lo = rng.Uniform(100000 - span);
    uint64_t sum = 0;
    for (auto cur = tree.Scan(lo, lo + span - 1); cur.Valid(); cur.Next()) {
      sum += cur.key();
      ++rows;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.SetLabel("span=" + std::to_string(span));
}
BENCHMARK(BM_BtreeScan)->Arg(64)->Arg(1024);

void BM_StdSetRange(benchmark::State& state) {
  std::set<ObjectKey> tree;
  for (ObjectKey k = 0; k < 100000; ++k) tree.insert(k);
  Random rng(9);
  const uint64_t span = static_cast<uint64_t>(state.range(0));
  uint64_t rows = 0;
  for (auto _ : state) {
    const ObjectKey lo = rng.Uniform(100000 - span);
    uint64_t sum = 0;
    for (auto it = tree.lower_bound(lo);
         it != tree.end() && *it <= lo + span - 1; ++it) {
      sum += *it;
      ++rows;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.SetLabel("span=" + std::to_string(span));
}
BENCHMARK(BM_StdSetRange)->Arg(64)->Arg(1024);

void BM_BtreeContains(benchmark::State& state) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 100000; k += 2) tree.Insert(k, nullptr);
  Random rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Contains(rng.Uniform(100000)));
  }
}
BENCHMARK(BM_BtreeContains);

// The concurrent cell: N background readers range-scan continuously
// while the TIMED thread inserts fresh keys, every insert a COW leaf
// publish (and periodically a split cascade) racing the readers'
// pinned cursors. Throughput that holds up as the reader count grows
// is the whole point of the latch-free design — with a reader-writer
// latch the writer would stall behind every scan.
void BM_BtreeInsertUnderScans(benchmark::State& state) {
  const int num_readers = static_cast<int>(state.range(0));
  BPlusTree tree;
  for (ObjectKey k = 0; k < 100000; k += 2) tree.Insert(k, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scan_rows{0};
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      Random rng(0x5CA7 + r);
      uint64_t rows = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectKey lo = rng.Uniform(100000 - 1024);
        uint64_t sum = 0;
        for (auto cur = tree.Scan(lo, lo + 1023); cur.Valid(); cur.Next()) {
          sum += cur.key();
          ++rows;
        }
        benchmark::DoNotOptimize(sum);
      }
      scan_rows.fetch_add(rows, std::memory_order_relaxed);
    });
  }

  // Timed section: odd-key inserts, scattered so splits land tree-wide.
  Random rng(0xB07);
  uint64_t inserts = 0;
  for (auto _ : state) {
    tree.Insert(rng.Uniform(100000) * 2 + 1, nullptr);
    ++inserts;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  state.SetItemsProcessed(static_cast<int64_t>(inserts));
  state.counters["scan_rows_during"] = static_cast<double>(scan_rows.load());
  state.SetLabel("readers=" + std::to_string(num_readers));
}
BENCHMARK(BM_BtreeInsertUnderScans)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kNanosecond)->UseRealTime();

// The mirror cell: the timed thread scans while one background writer
// splits leaves under it. Scan latency should be indistinguishable
// from the quiescent BM_BtreeScan — readers never block.
void BM_BtreeScanUnderInserts(benchmark::State& state) {
  BPlusTree tree;
  for (ObjectKey k = 0; k < 100000; k += 2) tree.Insert(k, nullptr);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Random rng(0xB07);
    while (!stop.load(std::memory_order_acquire)) {
      tree.Insert(rng.Uniform(100000) * 2 + 1, nullptr);
    }
  });

  Random rng(0x5CA7);
  uint64_t rows = 0;
  for (auto _ : state) {
    const ObjectKey lo = rng.Uniform(100000 - 1024);
    uint64_t sum = 0;
    for (auto cur = tree.Scan(lo, lo + 1023); cur.Valid(); cur.Next()) {
      sum += cur.key();
      ++rows;
    }
    benchmark::DoNotOptimize(sum);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_BtreeScanUnderInserts);

}  // namespace
}  // namespace mvcc
