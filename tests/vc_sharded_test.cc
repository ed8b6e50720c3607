// The sharded visibility core: per-residue-class commit watermarks
// behind the VisibilitySource seam — the core every kDense
// VersionControl runs on — and the shared commit pipeline on top of it.
//
// The concurrent tests are the TSan targets for the sharded core. They
// hammer Register/Complete/Discard from many threads while a sampler
// asserts, from outside, the paper's two properties — vtnc never moves
// backwards, and everything at or below it has resolved — with the two
// documented observable differences from Figure 1's scalar vtnc:
//
//   * the folded floor may name a DISCARDED (or never-assigned) number:
//     a discarded tn installs no versions, so reading at it reads the
//     same versions as reading at the largest completed number below
//     it. The sampler therefore checks closure (everything at or below
//     the floor has RESOLVED), not "the floor itself completed".
//   * at quiesce the floor equals tnc - 1, the last assigned number,
//     whatever its resolution was.
//
// The suite also checks the snapshot vector itself (per-shard closure +
// folded floor coherence), the cached-floor contract (lags, never
// leads), the one routing rule (numbering mode picks the core), a
// Database integration pass, the group-commit pipeline end to end, and
// the deterministic-explorer sweeps that run the watermark-vector
// oracle per schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sim/explorer.h"
#include "txn/database.h"
#include "vc/sharded_core.h"
#include "vc/version_control.h"

namespace mvcc {
namespace {

constexpr uint8_t kUnresolved = 0;
constexpr uint8_t kCompleted = 1;
constexpr uint8_t kDiscarded = 2;

// ---- concurrent stress: monotonicity + closure property ----

TEST(VcSharded, StressClosurePropertyUnderConcurrentResolves) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 4000;
  constexpr uint64_t kMaxTn = kThreads * kPerThread + 1;

  VersionControl vc;
  ASSERT_STREQ(vc.core_name(), "sharded");

  // resolved[tn] is written BEFORE the Complete/Discard call for tn, so
  // any floor value v published by the core (acquire-read by the
  // sampler) must find resolved[t] != kUnresolved for every t <= v.
  std::vector<std::atomic<uint8_t>> resolved(kMaxTn + 1);
  for (auto& r : resolved) r.store(kUnresolved, std::memory_order_relaxed);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    TxnNumber last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const TxnNumber v = vc.vtnc();
      ASSERT_GE(v, last) << "floor moved backwards";
      if (v > last) {
        // New visibility horizon: everything at or below it resolved.
        // (Unlike Figure 1's vtnc, v itself may be a discard.)
        for (TxnNumber t = last + 1; t <= v; ++t) {
          ASSERT_NE(resolved[t].load(std::memory_order_acquire),
                    kUnresolved)
              << "tn " << t << " unresolved below floor " << v;
        }
        last = v;
      }
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(77 + w);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const TxnNumber tn = vc.Register(TxnId(w) + 1);
        ASSERT_LE(tn, kMaxTn);
        if ((rng.Next() & 3) == 0) {
          resolved[tn].store(kDiscarded, std::memory_order_release);
          vc.Discard(tn);
        } else {
          resolved[tn].store(kCompleted, std::memory_order_release);
          vc.Complete(tn);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  // Quiesced: every shard consumed its class; the floor is the last
  // assigned number and the queue is empty.
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_EQ(vc.vtnc(), kThreads * kPerThread);
  EXPECT_EQ(vc.RefreshFloor(), kThreads * kPerThread);
  EXPECT_EQ(vc.CachedFloor(), kThreads * kPerThread);
}

// The snapshot vector under the same hammering: the folded floor must
// equal the min of the per-shard watermarks, every watermark must bound
// its own class's resolution, and successive snapshots never regress.
TEST(VcSharded, SnapshotVectorCoherenceUnderConcurrentResolves) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 3000;
  constexpr uint64_t kMaxTn = kThreads * kPerThread + 1;

  VersionControl vc(NumberingMode::kDense, /*vc_shards=*/8);
  ASSERT_EQ(vc.ShardCount(), 8u);

  std::vector<std::atomic<uint8_t>> resolved(kMaxTn + 1);
  for (auto& r : resolved) r.store(kUnresolved, std::memory_order_relaxed);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    TxnNumber last_floor = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const VisibilitySnapshot snap = vc.TakeSnapshot();
      ASSERT_EQ(snap.shard_count, 8u);
      TxnNumber min_mark = snap.watermark[0];
      for (uint32_t s = 1; s < snap.shard_count; ++s) {
        min_mark = std::min(min_mark, snap.watermark[s]);
      }
      ASSERT_EQ(snap.floor, min_mark)
          << "floor is not the fold of the vector";
      ASSERT_GE(snap.floor, last_floor) << "snapshot floor regressed";
      last_floor = snap.floor;
      // Per-shard closure: every class member at or below the shard's
      // watermark has resolved. Sample the low members of each shard
      // (full scans would make the sampler the bottleneck).
      for (uint32_t s = 0; s < snap.shard_count; ++s) {
        for (TxnNumber t = s == 0 ? 8 : s;
             t <= std::min<TxnNumber>(snap.watermark[s], kMaxTn) &&
             t <= snap.floor + 64;
             t += 8) {
          ASSERT_NE(resolved[t].load(std::memory_order_acquire),
                    kUnresolved)
              << "class " << s << " member " << t
              << " unresolved below watermark " << snap.watermark[s];
          ASSERT_TRUE(snap.Visible(t));
        }
      }
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(311 + w);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const TxnNumber tn = vc.Register(TxnId(w) + 1);
        ASSERT_LE(tn, kMaxTn);
        const uint8_t state =
            (rng.Next() & 3) == 0 ? kDiscarded : kCompleted;
        resolved[tn].store(state, std::memory_order_release);
        if (state == kDiscarded) {
          vc.Discard(tn);
        } else {
          vc.Complete(tn);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_EQ(vc.QueueSize(), 0u);
  const VisibilitySnapshot final_snap = vc.TakeSnapshot();
  EXPECT_EQ(final_snap.floor, kThreads * kPerThread);
}

// Registrations outrun completions by whole per-shard ring laps: slot
// reuse (and the drain's CAS-based slot free) must never lose or
// double-count a transaction. Two shards keep the lap count honest
// without 200k iterations.
TEST(VcSharded, WraparoundReusesSlotsAcrossManyLaps) {
  VersionControl vc(NumberingMode::kDense, /*vc_shards=*/2);
  const uint64_t total = 3 * 2 * ShardedVisibility::kShardRingSize + 17;
  for (uint64_t i = 1; i <= total; ++i) {
    const TxnNumber tn = vc.Register(1);
    EXPECT_EQ(tn, i);
    vc.Complete(tn);
    EXPECT_EQ(vc.vtnc(), i);
  }
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// A completed suffix stuck behind a still-active head must become
// visible the moment the head discards (the Figure-1 deviation, here
// "the head's class cursor advances").
TEST(VcSharded, DiscardedHeadDrainsCompletedSuffix) {
  VersionControl vc;
  const TxnNumber t1 = vc.Register(1);
  const TxnNumber t2 = vc.Register(2);
  const TxnNumber t3 = vc.Register(3);
  vc.Complete(t2);
  vc.Complete(t3);
  EXPECT_EQ(vc.vtnc(), 0u);  // t1 still active gates the folded floor
  vc.Discard(t1);
  EXPECT_EQ(vc.vtnc(), t3);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// Documented divergence from Figure 1's vtnc: the folded floor may name
// a discarded number (it installs no versions, so the visible version
// set is the same as at the completed number below it).
TEST(VcSharded, FloorMayNameDiscardedNumber) {
  VersionControl vc;
  const TxnNumber t1 = vc.Register(1);
  const TxnNumber t2 = vc.Register(2);
  vc.Complete(t1);
  EXPECT_EQ(vc.vtnc(), t1);
  vc.Discard(t2);
  EXPECT_EQ(vc.vtnc(), t2);  // the locked core would stay at t1
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// A registration a full per-class ring ahead of its class's cursor
// blocks until a slot frees, then proceeds.
TEST(VcSharded, FullShardRingBackpressuresRegister) {
  VersionControl vc(NumberingMode::kDense, /*vc_shards=*/2);
  std::vector<TxnNumber> tns;
  for (uint64_t i = 0; i < 2 * ShardedVisibility::kShardRingSize; ++i) {
    tns.push_back(vc.Register(1));
  }

  std::atomic<bool> registered{false};
  std::thread overflow([&] {
    const TxnNumber tn = vc.Register(2);
    registered.store(true, std::memory_order_release);
    vc.Complete(tn);
  });

  // Both class rings are full: the overflow registration cannot have
  // proceeded.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(registered.load(std::memory_order_acquire));

  // Resolving the oldest number of the overflow's class unblocks it.
  vc.Complete(tns.front());
  overflow.join();
  EXPECT_TRUE(registered.load());
  for (size_t i = 1; i < tns.size(); ++i) vc.Complete(tns[i]);
  EXPECT_EQ(vc.QueueSize(), 0u);
  EXPECT_EQ(vc.vtnc(), 2 * ShardedVisibility::kShardRingSize + 1);
}

// AdvanceCounterPast jumps the counter; every shard must hop the
// never-assigned range without stalling the drain, wedging
// WaitNoActiveAtOrBelow, or inflating QueueSize.
TEST(VcSharded, CounterJumpLeavesDrainableGap) {
  VersionControl vc;
  const TxnNumber t1 = vc.Register(1);
  vc.Complete(t1);
  vc.AdvanceCounterPast(100);
  EXPECT_EQ(vc.NextNumber(), 101u);
  vc.WaitNoActiveAtOrBelow(100);  // gap only: must not block
  // Unlike Figure 1's vtnc (which parks at the last COMPLETED number),
  // the folded floor walks the gap: at quiesce it reaches counter - 1
  // even though 2..100 were never assigned.
  EXPECT_EQ(vc.vtnc(), 100u);
  const TxnNumber t2 = vc.Register(2);
  EXPECT_EQ(t2, 101u);
  EXPECT_EQ(vc.QueueSize(), 1u);  // the gap is not "queued" work
  vc.Complete(t2);
  EXPECT_EQ(vc.vtnc(), t2);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// Same, with the jump landing while a transaction is in flight and the
// post-jump transaction completing FIRST — the floor must hop the gap
// only after the pre-jump prefix resolves.
TEST(VcSharded, GapDrainsOnlyAfterPrecedingPrefixResolves) {
  VersionControl vc;
  const TxnNumber t1 = vc.Register(1);
  vc.AdvanceCounterPast(50);
  const TxnNumber t2 = vc.Register(2);
  EXPECT_EQ(t2, 51u);
  vc.Complete(t2);
  EXPECT_EQ(vc.vtnc(), 0u);  // t1 active: neither gap nor t2 visible
  vc.Complete(t1);
  EXPECT_EQ(vc.vtnc(), t2);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

TEST(VcSharded, StartAtLeastWakesWhenFloorReachesTarget) {
  VersionControl vc;
  const TxnNumber t1 = vc.Register(1);
  const TxnNumber t2 = vc.Register(2);

  std::atomic<TxnNumber> got{0};
  std::thread waiter([&] {
    got.store(vc.StartAtLeast(t2), std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(std::memory_order_acquire), 0u);
  vc.Complete(t1);
  vc.Complete(t2);
  waiter.join();
  EXPECT_GE(got.load(), t2);
}

// Concurrent WaitNoActiveAtOrBelow against churning shards: the wait
// must return only once no ASSIGNED number at or below its bound is
// still unresolved (never-assigned gap members are not activity).
constexpr uint8_t kAssigned = 3;

TEST(VcSharded, WaitNoActiveAtOrBelowUnderChurn) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 2000;
  VersionControl vc;
  // AdvanceCounterPast pushes assignments past kThreads * kPerThread;
  // size generously and stop workers that run off the end.
  const uint64_t kMaxTn = 4 * kThreads * kPerThread;
  std::vector<std::atomic<uint8_t>> resolved(kMaxTn + 2);
  for (auto& r : resolved) r.store(kUnresolved, std::memory_order_relaxed);

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(7 + w);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const TxnNumber tn = vc.Register(TxnId(w) + 1);
        ASSERT_LE(tn, kMaxTn);
        resolved[tn].store(kAssigned, std::memory_order_release);
        const uint8_t state = (rng.Next() & 7) == 0 ? kDiscarded : kCompleted;
        resolved[tn].store(state, std::memory_order_release);
        if (state == kDiscarded) {
          vc.Discard(tn);
        } else {
          vc.Complete(tn);
        }
      }
    });
  }
  std::thread scanner([&] {
    Random rng(99);
    for (int i = 0; i < 200; ++i) {
      const TxnNumber sn = vc.vtnc() + 1 + rng.Uniform(16);
      vc.AdvanceCounterPast(sn);
      vc.WaitNoActiveAtOrBelow(sn);
      const TxnNumber bound = std::min<TxnNumber>(sn, kMaxTn);
      for (TxnNumber t = 1; t <= bound; ++t) {
        ASSERT_NE(resolved[t].load(std::memory_order_acquire), kAssigned)
            << "tn " << t << " still active after WaitNoActiveAtOrBelow("
            << sn << ")";
      }
    }
  });
  for (auto& w : workers) w.join();
  scanner.join();
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// ---- the cached-floor contract ----

// CachedFloor is a single load of the last PUBLISHED floor: it may lag
// the exact fold arbitrarily but must never lead it, and RefreshFloor
// is what moves it.
TEST(VcSharded, CachedFloorLagsAndRefreshPublishes) {
  VersionControl vc;
  for (TxnNumber i = 1; i <= 10; ++i) {
    vc.Complete(vc.Register(1));
    EXPECT_LE(vc.CachedFloor(), vc.vtnc());
  }
  EXPECT_EQ(vc.vtnc(), 10u);   // exact fold sees everything
  EXPECT_LE(vc.CachedFloor(), 10u);
  EXPECT_EQ(vc.RefreshFloor(), 10u);
  EXPECT_EQ(vc.CachedFloor(), 10u);  // now published
  // Monotone even if a stale refresher loses the race (single-threaded
  // here, but the API contract is CAS-max).
  EXPECT_EQ(vc.RefreshFloor(), 10u);
  EXPECT_EQ(vc.CachedFloor(), 10u);
}

// RecoverTo restores counters after crash recovery: next Register gets
// last_committed + 1 and the floor (cached and exact) starts there.
TEST(VcSharded, RecoverToRestoresCountersAndFloor) {
  VersionControl vc;
  vc.RecoverTo(1000);
  EXPECT_EQ(vc.NextNumber(), 1001u);
  EXPECT_EQ(vc.vtnc(), 1000u);
  EXPECT_EQ(vc.CachedFloor(), 1000u);
  EXPECT_EQ(vc.QueueSize(), 0u);
  const TxnNumber tn = vc.Register(1);
  EXPECT_EQ(tn, 1001u);
  vc.Complete(tn);
  EXPECT_EQ(vc.vtnc(), 1001u);
  EXPECT_EQ(vc.QueueSize(), 0u);
}

// ---- core routing ----

// The numbering mode alone picks the core. kDense runs the sharded
// core; kSiteTagged pins the locked (map) core, because Promote — 2PC
// number agreement — moves an entry to a non-dense global number the
// sharded core cannot index.
TEST(VcSharded, NumberingModePicksCore) {
  VersionControl dense;
  EXPECT_STREQ(dense.core_name(), "sharded");
  EXPECT_EQ(dense.ShardCount(), ShardedVisibility::kDefaultShards);

  VersionControl site(NumberingMode::kSiteTagged, /*vc_shards=*/8);
  EXPECT_STREQ(site.core_name(), "locked");
  EXPECT_EQ(site.ShardCount(), 1u);
  // Promote works through the facade on the site core (2PC number
  // agreement only ever moves forward in serial order).
  const TxnNumber proposed = site.Register(1, /*tiebreak=*/7);
  const TxnNumber agreed = proposed + 1000;
  site.Promote(proposed, agreed);
  site.Complete(agreed);
  EXPECT_EQ(site.vtnc(), agreed);
}

// The literal-Figure-1 knob swaps a kDense instance onto the locked
// core (the stalled-suffix observable is defined on the map queue); it
// must be set before any registration.
TEST(VcSharded, LiteralFigure1KnobSwitchesToLockedCore) {
  VersionControl vc;
  vc.SetLiteralFigure1DiscardForTest(true);
  EXPECT_STREQ(vc.core_name(), "locked");
  const TxnNumber t1 = vc.Register(1);
  const TxnNumber t2 = vc.Register(2);
  vc.Complete(t2);
  vc.Discard(t1);               // literal discard: no head drain
  EXPECT_EQ(vc.vtnc(), 0u);     // the known stall the oracle catches
  EXPECT_EQ(vc.QueueSize(), 1u);
}

// ---- Database integration ----

// A full Database on the sharded core: read-write commits, snapshot
// reads carrying the watermark vector, inline + explicit GC.
TEST(VcSharded, DatabaseRunsOnShardedCore) {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 32;
  opts.enable_gc = true;
  Database db(opts);
  ASSERT_STREQ(db.version_control().core_name(), "sharded");
  ASSERT_GT(db.version_control().ShardCount(), 1u);

  for (int round = 0; round < 8; ++round) {
    auto rw = db.Begin(TxnClass::kReadWrite);
    ASSERT_TRUE(rw->Write(round % 32, "r" + std::to_string(round)).ok());
    ASSERT_TRUE(rw->Commit().ok());

    auto ro = db.Begin(TxnClass::kReadOnly);
    // The begin-time snapshot is the watermark vector, folded.
    const VisibilitySnapshot& snap = ro->snapshot();
    EXPECT_EQ(snap.shard_count, db.version_control().ShardCount());
    EXPECT_EQ(ro->start_number(), snap.floor);
    Result<Value> v = ro->Read(round % 32);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "r" + std::to_string(round));
    ASSERT_TRUE(ro->Commit().ok());
  }

  // Overwrites above left garbage; the collector's batch-refreshed
  // floor must reclaim it.
  for (int i = 0; i < 4; ++i) {
    auto rw = db.Begin(TxnClass::kReadWrite);
    ASSERT_TRUE(rw->Write(0, "again" + std::to_string(i)).ok());
    ASSERT_TRUE(rw->Commit().ok());
  }
  db.gc()->RunOnce();
  EXPECT_GT(db.gc()->floor_refreshes(), 0u);

  auto check = db.Begin(TxnClass::kReadOnly);
  Result<Value> v = check->Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "again3");
  check->Commit();
}

// BeginReadOnlyAtLeast (the Section 6 currency fix) on the sharded
// core: blocks until the folded floor reaches the target.
TEST(VcSharded, BeginReadOnlyAtLeastOnShardedCore) {
  DatabaseOptions opts;
  opts.preload_keys = 4;
  Database db(opts);

  auto rw = db.Begin(TxnClass::kReadWrite);
  ASSERT_TRUE(rw->Write(1, "current").ok());
  ASSERT_TRUE(rw->Commit().ok());
  const TxnNumber tn = rw->txn_number();

  auto ro = db.BeginReadOnlyAtLeast(tn);
  EXPECT_GE(ro->start_number(), tn);
  Result<Value> v = ro->Read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "current");
  ro->Commit();
}

// ---- the shared commit pipeline ----

// Concurrent committers through one Database: every commit's batch is
// durable (in the WAL) and the group-commit accounting holds —
// batches_logged equals the number of logged commits while
// groups_flushed never exceeds it (their gap is the batching win).
TEST(VcSharded, PipelineGroupCommitDurableBeforeVisible) {
  DatabaseOptions opts;
  opts.protocol = ProtocolKind::kVc2pl;
  opts.preload_keys = 64;
  opts.enable_wal = true;
  Database db(opts);

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 200;
  std::atomic<uint64_t> commits{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(1234 + w);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = db.Begin(TxnClass::kReadWrite);
        bool ok = txn->Write(rng.Uniform(64), "v").ok() &&
                  txn->Write(rng.Uniform(64), "w").ok();
        if (ok && txn->Commit().ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const uint64_t committed = commits.load();
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(db.commit_pipeline().batches_logged(), committed);
  EXPECT_LE(db.commit_pipeline().groups_flushed(),
            db.commit_pipeline().batches_logged());
  EXPECT_GE(db.commit_pipeline().groups_flushed(), 1u);

  // Write-ahead-of-visibility at quiesce: every committed tn at or
  // below vtnc has its batch in the log, exactly once.
  const TxnNumber vtnc = db.version_control().vtnc();
  std::vector<uint64_t> seen;
  auto logged = db.wal()->Batches();
  ASSERT_TRUE(logged.ok());
  for (const CommitBatch& b : *logged) {
    EXPECT_LE(b.tn, vtnc);
    seen.push_back(b.tn);
  }
  EXPECT_EQ(seen.size(), committed);
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
      << "duplicate batch tn in the WAL";
}

// All four VC protocols route their epilogue through the pipeline; a
// sequential sanity pass over each must log through it.
TEST(VcSharded, EveryVcProtocolLogsThroughThePipeline) {
  for (ProtocolKind protocol :
       {ProtocolKind::kVc2pl, ProtocolKind::kVcTo, ProtocolKind::kVcOcc,
        ProtocolKind::kVcAdaptive}) {
    DatabaseOptions opts;
    opts.protocol = protocol;
    opts.preload_keys = 8;
    opts.enable_wal = true;
    Database db(opts);
    uint64_t committed = 0;
    for (int i = 0; i < 20; ++i) {
      auto txn = db.Begin(TxnClass::kReadWrite);
      if (txn->Write(i % 8, "x").ok() && txn->Commit().ok()) ++committed;
    }
    EXPECT_GT(committed, 0u) << ProtocolKindName(protocol);
    EXPECT_EQ(db.commit_pipeline().batches_logged(), committed)
        << ProtocolKindName(protocol);
    EXPECT_EQ(db.wal()->Batches()->size(), committed)
        << ProtocolKindName(protocol);
  }
}

// ---- schedule exploration with the watermark-vector oracle ----

// Schedule exploration with the WAL on (and no crash injection): the
// scheduler interleaves tasks at "pipeline.enqueue" so real multi-batch
// groups form, and every execution is checked by the full oracle stack
// (MVSG one-copy serializability, the Section 5.1 lemmas, vtnc
// invariants, read-only wait-freedom, the watermark-vector oracle).
TEST(VcSharded, ExplorerSweepOverGroupCommitPipeline) {
  for (ProtocolKind protocol :
       {ProtocolKind::kVc2pl, ProtocolKind::kVcTo, ProtocolKind::kVcOcc,
        ProtocolKind::kVcAdaptive}) {
    uint64_t total_commits = 0;
    for (uint64_t seed = 1; seed <= 15; ++seed) {
      sim::ExploreOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.enable_wal = true;
      const sim::SimReport report = sim::ExploreOnce(opt);
      ASSERT_TRUE(report.ok())
          << ProtocolKindName(protocol) << " seed " << seed << " "
          << report.Summary();
      total_commits += report.commits;
    }
    EXPECT_GT(total_commits, 15u) << ProtocolKindName(protocol);
  }
}

// Every protocol under the deterministic scheduler on the sharded core:
// the full oracle stack (MVSG, lemmas, vtnc invariants, read-only
// wait-freedom) plus the watermark-vector oracle replaying the core's
// event stream (per-shard class-order consumption of resolved numbers,
// snapshot floors monotone / below tnc / closed under completion).
TEST(VcSharded, ExplorerSweepShardedVisibility) {
  for (ProtocolKind protocol :
       {ProtocolKind::kVc2pl, ProtocolKind::kVcTo, ProtocolKind::kVcOcc,
        ProtocolKind::kVcAdaptive}) {
    uint64_t total_commits = 0;
    for (uint64_t seed = 1; seed <= 15; ++seed) {
      sim::ExploreOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      // A small shard count makes cross-class interleavings (one class
      // stalled while others drain) common within tiny schedules.
      opt.vc_shards = 4;
      const sim::SimReport report = sim::ExploreOnce(opt);
      ASSERT_TRUE(report.ok())
          << ProtocolKindName(protocol) << " seed " << seed << " "
          << report.Summary();
      total_commits += report.commits;
    }
    EXPECT_GT(total_commits, 15u) << ProtocolKindName(protocol);
  }
}

// Sharded core + WAL + group commit + gc task + currency reader, with
// crash injection on some seeds: CheckCrashRecovery brings the database
// back up on the sharded core and re-checks the vtnc invariants there.
TEST(VcSharded, ExplorerShardedWithWalCrashAndGc) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    sim::ExploreOptions opt;
    opt.seed = seed;
    opt.vc_shards = 4;
    opt.enable_wal = true;
    opt.gc_task = true;
    opt.currency_reader = true;
    if (seed % 2 == 0) opt.faults.crash_at_wal_append = 2 + seed;
    const sim::SimReport report = sim::ExploreOnce(opt);
    ASSERT_TRUE(report.ok()) << "seed " << seed << " " << report.Summary();
  }
}

// Distributed read-only begins assembling the global snapshot from the
// per-site published floors (no coordinator counter trip): still
// one-copy serializable over the merged history, sites still quiesce.
TEST(VcSharded, ExplorerDistributedGlobalSnapshotVector) {
  uint64_t total_commits = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    sim::DistExploreOptions opt;
    opt.seed = seed;
    opt.global_snapshot_vector = true;
    const sim::SimReport report = sim::ExploreDistributedOnce(opt);
    ASSERT_TRUE(report.ok()) << "seed " << seed << " " << report.Summary();
    total_commits += report.commits;
  }
  EXPECT_GT(total_commits, 10u);
}

}  // namespace
}  // namespace mvcc
