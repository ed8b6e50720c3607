#include "sim/explorer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "dist/distributed_db.h"
#include "history/serializability.h"
#include "recovery/recovery.h"
#include "repl/failover.h"
#include "repl/read_router.h"
#include "repl/replica.h"
#include "repl/replication_stream.h"
#include "vc/sharded_core.h"

namespace mvcc {
namespace sim {

namespace {

bool IsVcProtocol(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kVc2pl:
    case ProtocolKind::kVcTo:
    case ProtocolKind::kVcOcc:
    case ProtocolKind::kVcAdaptive:
      return true;
    default:
      return false;
  }
}

std::string ValueFor(int task, int txn, int op) {
  std::ostringstream out;
  out << "w" << task << ".t" << txn << ".o" << op;
  return out.str();
}

// Largest committed read-write transaction number in the history.
TxnNumber MaxCommittedTn(const std::vector<TxnRecord>& records) {
  TxnNumber max_tn = 0;
  for (const TxnRecord& r : records) {
    if (r.cls == TxnClass::kReadWrite) max_tn = std::max(max_tn, r.number);
  }
  return max_tn;
}

void CheckHistoryOracle(const History& history, SimScheduler* sched) {
  const SerializabilityVerdict verdict = CheckOneCopySerializable(history);
  if (!verdict.one_copy_serializable) {
    std::ostringstream out;
    out << "MVSG cycle among committed transactions:";
    for (TxnId id : verdict.cycle) out << " T" << id;
    sched->AddViolation(out.str());
  }
  for (const std::string& v : CheckLemmas(history.Records())) {
    sched->AddViolation("lemma: " + v);
  }
}

// After every task has quiesced (including forced teardown — aborts run
// through the normal Discard path), version control must have drained:
// no registered transaction is left and visibility has caught up with
// every committed transaction.
void CheckVcQuiesced(VersionControl& vc, TxnNumber max_committed_tn,
                     const char* label, SimScheduler* sched) {
  if (vc.QueueSize() != 0) {
    std::ostringstream out;
    out << label << ": VCQueue not drained at quiesce (size "
        << vc.QueueSize() << ", vtnc " << vc.vtnc() << ")";
    sched->AddViolation(out.str());
  }
  if (vc.vtnc() < max_committed_tn) {
    std::ostringstream out;
    out << label << ": vtnc stalled at " << vc.vtnc()
        << " below committed tn " << max_committed_tn;
    sched->AddViolation(out.str());
  }
  if (vc.vtnc() >= vc.NextNumber()) {
    std::ostringstream out;
    out << label << ": vtnc " << vc.vtnc() << " >= tnc "
        << vc.NextNumber();
    sched->AddViolation(out.str());
  }
}

// The WAL crashed mid-run: the surviving log is an exact prefix of the
// append sequence. Recovery from that prefix must reproduce exactly the
// replay of those batches — and the recovered database must be
// serviceable for new transactions.
void CheckCrashRecovery(const ExploreOptions& options,
                        const DatabaseOptions& dopt, WriteAheadLog* wal,
                        SimScheduler* sched) {
  Result<std::vector<CommitBatch>> batches = wal->Batches();
  if (!batches.ok()) {
    sched->AddViolation("crash recovery: log unreadable: " +
                        batches.status().ToString());
    return;
  }
  std::unique_ptr<Database> recovered =
      RecoverDatabase(dopt, /*checkpoint=*/nullptr, *batches);

  // Expected post-recovery image: per key, the write of the largest
  // durable tn (versions install in tn order), else the preload value.
  std::map<ObjectKey, std::pair<TxnNumber, Value>> expected;
  for (const CommitBatch& batch : *batches) {
    for (const LoggedWrite& w : batch.writes) {
      auto& slot = expected[w.key];
      if (batch.tn >= slot.first) slot = {batch.tn, w.value};
    }
  }
  for (ObjectKey key = 0; key < options.keys; ++key) {
    auto it = expected.find(key);
    const Value want =
        it == expected.end() ? dopt.initial_value : it->second.second;
    Result<Value> got = recovered->Get(key);
    if (!got.ok() || *got != want) {
      std::ostringstream out;
      out << "crash recovery: key " << key << " expected '" << want
          << "' got "
          << (got.ok() ? "'" + *got + "'" : got.status().ToString());
      sched->AddViolation(out.str());
    }
  }
  const TxnNumber durable = wal->MaxTn();
  if (recovered->version_control().vtnc() < durable) {
    std::ostringstream out;
    out << "crash recovery: vtnc " << recovered->version_control().vtnc()
        << " below last durable tn " << durable;
    sched->AddViolation(out.str());
  }
  CheckVcQuiesced(recovered->version_control(), durable, "recovered",
                  sched);
  // Serviceability: the recovered database accepts new transactions.
  if (!recovered->Put(0, "post-recovery").ok()) {
    sched->AddViolation("crash recovery: post-recovery write failed");
  } else {
    Result<Value> reread = recovered->Get(0);
    if (!reread.ok() || *reread != "post-recovery") {
      sched->AddViolation("crash recovery: post-recovery write invisible");
    }
  }
}

// Watermark-vector oracle for the sharded visibility core. Fed every
// SimObserve event through SimScheduler::Options::observe_listener, it
// replays the core's own event stream against the closure discipline
// that makes a snapshot vector equivalent to a legal scalar vtnc
// history:
//
//   - "vc.register"(tn, _): tn assigned exactly once, becomes active.
//   - "sharded.resolve"(tn, _): tn was assigned and resolves exactly
//     once (Complete or Discard), leaves the active set.
//   - "sharded.next"(n, K): shard n&(K-1) consumed n — n must be the
//     shard's expected class member (starting at the class residue,
//     stepping by K) and must already be resolved. This is the
//     per-shard closure: watermark[s] only ever names a prefix of
//     class s whose members all resolved.
//   - "sharded.gap"(target, K): the shard cursor jumped a never-
//     assigned counter range; resync the expected member to `target`
//     (forward only).
//   - "sharded.snapshot"(floor, tnc): the folded floor must stay below
//     tnc, advance monotonically per core, and be closed under
//     completion — no assigned-but-unresolved number at or below it.
//     Together with the per-shard check this pins the vector to some
//     legal scalar history: a scalar vtnc could have walked 1..floor in
//     number order, because every one of those numbers is resolved or
//     never assigned.
//
// Events run under the scheduler's one-task-at-a-time discipline, so
// plain containers are race-free here.
class WatermarkVectorOracle {
 public:
  void OnEvent(const void* source, const char* what, uint64_t a,
               uint64_t b) {
    if (std::strncmp(what, "vc.register", 11) == 0) {
      State& st = sources_[source];
      if (!st.assigned.insert(a).second) {
        Violation() << "number " << a << " assigned twice";
      }
      st.active.insert(a);
      return;
    }
    if (std::strncmp(what, "sharded.", 8) != 0) return;
    State& st = sources_[source];
    const char* kind = what + 8;
    if (std::strcmp(kind, "resolve") == 0) {
      if (st.assigned.count(a) == 0) {
        Violation() << "resolve of never-assigned number " << a;
      }
      if (!st.resolved.insert(a).second) {
        Violation() << "number " << a << " resolved twice";
      }
      st.active.erase(a);
    } else if (std::strcmp(kind, "next") == 0) {
      const uint64_t shard = a & (b - 1);
      auto [it, fresh] =
          st.expected.try_emplace(shard, shard == 0 ? b : shard);
      (void)fresh;
      if (a != it->second) {
        Violation() << "shard " << shard << " consumed " << a
                    << " out of class order (expected " << it->second
                    << ")";
      }
      if (st.resolved.count(a) == 0) {
        Violation() << "shard " << shard
                    << " watermark advanced past unresolved number " << a;
      }
      it->second = a + b;
    } else if (std::strcmp(kind, "gap") == 0) {
      const uint64_t shard = a & (b - 1);
      auto [it, fresh] =
          st.expected.try_emplace(shard, shard == 0 ? b : shard);
      if (!fresh && a < it->second) {
        Violation() << "shard " << shard << " gap jump moved cursor"
                    << " backwards from " << it->second << " to " << a;
      } else {
        it->second = a;
      }
    } else if (std::strcmp(kind, "snapshot") == 0) {
      if (a >= b) {
        Violation() << "snapshot floor " << a << " not below tnc " << b;
      }
      if (st.saw_snapshot && a < st.last_floor) {
        Violation() << "snapshot floor regressed from " << st.last_floor
                    << " to " << a;
      }
      st.saw_snapshot = true;
      st.last_floor = a;
      if (!st.active.empty() && *st.active.begin() <= a) {
        Violation() << "snapshot floor " << a
                    << " not closed under completion: number "
                    << *st.active.begin() << " assigned but unresolved";
      }
    }
  }

  // Appends the (capped) buffered violations to the report. Called
  // after Run() — AddViolation takes the scheduler lock, which the
  // listener must not do mid-schedule.
  void Report(SimScheduler* sched) {
    for (const std::string& v : violations_) {
      sched->AddViolation("watermark oracle: " + v);
    }
    if (dropped_ > 0) {
      sched->AddViolation("watermark oracle: " + std::to_string(dropped_) +
                          " further violations dropped");
    }
  }

  bool saw_snapshot() const {
    for (const auto& [source, st] : sources_) {
      if (st.saw_snapshot) return true;
    }
    return false;
  }

 private:
  struct State {
    std::unordered_set<uint64_t> assigned;
    std::unordered_set<uint64_t> resolved;
    std::set<uint64_t> active;  // assigned, not yet resolved (ordered)
    std::unordered_map<uint64_t, uint64_t> expected;  // shard -> next member
    uint64_t last_floor = 0;
    bool saw_snapshot = false;
  };

  // One buffered violation line, flushed to the oracle on destruction.
  // The buffer is capped so a systemic bug in a long schedule cannot
  // flood the report.
  class Line {
   public:
    explicit Line(WatermarkVectorOracle* oracle) : oracle_(oracle) {}
    Line(Line&& other) : oracle_(other.oracle_) { other.oracle_ = nullptr; }
    Line(const Line&) = delete;
    template <typename T>
    Line& operator<<(const T& v) {
      out_ << v;
      return *this;
    }
    ~Line() {
      if (oracle_ == nullptr) return;
      if (oracle_->violations_.size() >= 16) {
        ++oracle_->dropped_;
      } else {
        oracle_->violations_.push_back(out_.str());
      }
    }

   private:
    WatermarkVectorOracle* oracle_;
    std::ostringstream out_;
  };

  Line Violation() { return Line(this); }

  std::unordered_map<const void*, State> sources_;
  std::vector<std::string> violations_;
  uint64_t dropped_ = 0;
};

}  // namespace

uint64_t DeriveTaskSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SimReport ExploreOnce(const ExploreOptions& options) {
  DatabaseOptions dopt;
  dopt.protocol = options.protocol;
  dopt.preload_keys = options.keys;
  dopt.record_history = true;
  dopt.deadlock_policy = options.deadlock_policy;
  dopt.enable_wal =
      options.enable_wal || options.faults.crash_at_wal_append >= 0;
  // The gc task drives GarbageCollector::RunOnce directly; the
  // collector only exists when enable_gc is on (no background thread is
  // started — the sim owns the cadence).
  dopt.enable_gc = options.gc_task;
  dopt.vc_shards = options.vc_shards;
  // Reclamation events feed the schedule hash, and the epoch manager is
  // process-global: leftovers retired by a previous run (or test) would
  // shift this run's retire-threshold advances and expired counts —
  // both the gc task's explicit Advance calls and the auto-advance
  // inside Retire once index inserts start splitting COW nodes. Start
  // every run from a drained retire list so same-seed replays see
  // identical reclamation interleavings. (No hook is installed yet, so
  // these advances hash nothing.)
  for (int i = 0; i < 4; ++i) EpochManager::Global().Advance();
  Database db(dopt);
  if (options.literal_figure1_discard) {
    db.version_control().SetLiteralFigure1DiscardForTest(true);
  }

  SimScheduler::Options sopt;
  sopt.seed = options.seed;
  sopt.max_steps = options.max_steps;
  sopt.faults = options.faults;
  // Gate on the core actually in use: the literal-Figure-1 knob above
  // swaps the run onto the locked core, which emits no sharded events.
  const bool sharded = dynamic_cast<const ShardedVisibility*>(
                           db.version_control().source()) != nullptr;
  WatermarkVectorOracle wm_oracle;
  if (sharded) {
    sopt.observe_listener = [&wm_oracle](const void* source,
                                         const char* what, uint64_t a,
                                         uint64_t b) {
      wm_oracle.OnEvent(source, what, a, b);
    };
  }
  SimScheduler sched(sopt);

  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<TxnNumber> first_commit_tn{0};
  std::atomic<int> writers_done{0};

  // Phantom-freedom oracle state (insert_fraction > 0). Writers insert
  // fresh keys into a small zone just above the preload so reader scans
  // actually cross them; readers log every scan's (sn, window, keys)
  // for the post-run check against the committed history.
  const ObjectKey insert_zone =
      options.insert_fraction > 0 ? std::max<ObjectKey>(options.keys, 4) : 0;
  struct ScanObservation {
    TxnNumber sn;
    ObjectKey lo;
    ObjectKey hi;
    std::vector<ObjectKey> keys;
  };
  std::mutex scan_obs_mu;
  std::vector<ScanObservation> scan_obs;

  for (int w = 0; w < options.writer_tasks; ++w) {
    sched.Spawn(
        "writer" + std::to_string(w), /*expect_wait_free=*/false,
        [&, w] {
          Random rng(DeriveTaskSeed(options.seed, 0x100 + w));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            auto txn = db.Begin(TxnClass::kReadWrite);
            bool doomed = false;
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              if (options.insert_fraction > 0 &&
                  rng.Bernoulli(options.insert_fraction)) {
                // Fresh-key insert: first committed writer of the key is
                // its creator (later landings are plain updates — the
                // oracle takes the MINIMUM committed tn per key).
                const ObjectKey fresh =
                    options.keys + rng.Uniform(insert_zone);
                if (!txn->Write(fresh, ValueFor(w, t, op)).ok()) {
                  doomed = true;
                  break;
                }
                continue;
              }
              const ObjectKey key = rng.Uniform(options.keys);
              if (rng.Bernoulli(options.write_fraction)) {
                if (!txn->Write(key, ValueFor(w, t, op)).ok()) {
                  doomed = true;
                  break;
                }
              } else if (!txn->Read(key).ok()) {
                doomed = true;
                break;
              }
            }
            if (doomed || !txn->active()) {
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (rng.Bernoulli(options.user_abort_probability)) {
              txn->Abort();
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (txn->Commit().ok()) {
              commits.fetch_add(1, std::memory_order_relaxed);
              TxnNumber expected = 0;
              first_commit_tn.compare_exchange_strong(expected,
                                                      txn->txn_number());
            } else {
              aborts.fetch_add(1, std::memory_order_relaxed);
            }
          }
          writers_done.fetch_add(1, std::memory_order_release);
        });
  }

  // Figure 2 read-only transactions: under the VC protocols these must
  // be wait-free — a single BlockedPoint is an invariant violation.
  const bool wait_free_readers = IsVcProtocol(options.protocol);
  for (int r = 0; r < options.reader_tasks; ++r) {
    sched.Spawn(
        "reader" + std::to_string(r), wait_free_readers, [&, r] {
          Random rng(DeriveTaskSeed(options.seed, 0x200 + r));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            auto txn = db.Begin(TxnClass::kReadOnly);
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              if (rng.Bernoulli(options.scan_fraction)) {
                // With inserts in play the window spans preload AND
                // insert zone, so scans race the index restructuring.
                const ObjectKey span = options.keys + insert_zone;
                const ObjectKey lo = rng.Uniform(span);
                const ObjectKey hi = std::min<ObjectKey>(
                    lo + (insert_zone > 0 ? 7 : 3), span - 1);
                Result<std::vector<std::pair<ObjectKey, Value>>> rows =
                    txn->Scan(lo, hi);
                if (!rows.ok()) {
                  sched.AddViolation("read-only snapshot scan failed");
                } else if (options.insert_fraction > 0) {
                  ScanObservation obs{txn->start_number(), lo, hi, {}};
                  obs.keys.reserve(rows->size());
                  for (const auto& [k, v] : *rows) obs.keys.push_back(k);
                  std::lock_guard<std::mutex> guard(scan_obs_mu);
                  scan_obs.push_back(std::move(obs));
                }
              } else if (!txn->Read(rng.Uniform(options.keys)).ok()) {
                sched.AddViolation("read-only snapshot read failed");
              }
            }
            txn->Commit();
          }
        });
  }

  if (options.gc_task) {
    sched.Spawn("gc", /*expect_wait_free=*/false, [&] {
      // One reclamation pass per turn until the writers quiesce, then a
      // final pass over whatever they left behind. RunOnce never yields
      // internally (its SimObserve points — chain.republish and
      // ebr.advance — are observe-only), so each pass is one atomic
      // step in the explored interleaving.
      while (writers_done.load(std::memory_order_acquire) <
             options.writer_tasks) {
        db.gc()->RunOnce();
        SimSchedulePoint("task.gc");
      }
      db.gc()->RunOnce();
    });
  }

  if (options.currency_reader) {
    sched.Spawn("currency", /*expect_wait_free=*/false, [&] {
      // Wait (blocking is expected here) for the first commit, then
      // demand a snapshot at least that current (Section 6).
      while (first_commit_tn.load(std::memory_order_acquire) == 0 &&
             writers_done.load(std::memory_order_acquire) <
                 options.writer_tasks) {
        SimBlockedPoint("task.currency_poll");
      }
      const TxnNumber target =
          first_commit_tn.load(std::memory_order_acquire);
      if (target == 0) return;  // nothing ever committed
      auto txn = db.BeginReadOnlyAtLeast(target);
      if (txn->start_number() < target) {
        std::ostringstream out;
        out << "currency: BeginReadOnlyAtLeast(" << target
            << ") returned snapshot " << txn->start_number();
        sched.AddViolation(out.str());
      }
      txn->Read(0);
      txn->Commit();
    });
  }

  sched.Run();

  SimReport& report = sched.report();
  report.commits = commits.load();
  report.aborts = aborts.load();

  const std::vector<TxnRecord> records = db.history()->Records();
  CheckHistoryOracle(*db.history(), &sched);
  CheckVcQuiesced(db.version_control(), MaxCommittedTn(records), "vc",
                  &sched);
  if (options.insert_fraction > 0) {
    // Phantom-freedom oracle. Ground truth: a key's creation tn is the
    // MINIMUM committed transaction number that ever wrote it (aborted
    // writers are absent from the history by the Section 3 model, and
    // their index entries hold no committed version — invisible to any
    // snapshot). Preloaded keys exist from tn 0.
    std::unordered_map<ObjectKey, TxnNumber> creation;
    for (ObjectKey k = 0; k < options.keys; ++k) creation[k] = 0;
    for (const TxnRecord& rec : records) {
      for (const RecordedWrite& w : rec.writes) {
        auto [it, inserted] = creation.try_emplace(w.key, rec.number);
        if (!inserted) it->second = std::min(it->second, rec.number);
      }
    }
    int reported = 0;
    auto violation = [&](std::string text) {
      if (++reported <= 8) sched.AddViolation(std::move(text));
    };
    for (const ScanObservation& obs : scan_obs) {
      std::unordered_set<ObjectKey> seen;
      ObjectKey prev = 0;
      bool first = true;
      for (ObjectKey k : obs.keys) {
        if (!first && k <= prev) {
          violation("scan oracle: keys not strictly ascending at sn " +
                    std::to_string(obs.sn));
        }
        first = false;
        prev = k;
        seen.insert(k);
        auto it = creation.find(k);
        if (it == creation.end()) {
          // Observed but never committed by anyone: the scan surfaced
          // an uncommitted (or nonexistent) object.
          violation("phantom: scan at sn " + std::to_string(obs.sn) +
                    " observed key " + std::to_string(k) +
                    " with no committed creator");
        } else if (it->second > obs.sn) {
          violation("phantom: scan at sn " + std::to_string(obs.sn) +
                    " observed key " + std::to_string(k) +
                    " created at tn " + std::to_string(it->second));
        }
      }
      // Completeness: everything committed at or below sn inside the
      // window must have been returned (no delete in the model, so a
      // created key never disappears).
      for (const auto& [k, ctn] : creation) {
        if (k >= obs.lo && k <= obs.hi && ctn <= obs.sn &&
            seen.count(k) == 0) {
          violation("scan oracle: scan [" + std::to_string(obs.lo) + "," +
                    std::to_string(obs.hi) + "] at sn " +
                    std::to_string(obs.sn) + " missed key " +
                    std::to_string(k) + " created at tn " +
                    std::to_string(ctn));
        }
      }
    }
    if (options.reader_tasks > 0 && options.scan_fraction > 0 &&
        scan_obs.empty()) {
      sched.AddViolation("scan oracle: no scan observation recorded");
    }
  }
  if (sharded) {
    wm_oracle.Report(&sched);
    if (options.reader_tasks > 0 && !wm_oracle.saw_snapshot()) {
      // The oracle is only meaningful if the sharded snapshot path
      // actually ran; readers on the sharded core must hit it.
      sched.AddViolation(
          "watermark oracle: no sharded snapshot event observed");
    }
  }
  if (report.wal_crashed) {
    // dopt carries vc_shards, so the recovered database comes back up on
    // the same sharded visibility core.
    CheckCrashRecovery(options, dopt, db.wal(), &sched);
  }
  return report;
}

SimReport ExploreDistributedOnce(const DistExploreOptions& options) {
  DistributedDb::Options dbopt;
  dbopt.num_sites = options.sites;
  dbopt.preload_keys = options.keys;
  dbopt.record_history = true;
  dbopt.global_snapshot_vector = options.global_snapshot_vector;
  DistributedDb db(dbopt);

  SimScheduler::Options sopt;
  sopt.seed = options.seed;
  sopt.max_steps = options.max_steps;
  sopt.faults = options.faults;
  SimScheduler sched(sopt);

  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};

  for (int w = 0; w < options.writer_tasks; ++w) {
    sched.Spawn(
        "dwriter" + std::to_string(w), /*expect_wait_free=*/false,
        [&, w] {
          Random rng(DeriveTaskSeed(options.seed, 0x300 + w));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            const int home = static_cast<int>(rng.Uniform(options.sites));
            auto txn = db.Begin(TxnClass::kReadWrite, home);
            bool doomed = false;
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              const ObjectKey key = rng.Uniform(options.keys);
              if (rng.Bernoulli(options.write_fraction)) {
                if (!txn->Write(key, ValueFor(w, t, op)).ok()) {
                  doomed = true;
                  break;
                }
              } else if (!txn->Read(key).ok()) {
                doomed = true;
                break;
              }
            }
            if (doomed || !txn->active()) {
              if (txn->active()) txn->Abort();
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (txn->Commit().ok()) {
              commits.fetch_add(1, std::memory_order_relaxed);
            } else {
              aborts.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
  }

  // Distributed read-only transactions may wait briefly at a site for
  // registered-but-committing writers (WaitNoActiveAtOrBelow), so they
  // are not flagged wait-free; they still never deadlock or abort.
  for (int r = 0; r < options.reader_tasks; ++r) {
    sched.Spawn(
        "dreader" + std::to_string(r), /*expect_wait_free=*/false,
        [&, r] {
          Random rng(DeriveTaskSeed(options.seed, 0x400 + r));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            const int home = static_cast<int>(rng.Uniform(options.sites));
            auto txn = db.Begin(TxnClass::kReadOnly, home);
            bool lost = false;
            for (int op = 0; op < options.ops_per_txn && !lost; ++op) {
              SimSchedulePoint("task.op");
              if (rng.Bernoulli(options.scan_fraction)) {
                const ObjectKey lo = rng.Uniform(options.keys);
                const ObjectKey hi =
                    std::min<ObjectKey>(lo + 3, options.keys - 1);
                lost = !txn->Scan(lo, hi).ok();
              } else {
                lost = !txn->Read(rng.Uniform(options.keys)).ok();
              }
            }
            // A lost message surfaces as Unavailable; the read-only
            // transaction simply gives up (it holds no locks anywhere).
            if (lost) {
              txn->Abort();
            } else {
              txn->Commit();
            }
          }
        });
  }

  sched.Run();

  SimReport& report = sched.report();
  report.commits = commits.load();
  report.aborts = aborts.load();

  const std::vector<TxnRecord> records = db.history()->Records();
  CheckHistoryOracle(*db.history(), &sched);

  // Per-site quiesce: queues drained, and each site that participated in
  // a committed transaction has made it visible (its promoted number
  // completed there, so the site vtnc must have reached it).
  for (int s = 0; s < db.num_sites(); ++s) {
    TxnNumber max_tn_here = 0;
    for (const TxnRecord& rec : records) {
      if (rec.cls != TxnClass::kReadWrite) continue;
      bool touches = false;
      for (const RecordedWrite& wr : rec.writes) {
        if (db.SiteOf(wr.key) == s) touches = true;
      }
      for (const RecordedRead& rd : rec.reads) {
        if (db.SiteOf(rd.key) == s) touches = true;
      }
      if (touches) max_tn_here = std::max(max_tn_here, rec.number);
    }
    const std::string label = "site" + std::to_string(s);
    CheckVcQuiesced(db.site(s).version_control(), max_tn_here,
                    label.c_str(), &sched);
  }

  // 2PC atomicity: every committed transaction's writes are visible at
  // their owning sites at snapshot tn — a site that missed phase 2 would
  // still expose the predecessor version.
  for (const TxnRecord& rec : records) {
    if (rec.cls != TxnClass::kReadWrite) continue;
    for (const RecordedWrite& wr : rec.writes) {
      Site& site = db.site(db.SiteOf(wr.key));
      Result<VersionRead> got = site.SnapshotRead(rec.number, wr.key);
      if (!got.ok() || got->version != rec.number) {
        std::ostringstream out;
        out << "2PC atomicity: T" << rec.id << " committed tn "
            << rec.number << " but key " << wr.key << " at site "
            << db.SiteOf(wr.key) << " shows "
            << (got.ok() ? std::to_string(got->version)
                         : got.status().ToString());
        sched.AddViolation(out.str());
      }
    }
  }
  return report;
}

SimReport ExploreReplicationOnce(const ReplExploreOptions& options) {
  DatabaseOptions dopt;
  dopt.protocol = options.protocol;
  dopt.preload_keys = options.keys;
  dopt.record_history = true;
  dopt.enable_wal = true;  // the stream tails the log
  Database db(dopt);

  SimulatedNetwork network;
  std::vector<std::unique_ptr<repl::Replica>> replica_owner;
  std::vector<repl::Replica*> replicas;
  for (int i = 0; i < options.replicas; ++i) {
    replica_owner.push_back(
        std::make_unique<repl::Replica>(i, &network, db.history()));
    replicas.push_back(replica_owner.back().get());
  }
  repl::ReplicationStream stream(&db, &network, replicas);
  repl::ReadRouter router(&db, replicas, options.staleness_budget);

  SimScheduler::Options sopt;
  sopt.seed = options.seed;
  sopt.max_steps = options.max_steps;
  sopt.faults = options.faults;
  // The primary must survive the run: convergence is checked against its
  // final state. Replica crashes are injected by the chaos task instead.
  sopt.faults.crash_at_wal_append = -1;
  SimScheduler sched(sopt);

  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<int> writers_done{0};
  std::atomic<bool> chaos_done{options.replica_crashes == 0 &&
                               options.wal_truncations == 0};
  std::atomic<bool> repl_done{false};

  for (int w = 0; w < options.writer_tasks; ++w) {
    sched.Spawn(
        "writer" + std::to_string(w), /*expect_wait_free=*/false,
        [&, w] {
          Random rng(DeriveTaskSeed(options.seed, 0x100 + w));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            auto txn = db.Begin(TxnClass::kReadWrite);
            bool doomed = false;
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              const ObjectKey key = rng.Uniform(options.keys);
              if (rng.Bernoulli(options.write_fraction)) {
                if (!txn->Write(key, ValueFor(w, t, op)).ok()) {
                  doomed = true;
                  break;
                }
              } else if (!txn->Read(key).ok()) {
                doomed = true;
                break;
              }
            }
            if (doomed || !txn->active()) {
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (rng.Bernoulli(options.user_abort_probability)) {
              txn->Abort();
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (txn->Commit().ok()) {
              commits.fetch_add(1, std::memory_order_relaxed);
            } else {
              aborts.fetch_add(1, std::memory_order_relaxed);
            }
          }
          writers_done.fetch_add(1, std::memory_order_release);
        });
  }

  // Routed read-only transactions must be wait-free wherever they land:
  // replica-served reads are pure snapshot reads, and primary fallback is
  // the Figure 2 path.
  const bool wait_free_readers = IsVcProtocol(options.protocol);
  for (int r = 0; r < options.reader_tasks; ++r) {
    sched.Spawn(
        "rreader" + std::to_string(r), wait_free_readers, [&, r] {
          Random rng(DeriveTaskSeed(options.seed, 0x200 + r));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            repl::RoutedReadTxn txn = router.Begin();
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              if (rng.Bernoulli(options.scan_fraction)) {
                const ObjectKey lo = rng.Uniform(options.keys);
                const ObjectKey hi =
                    std::min<ObjectKey>(lo + 3, options.keys - 1);
                if (!txn.Scan(lo, hi).ok()) {
                  sched.AddViolation("routed snapshot scan failed");
                }
              } else if (!txn.Read(rng.Uniform(options.keys)).ok()) {
                // Every key is preloaded, so version <= snapshot always
                // exists — on the primary AND on any seeded replica.
                sched.AddViolation("routed snapshot read failed");
              }
            }
            txn.Commit();
          }
        });
  }

  if (options.replicas > 0) {
    // Chaos: a seed-determined interleaving of replica crashes and WAL
    // truncations (each truncation under a fresh checkpoint, racing the
    // stream's tail cursor).
    if (!chaos_done.load(std::memory_order_relaxed)) {
      sched.Spawn("chaos", /*expect_wait_free=*/false, [&] {
        Random rng(DeriveTaskSeed(options.seed, 0x500));
        int crashes_left = options.replica_crashes;
        int truncations_left = options.wal_truncations;
        while ((crashes_left > 0 || truncations_left > 0) &&
               !sched.Killed()) {
          // Let the deployment make some progress between actions.
          for (uint64_t i = 0, n = 1 + rng.Uniform(4); i < n; ++i) {
            SimSchedulePoint("repl.chaos");
          }
          const bool do_crash =
              crashes_left > 0 &&
              (truncations_left == 0 || rng.Bernoulli(0.5));
          if (do_crash) {
            replicas[rng.Uniform(replicas.size())]->Crash();
            --crashes_left;
          } else {
            const Checkpoint cp = TakeCheckpoint(&db);
            db.wal()->Truncate(cp.vtnc);
            --truncations_left;
          }
        }
        chaos_done.store(true, std::memory_order_release);
      });
    }

    // Shipper: pumps until the workload and chaos are over AND every
    // replica has acknowledged everything up to the final vtnc. Each
    // pump yields non-blocked at repl.ship, which keeps the scheduler's
    // deadlock accounting live while appliers idle.
    sched.Spawn("shipper", /*expect_wait_free=*/false, [&] {
      while (!sched.Killed()) {
        stream.PumpOnce();
        if (writers_done.load(std::memory_order_acquire) ==
                options.writer_tasks &&
            chaos_done.load(std::memory_order_acquire) &&
            stream.CaughtUp()) {
          break;
        }
      }
      repl_done.store(true, std::memory_order_release);
    });

    for (int i = 0; i < options.replicas; ++i) {
      sched.Spawn("applier" + std::to_string(i),
                  /*expect_wait_free=*/false, [&, i] {
                    while (!repl_done.load(std::memory_order_acquire) &&
                           !sched.Killed()) {
                      if (replicas[i]->ApplyOnce() == 0) {
                        SimBlockedPoint("repl.apply.idle");
                      }
                    }
                  });
    }
  }

  sched.Run();

  SimReport& report = sched.report();
  report.commits = commits.load();
  report.aborts = aborts.load();

  const std::vector<TxnRecord> records = db.history()->Records();
  CheckHistoryOracle(*db.history(), &sched);
  CheckVcQuiesced(db.version_control(), MaxCommittedTn(records), "vc",
                  &sched);

  // Convergence: after quiesce every replica must have been re-seeded if
  // it crashed, reached the primary's final horizon, and hold the exact
  // primary state at that horizon — version numbers and bytes.
  if (report.violations.empty()) {
    const TxnNumber vtnc = db.version_control().vtnc();
    for (int i = 0; i < options.replicas; ++i) {
      const std::string label = "replica" + std::to_string(i);
      if (!replicas[i]->Serviceable()) {
        sched.AddViolation(label + ": not serviceable at quiesce");
        continue;
      }
      if (replicas[i]->Horizon() != vtnc) {
        sched.AddViolation(label + ": horizon " +
                           std::to_string(replicas[i]->Horizon()) +
                           " != final vtnc " + std::to_string(vtnc));
        continue;
      }
      for (ObjectKey key = 0; key < options.keys; ++key) {
        VersionChain* chain = db.store().Find(key);
        if (chain == nullptr) continue;
        const Result<VersionRead> want = chain->Read(vtnc);
        const Result<VersionRead> got = replicas[i]->SnapshotRead(vtnc, key);
        if (!want.ok() || !got.ok() || want->version != got->version ||
            want->value != got->value) {
          std::ostringstream out;
          out << label << ": key " << key << " diverged at vtnc " << vtnc
              << " (primary "
              << (want.ok() ? std::to_string(want->version)
                            : want.status().ToString())
              << ", replica "
              << (got.ok() ? std::to_string(got->version)
                           : got.status().ToString())
              << ")";
          sched.AddViolation(out.str());
        }
      }
    }
  }
  return report;
}

SimReport ExploreFailoverOnce(const FailoverExploreOptions& options) {
  repl::FailoverClusterOptions copt;
  copt.db.protocol = options.protocol;
  copt.db.preload_keys = options.keys;
  copt.db.enable_wal = true;
  copt.nodes = options.nodes;
  copt.staleness_budget = options.staleness_budget;
  copt.ack_quorum = options.ack_quorum;
  copt.miss_threshold = options.miss_threshold;

  SimulatedNetwork network;
  // Histories don't span incarnations, so the merged-history MVSG
  // oracle belongs to ExploreReplicationOnce; this explorer owns the
  // failover-specific oracles.
  repl::FailoverCluster cluster(std::move(copt), &network,
                                /*history=*/nullptr);

  SimScheduler::Options sopt;
  sopt.seed = options.seed;
  sopt.max_steps = options.max_steps;
  sopt.faults = options.faults;
  // The whole-simulation WAL/env crash plans tear down every task; here
  // the chaos task fail-stops ONE NODE instead, and the run continues
  // through the promotion.
  sopt.faults.crash_at_wal_append = -1;
  sopt.faults.crash_at_env_op = -1;
  SimScheduler sched(sopt);

  // A commit acked under fence F with write set W. The oracle: on the
  // final primary, every (key -> value) of W reads back at exactly
  // version tn.
  struct AckedCommit {
    repl::FenceEpoch fence = 0;
    TxnNumber tn = 0;
    std::map<ObjectKey, std::string> writes;
  };
  std::mutex acked_mu;
  std::vector<AckedCommit> acked;

  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> lost_acks{0};  // committed, never acked (crash)
  std::atomic<int> writers_done{0};
  std::atomic<bool> chaos_done{false};
  std::atomic<bool> coord_done{false};
  std::atomic<bool> repl_done{false};
  const bool kill_requested = options.kill_primary_after_batches >= 0;

  for (int w = 0; w < options.writer_tasks; ++w) {
    sched.Spawn(
        "fwriter" + std::to_string(w), /*expect_wait_free=*/false, [&, w] {
          Random rng(DeriveTaskSeed(options.seed, 0x700 + w));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            // Client-side failover: wait out the unavailability window
            // until a live primary rules, then submit there.
            while (!sched.Killed() &&
                   !cluster.NodeAlive(cluster.leader())) {
              SimBlockedPoint("failover.writer.wait");
            }
            if (sched.Killed()) break;
            const repl::FenceEpoch fence_at_begin = cluster.fence();
            Database* db = cluster.primary();
            auto txn = db->Begin(TxnClass::kReadWrite);
            std::map<ObjectKey, std::string> writes;
            bool doomed = false;
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              const ObjectKey key = rng.Uniform(options.keys);
              if (rng.Bernoulli(options.write_fraction)) {
                const std::string value = ValueFor(w, t, op);
                if (!txn->Write(key, value).ok()) {
                  doomed = true;
                  break;
                }
                writes[key] = value;
              } else if (!txn->Read(key).ok()) {
                doomed = true;
                break;
              }
            }
            if (doomed || !txn->active() || !txn->Commit().ok()) {
              aborts.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            commits.fetch_add(1, std::memory_order_relaxed);
            const TxnNumber tn = txn->txn_number();
            // Semi-synchronous ack: the commit is locally durable, but
            // the CLIENT only counts it once a quorum of replicas has
            // applied it — within the same fence epoch. A fence change
            // or primary death before that is a lost ack: the client
            // must assume the commit may not survive.
            bool got_ack = writes.empty();  // read-only: nothing to lose
            while (!got_ack && !sched.Killed()) {
              if (cluster.fence() != fence_at_begin) break;
              if (!cluster.NodeAlive(cluster.leader())) break;
              if (cluster.CommitAcked(tn)) {
                got_ack = true;
                break;
              }
              SimSchedulePoint("failover.await_ack");
            }
            if (got_ack && !writes.empty()) {
              std::lock_guard<std::mutex> lock(acked_mu);
              acked.push_back(
                  AckedCommit{fence_at_begin, tn, std::move(writes)});
            } else if (!got_ack) {
              lost_acks.fetch_add(1, std::memory_order_relaxed);
            }
          }
          writers_done.fetch_add(1, std::memory_order_release);
        });
  }

  const bool wait_free_readers = IsVcProtocol(options.protocol);
  for (int r = 0; r < options.reader_tasks; ++r) {
    sched.Spawn(
        "freader" + std::to_string(r), wait_free_readers, [&, r] {
          Random rng(DeriveTaskSeed(options.seed, 0x800 + r));
          for (int t = 0; t < options.txns_per_task; ++t) {
            if (sched.Killed()) break;
            repl::RoutedReadTxn txn = cluster.router()->Begin();
            for (int op = 0; op < options.ops_per_txn; ++op) {
              SimSchedulePoint("task.op");
              if (rng.Bernoulli(options.scan_fraction)) {
                const ObjectKey lo = rng.Uniform(options.keys);
                const ObjectKey hi =
                    std::min<ObjectKey>(lo + 3, options.keys - 1);
                if (!txn.Scan(lo, hi).ok()) {
                  sched.AddViolation("routed snapshot scan failed");
                }
              } else if (!txn.Read(rng.Uniform(options.keys)).ok()) {
                sched.AddViolation("routed snapshot read failed");
              }
            }
            txn.Commit();
          }
        });
  }

  // Chaos: fail-stop the primary at the swept group-commit wave index,
  // then (after the promotion) pump the deposed stream — the late wave
  // — and check the straggler CAS, then revive the old primary so the
  // demotion/resync path runs before quiesce.
  sched.Spawn("fchaos", /*expect_wait_free=*/false, [&] {
    if (!kill_requested) {
      chaos_done.store(true, std::memory_order_release);
      return;
    }
    const int old_leader = cluster.leader();
    bool killed = false;
    while (!sched.Killed()) {
      if (writers_done.load(std::memory_order_acquire) ==
          options.writer_tasks) {
        break;  // workload ended before the kill point was reached
      }
      bool any_serviceable = false;
      for (int node = 0; node < cluster.nodes(); ++node) {
        if (node != cluster.leader() &&
            cluster.replica(node)->Serviceable()) {
          any_serviceable = true;
          break;
        }
      }
      if (any_serviceable &&
          cluster.primary()->commit_pipeline().batches_logged() >=
              static_cast<uint64_t>(options.kill_primary_after_batches)) {
        killed = true;
        break;
      }
      SimSchedulePoint("failover.chaos");
    }
    if (!killed || sched.Killed()) {
      chaos_done.store(true, std::memory_order_release);
      return;
    }
    repl::ReplicationStream* old_stream = cluster.stream();
    const repl::FenceEpoch fence_before = cluster.fence();
    cluster.KillPrimary();
    // Wait for the coordinator to complete the promotion.
    while (!sched.Killed() && cluster.failovers() == 0) {
      SimSchedulePoint("failover.chaos.wait");
    }
    if (!sched.Killed() && options.late_wave_check) {
      // The deposed primary's shipper fires one more group-commit wave:
      // every record carries the old fence, every replica rejects it,
      // and the stream latches Deposed().
      for (int i = 0; i < 3 && !sched.Killed(); ++i) {
        old_stream->PumpOnce();
        SimSchedulePoint("failover.late_wave");
      }
      if (!old_stream->Deposed()) {
        sched.AddViolation(
            "late wave: deposed stream did not latch Deposed() after "
            "pumping against fenced replicas");
      }
      // Straggler promotion: a coordinator that read the PRE-failover
      // fence and races the winner must lose the epoch CAS.
      Result<repl::FenceEpoch> straggler =
          cluster.epoch_store()->AdvanceFrom(fence_before);
      if (straggler.ok()) {
        sched.AddViolation(
            "straggler promotion off stale fence " +
            std::to_string(fence_before) + " won the epoch CAS");
      } else if (!straggler.status().IsAborted()) {
        sched.AddViolation("straggler CAS failed with unexpected status " +
                           straggler.status().ToString());
      }
    }
    if (!sched.Killed() && options.revive_old_primary) {
      cluster.ReviveNode(old_leader);  // demotion: rejoin as replica
    }
    chaos_done.store(true, std::memory_order_release);
  });

  // Coordinator: heartbeats while the leader is alive, ticks while it
  // is not, and promotes once the detector fires. Retries kUnavailable
  // (no serviceable candidate yet) on later rounds.
  sched.Spawn("fcoord", /*expect_wait_free=*/false, [&] {
    while (!sched.Killed()) {
      SimSchedulePoint("failover.coord");
      if (cluster.NodeAlive(cluster.leader())) {
        cluster.detector()->Heartbeat();
      } else {
        cluster.detector()->Tick();
      }
      (void)cluster.MaybeFailover();
      if (writers_done.load(std::memory_order_acquire) ==
              options.writer_tasks &&
          chaos_done.load(std::memory_order_acquire) &&
          (!kill_requested || cluster.failovers() > 0 ||
           cluster.NodeAlive(cluster.leader()))) {
        break;
      }
    }
    coord_done.store(true, std::memory_order_release);
  });

  // Shipper: pumps whatever stream is current; a dead primary ships
  // nothing. Done when the control plane has settled and the current
  // reign's stream has fully adopted every peer.
  sched.Spawn("fshipper", /*expect_wait_free=*/false, [&] {
    while (!sched.Killed()) {
      if (cluster.NodeAlive(cluster.leader())) {
        // PumpOnce yields per peer, but a stream with ZERO live peers
        // (two-node cluster right after a failover, before the revive)
        // returns without ever reaching a schedule point — without the
        // explicit yield this task would spin the cooperative scheduler
        // forever and the revive could never run.
        if (cluster.stream()->PumpOnce() == 0) {
          SimBlockedPoint("failover.ship.empty");
        }
      } else {
        SimBlockedPoint("failover.ship.idle");
      }
      if (coord_done.load(std::memory_order_acquire) &&
          cluster.stream()->CaughtUp()) {
        break;
      }
    }
    repl_done.store(true, std::memory_order_release);
  });

  for (int node = 0; node < options.nodes; ++node) {
    sched.Spawn("fapplier" + std::to_string(node),
                /*expect_wait_free=*/false, [&, node] {
                  while (!repl_done.load(std::memory_order_acquire) &&
                         !sched.Killed()) {
                    if (cluster.replica(node)->ApplyOnce() == 0) {
                      SimBlockedPoint("repl.apply.idle");
                    }
                  }
                });
  }

  sched.Run();

  SimReport& report = sched.report();
  report.commits = commits.load();
  report.aborts = aborts.load();

  // Oracle: at-most-one-primary-per-epoch. The leadership log is the
  // full sequence of reigns; the durable CAS must have admitted them at
  // strictly increasing fences (two claims at one fence would mean two
  // primaries ruled the same epoch).
  const std::vector<repl::LeadershipEntry> reigns = cluster.LeadershipLog();
  for (size_t i = 1; i < reigns.size(); ++i) {
    if (reigns[i].fence <= reigns[i - 1].fence) {
      sched.AddViolation(
          "leadership log not strictly increasing: fence " +
          std::to_string(reigns[i].fence) + " (node " +
          std::to_string(reigns[i].node) + ") after fence " +
          std::to_string(reigns[i - 1].fence));
    }
  }
  if (kill_requested && cluster.failovers() == 0 &&
      !cluster.NodeAlive(cluster.leader())) {
    sched.AddViolation("primary killed but no failover completed");
  }

  // Oracle: no acked commit lost. On the final primary, every acked
  // write's key must carry a committed version AT OR PAST the acked tn:
  // either the acked version itself (value must match byte for byte) or
  // a later committed overwrite. Plain `Read(c.tn)` would be too
  // strong — resync checkpoints are compacting, so a replica re-seeded
  // after a later write to the same key legitimately holds only the
  // newer version. A latest-version BELOW the acked tn is the real
  // failure: the acked write vanished without a successor.
  if (report.violations.empty()) {
    Database* final_db = cluster.primary();
    const TxnNumber final_vtnc = final_db->version_control().vtnc();
    for (const AckedCommit& c : acked) {
      for (const auto& [key, value] : c.writes) {
        VersionChain* chain = final_db->store().Find(key);
        const Result<VersionRead> got =
            chain != nullptr ? chain->Read(final_vtnc)
                             : Result<VersionRead>(Status::NotFound("no chain"));
        const bool survived =
            got.ok() && (got->version > c.tn ||
                         (got->version == c.tn && got->value == value));
        if (!survived) {
          std::ostringstream out;
          out << "acked commit lost: tn " << c.tn << " (fence " << c.fence
              << ") key " << key << " expected '" << value
              << "' or a later committed overwrite, got ";
          if (got.ok()) {
            out << "version " << got->version << " '" << got->value << "'";
          } else {
            out << got.status().ToString();
          }
          sched.AddViolation(out.str());
        }
      }
    }
  }

  // Oracle: convergence. Every live non-leader node — including a
  // revived deposed primary — is serviceable at the final primary's
  // vtnc with byte-identical per-key state.
  if (report.violations.empty()) {
    Database* final_db = cluster.primary();
    const TxnNumber vtnc = final_db->version_control().vtnc();
    const int lead = cluster.leader();
    for (int node = 0; node < cluster.nodes(); ++node) {
      if (node == lead || !cluster.NodeAlive(node)) continue;
      repl::Replica* replica = cluster.replica(node);
      const std::string label = "fnode" + std::to_string(node);
      if (!replica->Serviceable()) {
        sched.AddViolation(label + ": not serviceable at quiesce");
        continue;
      }
      if (replica->Horizon() != vtnc) {
        sched.AddViolation(label + ": horizon " +
                           std::to_string(replica->Horizon()) +
                           " != final vtnc " + std::to_string(vtnc));
        continue;
      }
      for (ObjectKey key = 0; key < options.keys; ++key) {
        VersionChain* chain = final_db->store().Find(key);
        if (chain == nullptr) continue;
        const Result<VersionRead> want = chain->Read(vtnc);
        const Result<VersionRead> got = replica->SnapshotRead(vtnc, key);
        if (!want.ok() || !got.ok() || want->version != got->version ||
            want->value != got->value) {
          std::ostringstream out;
          out << label << ": key " << key << " diverged at vtnc " << vtnc;
          sched.AddViolation(out.str());
        }
      }
    }
  }
  return report;
}

}  // namespace sim
}  // namespace mvcc
