#include "txn/database.h"

#include <cassert>
#include <thread>
#include <utility>

#include "common/epoch.h"

#include "baselines/mv2pl_ctl.h"
#include "baselines/mvto.h"
#include "baselines/sv2pl.h"
#include "baselines/weihl_ti.h"
#include "cc/adaptive.h"
#include "cc/optimistic.h"
#include "cc/timestamp_ordering.h"
#include "cc/two_phase_locking.h"

namespace mvcc {

std::string_view ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kVc2pl:
      return "vc-2pl";
    case ProtocolKind::kVcTo:
      return "vc-to";
    case ProtocolKind::kVcOcc:
      return "vc-occ";
    case ProtocolKind::kVcAdaptive:
      return "vc-adaptive";
    case ProtocolKind::kMvto:
      return "mvto";
    case ProtocolKind::kMv2plCtl:
      return "mv2pl-ctl";
    case ProtocolKind::kSv2pl:
      return "sv-2pl";
    case ProtocolKind::kWeihlTi:
      return "weihl-ti";
  }
  return "unknown";
}

bool ProtocolUsesCommitPipeline(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kVc2pl:
    case ProtocolKind::kVcTo:
    case ProtocolKind::kVcOcc:
    case ProtocolKind::kVcAdaptive:
      return true;
    case ProtocolKind::kMvto:
    case ProtocolKind::kMv2plCtl:
    case ProtocolKind::kSv2pl:
    case ProtocolKind::kWeihlTi:
      return false;
  }
  return false;
}

namespace {

std::unique_ptr<Protocol> MakeProtocol(const DatabaseOptions& options,
                                       ProtocolEnv env) {
  switch (options.protocol) {
    case ProtocolKind::kVc2pl:
      return std::make_unique<TwoPhaseLocking>(env, options.deadlock_policy);
    case ProtocolKind::kVcTo:
      return std::make_unique<TimestampOrdering>(env, options.store_shards);
    case ProtocolKind::kVcOcc:
      return std::make_unique<Optimistic>(env);
    case ProtocolKind::kVcAdaptive:
      return std::make_unique<Adaptive>(env, options.deadlock_policy);
    case ProtocolKind::kMvto:
      return std::make_unique<Mvto>(env, options.store_shards);
    case ProtocolKind::kMv2plCtl:
      return std::make_unique<Mv2plCtl>(env, options.deadlock_policy);
    case ProtocolKind::kSv2pl:
      return std::make_unique<Sv2pl>(env, options.deadlock_policy);
    case ProtocolKind::kWeihlTi:
      return std::make_unique<WeihlTi>(env, options.deadlock_policy,
                                       options.store_shards);
  }
  return nullptr;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : Database(std::move(options), nullptr) {}

Database::Database(DatabaseOptions options,
                   std::unique_ptr<WriteAheadLog> wal)
    : options_(std::move(options)),
      store_(options_.store_shards),
      vc_(NumberingMode::kDense, options_.vc_shards) {
  if (!ProtocolUsesCommitPipeline(options_.protocol)) {
    // Baseline readers never enter the reader registry, so a watermark
    // could prune a version an old-timestamp reader still needs.
    options_.enable_gc = false;
    options_.inline_gc = false;
  }
  if (options_.preload_keys > 0) {
    store_.Preload(options_.preload_keys, options_.initial_value);
  }
  if (wal != nullptr) {
    options_.enable_wal = true;
    wal_ = std::move(wal);
  } else if (options_.enable_wal) {
    wal_ = std::make_unique<WriteAheadLog>();
  }
  CommitPipeline::Options popt;
  popt.install_pause_ns = options_.install_pause_ns;
  pipeline_ =
      std::make_unique<CommitPipeline>(&store_, &vc_, wal_.get(), popt);
  ProtocolEnv env;
  env.store = &store_;
  env.vc = &vc_;
  env.counters = &counters_;
  env.pipeline = pipeline_.get();
  protocol_ = MakeProtocol(options_, env);
  assert(protocol_ != nullptr);
  if (options_.enable_gc) {
    gc_ = std::make_unique<GarbageCollector>(&store_, &vc_, &readers_);
  }
}

Database::~Database() {
  if (gc_ != nullptr) gc_->Stop();
}

std::unique_ptr<Transaction> Database::Begin(TxnClass cls) {
  auto txn = std::unique_ptr<Transaction>(new Transaction(this));
  TxnState* state = &txn->state_;
  state->id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  state->cls = cls;
  if (cls == TxnClass::kReadOnly && protocol_->ReadOnlyBypass()) {
    // Figure 2: sn(T) <- VCstart(), generalized to the visibility seam:
    // Begin takes a watermark-vector snapshot (pure loads on every core;
    // shard_count of them on the sharded core) and reads evaluate at its
    // folded floor. No CAS, no global counter round-trip.
    if (options_.enable_gc) {
      // Pin a snapshot no newer than the one we will take, so a GC pass
      // between the two steps can never prune our versions. The cached
      // floor lags the exact fold, never leads it — pin <= floor holds.
      const TxnNumber pin = vc_.CachedFloor();
      readers_.Enter(pin);
      state->tn = pin;  // remember the pinned value for Exit()
      state->snapshot = vc_.TakeSnapshot();
      state->sn = state->snapshot.floor;
    } else {
      state->snapshot = vc_.TakeSnapshot();
      state->sn = state->snapshot.floor;
      state->tn = state->sn;
    }
    return txn;
  }
  Status s = protocol_->Begin(state);
  assert(s.ok());
  (void)s;
  return txn;
}

Result<std::unique_ptr<Transaction>> Database::TryBegin(TxnClass cls) {
  if (cls != TxnClass::kReadOnly) {
    Status health = Health();
    if (health.IsResourceExhausted()) {
      return Status::ResourceExhausted(
          "database is degraded read-only (disk full): " + health.message());
    }
    if (health.IsUnavailable()) {
      // Overload is transient: the caller should retry after backoff
      // (or be shed by the service tier), not treat this as data loss.
      return Status::Unavailable("database is overloaded: " +
                                 health.message());
    }
    if (!health.ok()) {
      return Status::DataLoss("database is fail-stopped: " +
                              health.message());
    }
  }
  return Begin(cls);
}

Status Database::Health() const {
  if (wal_ != nullptr) {
    Status durability = wal_->DurabilityHealth();
    if (!durability.ok()) return durability;
  }
  if (options_.overload_lag_threshold > 0) {
    const uint64_t lag = VisibilityLag();
    if (lag > options_.overload_lag_threshold) {
      return Status::Unavailable(
          "overloaded: visibility lag " + std::to_string(lag) +
          " exceeds threshold " +
          std::to_string(options_.overload_lag_threshold));
    }
  }
  return Status::OK();
}

std::unique_ptr<Transaction> Database::BeginReadOnlyAtLeast(
    TxnNumber at_least) {
  assert(protocol_->ReadOnlyBypass() &&
         "currency fix requires a VC protocol");
  auto txn = std::unique_ptr<Transaction>(new Transaction(this));
  TxnState* state = &txn->state_;
  state->id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  state->cls = TxnClass::kReadOnly;
  if (options_.enable_gc) {
    const TxnNumber pin = vc_.CachedFloor();
    readers_.Enter(pin);
    state->tn = pin;
    state->sn = vc_.StartAtLeast(at_least);
  } else {
    state->sn = vc_.StartAtLeast(at_least);
    state->tn = state->sn;
  }
  // The currency fix pins an exact scalar floor; represent it as a
  // one-entry snapshot (valid on every core: tn <= sn is the fold).
  state->snapshot.floor = state->sn;
  state->snapshot.shard_count = 1;
  state->snapshot.watermark[0] = state->sn;
  return txn;
}

Result<std::unique_ptr<Transaction>> Database::TryBeginReadOnlyAtLeast(
    TxnNumber at_least, std::chrono::milliseconds budget) {
  assert(protocol_->ReadOnlyBypass() &&
         "currency fix requires a VC protocol");
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (;;) {
    // Already satisfied: the blocking begin returns without waiting.
    if (vc_.RefreshFloor() >= at_least) {
      return BeginReadOnlyAtLeast(at_least);
    }
    // A fail-stopped or degraded-read-only database can never commit
    // again, so vtnc is frozen short of the demand — report that
    // immediately instead of sleeping out the budget.
    Status health = Health();
    if (health.IsDataLoss() || health.IsResourceExhausted()) {
      return Status::Unavailable(
          "currency demand " + std::to_string(at_least) +
          " can never be met: " + health.message());
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::TimedOut("vtnc did not reach " +
                              std::to_string(at_least) +
                              " within the deadline budget");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Result<Value> Database::Get(ObjectKey key) {
  auto txn = Begin(TxnClass::kReadOnly);
  Result<Value> value = txn->Read(key);
  if (!value.ok()) return value;
  Status s = txn->Commit();
  if (!s.ok()) return s;
  return value;
}

Status Database::Put(ObjectKey key, Value value) {
  auto txn = Begin(TxnClass::kReadWrite);
  Status s = txn->Write(key, std::move(value));
  if (!s.ok()) return s;
  return txn->Commit();
}

void Database::StartGc(std::chrono::milliseconds interval) {
  assert(gc_ != nullptr && "enable_gc was not set");
  gc_->Start(interval);
}

void Database::StopGc() {
  if (gc_ != nullptr) gc_->Stop();
}

uint64_t Database::VisibilityLag() const { return vc_.QueueSize(); }

Result<Value> Database::DoRead(TxnState* state, ObjectKey key) {
  if (state->is_read_only() && protocol_->ReadOnlyBypass()) {
    // Figure 2: return x_j with the largest version <= sn(T). No
    // concurrency control module is involved; the read never blocks —
    // and since PR 5, takes no latch either: one epoch pin covers the
    // index probe and the chain read (the inner guards re-enter for
    // free), and both walk immutable published snapshots.
    EpochGuard epoch_guard;
    VersionChain* chain = store_.Find(key);
    if (chain == nullptr) {
      return Status::NotFound("key " + std::to_string(key));
    }
    Result<VersionRead> read = chain->Read(state->sn);
    if (!read.ok()) return read.status();
    state->reads.push_back(ReadEntry{key, read->version, read->writer});
    return std::move(read->value);
  }

  Result<VersionRead> read = protocol_->Read(state, key);
  if (!read.ok()) {
    if (read.status().IsAborted()) DoAbort(state);
    return read.status();
  }
  // Own-write reads (pending versions) are not part of the recorded
  // multiversion history: the model admits at most one r[x] before w[x].
  if (read->version != kPendingVersion) {
    state->reads.push_back(ReadEntry{key, read->version, read->writer});
  }
  return std::move(read->value);
}

Result<std::vector<std::pair<ObjectKey, Value>>> Database::DoScan(
    TxnState* state, ObjectKey lo, ObjectKey hi, uint64_t limit) {
  if (state->is_read_only() && protocol_->ReadOnlyBypass()) {
    // Snapshot scan, latch-free end to end: the index cursor walks
    // copy-on-write leaves in place under one epoch pin, each leaf
    // entry carries its chain (no per-key hash re-probe), and the
    // version rule excludes phantoms for free — a key created after
    // this snapshot has no version <= sn, so the chain read reports
    // NotFound and the key is skipped. A limit stops the walk early
    // instead of materializing the range.
    std::vector<std::pair<ObjectKey, Value>> out;
    for (auto cur = store_.Scan(lo, hi); cur.Valid(); cur.Next()) {
      if (limit != 0 && out.size() >= limit) break;
      Result<VersionRead> read = cur.chain()->Read(state->sn);
      if (!read.ok()) continue;  // object born after this snapshot
      state->reads.push_back(ReadEntry{cur.key(), read->version,
                                       read->writer});
      out.emplace_back(cur.key(), std::move(read->value));
    }
    return out;
  }
  if (state->is_read_only()) {
    return Status::InvalidArgument(
        "baseline protocols do not support range scans");
  }
  // Read-write scan: delegated to the protocol, which must exclude
  // phantoms its own way (2PL: range locks; OCC: validation). The limit
  // is applied to the result only — the protocol still protects the
  // whole requested range, which keeps the phantom story conservative.
  auto rows = protocol_->Scan(state, lo, hi);
  if (!rows.ok()) {
    if (rows.status().IsAborted()) DoAbort(state);
    return rows.status();
  }
  if (limit != 0 && rows->size() > limit) rows->resize(limit);
  std::vector<std::pair<ObjectKey, Value>> out;
  out.reserve(rows->size());
  for (auto& [key, read] : *rows) {
    if (read.version != kPendingVersion) {
      state->reads.push_back(ReadEntry{key, read.version, read.writer});
    }
    out.emplace_back(key, std::move(read.value));
  }
  return out;
}

Status Database::DoWrite(TxnState* state, ObjectKey key, Value value) {
  if (state->is_read_only()) {
    return Status::InvalidArgument(
        "write issued by a read-only transaction");
  }
  Status s = protocol_->Write(state, key, std::move(value));
  if (s.IsAborted()) DoAbort(state);
  return s;
}

Status Database::DoCommit(TxnState* state) {
  if (state->is_read_only() && protocol_->ReadOnlyBypass()) {
    // end(T) = phi (Figure 2).
    FinishReadOnly(state);
    return Status::OK();
  }
  Status s = protocol_->Commit(state);
  if (!s.ok()) {
    if (s.IsAborted()) {
      DoAbort(state);
    } else if (s.IsDataLoss() || s.IsResourceExhausted()) {
      // Durability failure: the commit pipeline already rolled back the
      // installed versions, released protocol resources and discarded
      // tn(T) — the transaction is fully finished, just unsuccessfully.
      // Do NOT route through DoAbort/protocol Abort: the protocol's
      // commit-side cleanup has run and its abort path would double-free.
      state->finished = true;
      counters_.durability_failures.fetch_add(1, std::memory_order_relaxed);
      counters_.rw_aborts.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  state->finished = true;
  if (state->is_read_only()) {
    counters_.ro_commits.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.rw_commits.fetch_add(1, std::memory_order_relaxed);
    if (options_.inline_gc && gc_ != nullptr) {
      // Amortized collection: sweep only the chains this commit touched.
      // One exact floor fold per commit: the cached floor only moves when
      // someone refreshes it, and inline pruning may be the only
      // collector running.
      const VersionNumber watermark = gc_->Watermark();
      for (ObjectKey key : state->write_order) {
        VersionChain* chain = store_.Find(key);
        if (chain != nullptr) chain->Prune(watermark);
      }
    }
    // Outside every chain latch: lets the blocks this and earlier
    // commits released finish their grace period and be reused.
    store_.MaybeAdvanceEpoch();
    // VC protocols already appended their commit batch inside Commit()
    // via the shared pipeline, before VCcomplete (write-ahead of
    // visibility; see CommitPipeline). The baselines have no VC
    // completion point, so log them here.
    if (wal_ != nullptr && !protocol_->ReadOnlyBypass() &&
        !state->write_order.empty()) {
      CommitBatch batch;
      batch.txn = state->id;
      batch.tn = state->tn;
      batch.writes.reserve(state->write_order.size());
      for (ObjectKey key : state->write_order) {
        batch.writes.push_back(LoggedWrite{key, state->write_set[key]});
      }
      Status logged = wal_->Append(std::move(batch));
      if (!logged.ok()) {
        // Baselines have no pre-visibility durability point to unwind;
        // surface the failure (the in-memory commit stands, but it is
        // not durable — the caller must treat it as lost). This path is
        // only reachable with the in-memory simulated-durability WAL:
        // OpenDatabaseDurable refuses baseline protocols outright
        // (ProtocolUsesCommitPipeline), so a real disk never backs this
        // post-visibility append.
        counters_.durability_failures.fetch_add(1,
                                                std::memory_order_relaxed);
        return logged;
      }
    }
  }
  if (options_.record_history) RecordHistory(*state);
  return Status::OK();
}

void Database::DoAbort(TxnState* state) {
  if (state->finished) return;
  if (state->is_read_only() && protocol_->ReadOnlyBypass()) {
    // A read-only transaction cannot fail; an explicit abort simply ends
    // it without recording.
    state->finished = true;
    if (options_.enable_gc) readers_.Exit(state->tn);
    counters_.ro_aborts.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  protocol_->Abort(state);
  state->finished = true;
  auto& counter =
      state->is_read_only() ? counters_.ro_aborts : counters_.rw_aborts;
  counter.fetch_add(1, std::memory_order_relaxed);
}

void Database::FinishReadOnly(TxnState* state) {
  state->finished = true;
  if (options_.enable_gc) readers_.Exit(state->tn);
  counters_.ro_commits.fetch_add(1, std::memory_order_relaxed);
  if (options_.record_history) RecordHistory(*state);
}

void Database::RecordHistory(const TxnState& state) {
  TxnRecord record;
  record.id = state.id;
  record.cls = state.cls;
  record.number = state.is_read_only() ? state.sn : state.tn;
  record.reads.reserve(state.reads.size());
  for (const ReadEntry& r : state.reads) {
    record.reads.push_back(RecordedRead{r.key, r.version, r.writer});
  }
  record.writes.reserve(state.write_order.size());
  for (ObjectKey key : state.write_order) {
    record.writes.push_back(RecordedWrite{key, state.tn});
  }
  history_.Record(std::move(record));
}

}  // namespace mvcc
