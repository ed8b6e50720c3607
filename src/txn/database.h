#ifndef MVCC_TXN_DATABASE_H_
#define MVCC_TXN_DATABASE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>

#include "cc/lock_manager.h"
#include "cc/protocol.h"
#include "common/counters.h"
#include "common/ids.h"
#include "common/result.h"
#include "gc/garbage_collector.h"
#include "gc/reader_registry.h"
#include "history/history.h"
#include "recovery/wal.h"
#include "storage/object_store.h"
#include "txn/commit_pipeline.h"
#include "txn/transaction.h"
#include "vc/version_control.h"

namespace mvcc {

// Which synchronization protocol a Database instance runs.
enum class ProtocolKind {
  // The paper's framework: version control + pluggable CC.
  kVc2pl,      // Figure 4: VC + strict two-phase locking
  kVcTo,       // Figure 3: VC + timestamp ordering
  kVcOcc,      // references [1,2]: VC + optimistic (backward validation)
  kVcAdaptive, // Section 1's extensibility claim: OCC <-> 2PL switching
  // Baselines the paper argues against.
  kMvto,     // Reed's multiversion timestamp ordering [14]
  kMv2plCtl, // Chan et al. multiversion 2PL with completed txn lists [7]
  kSv2pl,    // single-version strict 2PL (no versions to exploit)
  kWeihlTi,  // Weihl's timestamps-and-initiation rendition [17]
};

std::string_view ProtocolKindName(ProtocolKind kind);

// True for the VC protocols, whose read-write commits run through the
// shared CommitPipeline: the WAL append (and group fsync, in durable
// mode) happens BEFORE VCcomplete makes the commit visible, so a failed
// append rolls back a commit no reader has seen. The baselines instead
// log after the commit is already visible in memory — fine for the
// in-memory simulated-durability WAL, but unsound against a real disk
// (an append failure would leave a visible-but-lost commit), so
// OpenDatabaseDurable refuses them.
bool ProtocolUsesCommitPipeline(ProtocolKind kind);

struct DatabaseOptions {
  ProtocolKind protocol = ProtocolKind::kVc2pl;

  // Preload keys [0, preload_keys) with `initial_value` as version 0.
  uint64_t preload_keys = 0;
  Value initial_value = "0";

  // Deadlock resolution for locking protocols.
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kWaitDie;

  // Record committed transactions for serializability checking.
  bool record_history = false;

  // Track active read-only snapshots and enable garbage collection.
  // VC protocols only: the baselines do not register their readers with
  // the collector, so a Database running one ignores both GC flags (its
  // options() report them off) and keeps every version.
  bool enable_gc = true;

  // With enable_gc: additionally prune each written key's chain inline
  // at commit (amortized collection, no reliance on the background
  // thread's cadence). On by default, so a served database collects
  // without anyone starting a GC thread. This is the "experimentation
  // with garbage collection algorithms" Section 1 promises the modular
  // split makes cheap: the policy change touches no protocol code.
  bool inline_gc = true;

  // Log every committed read-write transaction to an in-memory
  // write-ahead log, enabling crash recovery via RecoverDatabase().
  bool enable_wal = false;

  // Sharding of the object store and protocol tables.
  size_t store_shards = 64;

  // Shard count of the visibility core's per-shard commit watermarks
  // (0 = the core's default); clamped to a power of two in
  // [1, VisibilitySnapshot::kMaxShards].
  size_t vc_shards = 0;

  // Admission-control overload signal for the service tier: when > 0
  // and VisibilityLag() exceeds it, Health() reports kUnavailable
  // ("overloaded") and TryBegin refuses new read-write transactions —
  // the commit path is falling behind registration, and taking on more
  // writers only deepens the backlog. Distinct from the storage-health
  // verdicts (kResourceExhausted / kDataLoss): overload is transient
  // and clears by itself as the pipeline drains. 0 disables the check.
  uint64_t overload_lag_threshold = 0;

  // Fault injection: pause between per-key installs at commit (tests and
  // ablations only). See CommitPipeline::Options::install_pause_ns.
  int64_t install_pause_ns = 0;
};

// The top-level multiversion database: object store + version control +
// one synchronization protocol. This is the primary public API.
//
//   DatabaseOptions opts;
//   opts.protocol = ProtocolKind::kVc2pl;
//   opts.preload_keys = 1000;
//   Database db(opts);
//   auto writer = db.Begin(TxnClass::kReadWrite);
//   writer->Write(7, "hello");
//   writer->Commit();
//   auto reader = db.Begin(TxnClass::kReadOnly);
//   auto value = reader->Read(7);
//
// Thread-safe: any number of threads may run transactions concurrently;
// each Transaction handle belongs to one thread.
class Database {
 public:
  explicit Database(DatabaseOptions options);

  // Adopts a pre-opened write-ahead log (typically a durable one from
  // WriteAheadLog::OpenDurable via OpenDatabaseDurable). Implies
  // enable_wal; the log's existing contents are NOT replayed here —
  // recovery does that explicitly.
  Database(DatabaseOptions options, std::unique_ptr<WriteAheadLog> wal);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Starts a transaction. Unknown workloads must use kReadWrite
  // (Section 4.1: unknown category defaults to read-write).
  std::unique_ptr<Transaction> Begin(TxnClass cls);

  // Storage-failure-aware Begin. Read-write transactions are refused
  // while the database is degraded:
  //   kResourceExhausted - the WAL hit disk-full; read-only
  //     transactions continue at the current vtnc, and the state
  //     auto-clears once checkpoint truncation frees space
  //     (CheckpointAndTruncateDurable).
  //   kDataLoss - the WAL latched fail-stop (failed fsync); permanent.
  // Read-only transactions always succeed — the committed prefix
  // remains perfectly readable.
  Result<std::unique_ptr<Transaction>> TryBegin(TxnClass cls);

  // Current health verdict, in increasing severity: OK; kUnavailable
  // (overloaded — visibility lag over overload_lag_threshold; transient,
  // shed new writers); kResourceExhausted (disk full — degraded
  // read-only until space frees); kDataLoss (fail-stop, permanent).
  // The three failure shapes stay distinguishable all the way to the
  // wire protocol (server/wire.h WireStatusForHealth). Storage verdicts
  // come from the WAL; without one only the overload check applies.
  Status Health() const;

  // Starts a read-only transaction whose snapshot is guaranteed to
  // include the effects of the read-write transaction numbered
  // `at_least` — the currency fix of Section 6. Blocks until vtnc
  // reaches that number. VC protocols only.
  std::unique_ptr<Transaction> BeginReadOnlyAtLeast(TxnNumber at_least);

  // Deadline-bounded BeginReadOnlyAtLeast. Returns kTimedOut if vtnc
  // did not reach `at_least` within `budget`, and kUnavailable at once
  // if the database is fail-stopped or degraded read-only while still
  // short of `at_least` (no commit will ever advance vtnc there, so
  // waiting out the budget is pointless). Never blocks past the budget:
  // this is the fallback the ReadRouter uses so an unreachable or dead
  // primary turns into a retryable error instead of a stuck reader.
  Result<std::unique_ptr<Transaction>> TryBeginReadOnlyAtLeast(
      TxnNumber at_least, std::chrono::milliseconds budget);

  // Single-operation conveniences (each runs its own transaction).
  Result<Value> Get(ObjectKey key);
  Status Put(ObjectKey key, Value value);

  // Starts the background garbage collector (requires enable_gc).
  void StartGc(std::chrono::milliseconds interval);
  void StopGc();

  ObjectStore& store() { return store_; }
  VersionControl& version_control() { return vc_; }
  // The shared commit epilogue every VC protocol routes through.
  CommitPipeline& commit_pipeline() { return *pipeline_; }
  // Non-null when enable_wal was set.
  WriteAheadLog* wal() { return wal_.get(); }
  EventCounters& counters() { return counters_; }
  History* history() { return options_.record_history ? &history_ : nullptr; }
  GarbageCollector* gc() { return gc_.get(); }
  ReaderRegistry& reader_registry() { return readers_; }
  Protocol& protocol() { return *protocol_; }
  const DatabaseOptions& options() const { return options_; }

  // Visibility lag tnc - vtnc expressed in pending registrations
  // (VC protocols; Section 6's "delayed visibility" metric).
  uint64_t VisibilityLag() const;

 private:
  friend class Transaction;

  // Transaction-layer operations, called by Transaction.
  Result<Value> DoRead(TxnState* state, ObjectKey key);
  Result<std::vector<std::pair<ObjectKey, Value>>> DoScan(TxnState* state,
                                                          ObjectKey lo,
                                                          ObjectKey hi,
                                                          uint64_t limit);
  Status DoWrite(TxnState* state, ObjectKey key, Value value);
  Status DoCommit(TxnState* state);
  void DoAbort(TxnState* state);

  void RecordHistory(const TxnState& state);
  void FinishReadOnly(TxnState* state);

  DatabaseOptions options_;
  ObjectStore store_;
  VersionControl vc_;
  EventCounters counters_;
  History history_;
  ReaderRegistry readers_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<CommitPipeline> pipeline_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<GarbageCollector> gc_;
  std::atomic<TxnId> next_txn_id_{1};
};

}  // namespace mvcc

#endif  // MVCC_TXN_DATABASE_H_
