#ifndef MVCC_TXN_COMMIT_PIPELINE_H_
#define MVCC_TXN_COMMIT_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/ids.h"
#include "recovery/log_record.h"
#include "storage/object_store.h"
#include "txn/txn_context.h"
#include "vc/visibility_source.h"

namespace mvcc {

class WriteAheadLog;

// Protocol hooks into the shared commit epilogue. A protocol that needs
// per-key bookkeeping at install time (timestamp ordering: clear the
// pending write, bump w-ts, wake blocked readers) overrides InstallOne
// and returns true; otherwise the pipeline performs the plain version
// install. BeforeComplete runs after the commit batch is durable and
// immediately before visibility (VCcomplete) — strict 2PL releases its
// locks there, OCC retires its validation-log entry.
class CommitParticipant {
 public:
  virtual ~CommitParticipant() = default;

  // Returns true if the participant installed the version for `key`
  // itself; false to get the pipeline's default install.
  virtual bool InstallOne(TxnState* txn, ObjectKey key) {
    (void)txn;
    (void)key;
    return false;
  }

  // Called once per commit, after the WAL append and before VCcomplete.
  virtual void BeforeComplete(TxnState* txn) { (void)txn; }
};

// The shared commit epilogue for every VC protocol (the paper's
// "perform database updates ... then VCcomplete(T)", Figures 3 and 4,
// factored out of the protocols). A protocol's Commit() shrinks to
// "decide + register", then hands the transaction here:
//
//   1. install the buffered versions, one per written key, interleaving
//      the fault-injection pause (the partially-installed window tests
//      rely on);
//   2. make the commit batch durable via GROUP COMMIT: committers
//      enqueue their batch, one leader drains the whole queue into a
//      single WriteAheadLog::AppendGroup call (one log lock acquisition
//      / fsync-point per group instead of per transaction) while the
//      followers wait for their batch's group to flush;
//   3. run the participant's BeforeComplete hook (lock release, ...);
//   4. VCcomplete(tn) — the transaction becomes visible.
//
// Write-ahead-of-visibility (the invariant replication depends on; see
// docs/correctness.md): a transaction's batch is appended — inside step
// 2's group flush — strictly before its own step 4, because Commit()
// only returns from LogDurable once a leader has flushed the group
// containing its batch. The group append therefore happens-before EVERY
// Complete() in that group, so at any instant each committed tn <= vtnc
// already has its batch in the log, exactly as with per-txn appends.
class CommitPipeline {
 public:
  struct Options {
    // Fault injection: busy-wait this long between the per-key version
    // installs of one commit. Widens the (real but nanosecond-scale)
    // window in which a multi-key commit is only partially installed.
    // Zero in production use.
    int64_t install_pause_ns = 0;
  };

  // `wal` may be null (logging disabled): step 2 becomes a no-op. The
  // pipeline only needs the visibility seam (Complete/Discard), so any
  // core — locked or sharded — plugs in behind the pointer.
  CommitPipeline(ObjectStore* store, VisibilitySource* vc,
                 WriteAheadLog* wal, Options options);
  CommitPipeline(ObjectStore* store, VisibilitySource* vc,
                 WriteAheadLog* wal)
      : CommitPipeline(store, vc, wal, Options()) {}
  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  // The epilogue. The caller has decided commit and registered the
  // transaction (txn->tn assigned). `participant` may be null for a
  // protocol with no install/pre-visibility hooks.
  //
  // Failure policy (ISSUE 4): if the durable append fails, the commit
  // MUST NOT become visible — the installed versions are removed again,
  // BeforeComplete still runs (2PL must release its locks), and the
  // transaction's number is Discarded instead of Completed, so vtnc
  // never covers an unflushed record. Returns the WAL's verdict:
  // kDataLoss (fail-stop — the leader's fsync failed and is never
  // retried) or kResourceExhausted (disk full; retryable after space
  // frees). OK means the commit is durable and visible.
  Status Commit(TxnState* txn, CommitParticipant* participant = nullptr);

  // ---- burst gating (network service tier) ----
  //
  // While the gate is held, no NEW leader is elected: committers still
  // enqueue their batches (and an already-flushing leader finishes
  // undisturbed), but the queue only drains once the last holder
  // releases — so every batch enqueued during the hold leaves in ONE
  // AppendGroup wave. The server holds the gate while it hands a
  // connection's drained run of pipelined commits to its commit
  // executor, then releases; without the gate the executor threads
  // would trickle in and flush as several small groups.
  //
  // Holds nest (counter). A holder must never itself wait for a gated
  // commit while holding — release first, then wait (the server's
  // submit-release-await order).
  void HoldFlushes();
  void ReleaseFlushes();

  class FlushGate {
   public:
    explicit FlushGate(CommitPipeline* pipeline) : pipeline_(pipeline) {
      if (pipeline_ != nullptr) pipeline_->HoldFlushes();
    }
    ~FlushGate() {
      if (pipeline_ != nullptr) pipeline_->ReleaseFlushes();
    }
    FlushGate(const FlushGate&) = delete;
    FlushGate& operator=(const FlushGate&) = delete;

   private:
    CommitPipeline* pipeline_;
  };

  // ---- introspection (tests / bench) ----

  // Batches currently enqueued and waiting for a leader (they pile up
  // while the gate is held or a leader is mid-flush). A gate holder
  // uses this to release only once its burst has ARRIVED: arrival
  // (enqueue) is gate-independent, so waiting for it never deadlocks —
  // unlike waiting for completion, which the gate itself blocks.
  size_t PendingBatches() const;

  // Batches appended through the pipeline, and group flushes performed.
  // groups_flushed <= batches_logged; the gap is the batching win.
  uint64_t batches_logged() const {
    return batches_logged_.load(std::memory_order_relaxed);
  }
  uint64_t groups_flushed() const {
    return groups_flushed_.load(std::memory_order_relaxed);
  }

 private:
  void MaybePauseInstall();
  // Blocks until the transaction's commit batch is durable (group
  // commit) and returns the append status of the group that contained
  // it — a failed group fails every batch in it, since the WAL rolled
  // the whole group back. No-op without a log or an empty write set.
  Status LogDurable(TxnState* txn);

  ObjectStore* const store_;
  VisibilitySource* const vc_;
  WriteAheadLog* const wal_;
  const Options options_;

  // Group-commit state. Batches enqueue in FIFO order under mu_; a
  // single leader at a time swaps out the whole queue and appends it.
  // Each entry carries its committer's result slot: the leader writes
  // the group's append status into every slot it flushed, so a follower
  // learns its own group's fate even if later groups resolved first.
  struct PendingEntry {
    CommitBatch batch;
    std::shared_ptr<Status> result;
  };
  mutable std::mutex mu_;  // mutable: PendingBatches() is a const probe
  std::condition_variable cv_;
  std::vector<PendingEntry> pending_;
  uint64_t enqueued_seq_ = 0;  // total batches ever enqueued
  uint64_t durable_seq_ = 0;   // total batches flushed to the log
  bool flush_active_ = false;  // a leader is inside AppendGroup
  int flush_gate_ = 0;         // >0: leader election suspended (burst forming)

  std::atomic<uint64_t> batches_logged_{0};
  std::atomic<uint64_t> groups_flushed_{0};
};

}  // namespace mvcc

#endif  // MVCC_TXN_COMMIT_PIPELINE_H_
