#ifndef MVCC_SIM_EXPLORER_H_
#define MVCC_SIM_EXPLORER_H_

#include <cstdint>

#include "cc/lock_manager.h"
#include "sim/sim_scheduler.h"
#include "txn/database.h"

namespace mvcc {
namespace sim {

// One simulated execution over a single-node Database: N read-write
// tasks and M read-only tasks run a seeded random workload under the
// deterministic scheduler, and the resulting history is checked against
// the full oracle stack — MVSG one-copy serializability (Theorem 1),
// the Section 5.1 lemmas, the vtnc invariants (monotone, < tnc, reaches
// every committed tn at quiesce, queue drained), read-only wait-freedom
// (Figure 2), and — when the fault plan crashes the WAL — recovery-
// from-prefix consistency.
struct ExploreOptions {
  ProtocolKind protocol = ProtocolKind::kVc2pl;
  uint64_t seed = 1;

  int writer_tasks = 3;
  int reader_tasks = 2;
  int txns_per_task = 5;
  int ops_per_txn = 4;
  uint64_t keys = 8;
  double write_fraction = 0.7;
  // Chance a read-only transaction issues a snapshot scan instead of a
  // point read.
  double scan_fraction = 0.2;
  // Chance a writer operation INSERTS a brand-new key (an ordered-index
  // insert racing the readers' scans) instead of updating a preloaded
  // one. Nonzero widens reader scan windows to cover the insert zone
  // and arms the phantom-freedom oracle: every read-only scan's
  // observed key set is checked post-run against the committed history
  // — no key whose creating transaction committed after the scan's
  // snapshot sn may appear (no phantom), every key created at or below
  // sn inside the window must appear (completeness), and the keys must
  // come back strictly ascending (ordered cursor).
  double insert_fraction = 0.0;
  // Chance a writer voluntarily aborts after finishing its operations
  // (exercises Discard with a populated VCQueue).
  double user_abort_probability = 0.1;

  // Adds one task using BeginReadOnlyAtLeast on the first committed tn
  // (the Section 6 currency fix; blocks by design, so not wait-free).
  bool currency_reader = false;

  // Injects the Figure-1-literal VCdiscard (no head drain) — a known
  // liveness bug the oracle must catch. Used by the replay tests.
  bool literal_figure1_discard = false;

  // Runs with the write-ahead log on even without crash injection, so
  // the group-commit pipeline (leader election, follower waits, batched
  // AppendGroup) is exercised under schedule exploration. Implied by
  // faults.crash_at_wal_append >= 0.
  bool enable_wal = false;

  // Adds a task that drives GarbageCollector::RunOnce between schedule
  // points while writers run, so prune-in-place, array republish, arena
  // block release, and epoch advance interleave with installs and
  // latch-free reads inside the explored schedule space (republishes
  // and advances feed the schedule hash through their SimObserve
  // points). It also turns on GC, and with it inline pruning at
  // commit; without it reclamation only happens implicitly, at
  // retire-threshold and release-count crossings.
  bool gc_task = false;

  // Shard count of the sharded visibility core (0 = core default). Every
  // run on that core installs the watermark-vector oracle over its
  // SimObserve stream: each shard must consume its residue class in
  // order and only past resolved numbers, and every snapshot's folded
  // floor must stay below tnc, advance monotonically, and be closed
  // under completion — i.e. the vector is equivalent to a legal scalar
  // vtnc history (docs/correctness.md). Runs that literal_figure1_discard
  // moved onto the locked core skip the oracle.
  size_t vc_shards = 0;

  DeadlockPolicy deadlock_policy = DeadlockPolicy::kWaitDie;
  FaultPlan faults;
  uint64_t max_steps = 2'000'000;
};

SimReport ExploreOnce(const ExploreOptions& options);

// One simulated execution over the Section 6 distributed database:
// cross-site read-write transactions (2PC + number agreement) and
// read-only snapshot transactions, optionally under message drops and
// delays. Checks global MVSG serializability over the merged history,
// the lemmas, per-site vtnc invariants and queue drain, and 2PC
// atomicity (every committed transaction's writes visible at all its
// sites).
struct DistExploreOptions {
  uint64_t seed = 1;
  int sites = 3;

  int writer_tasks = 3;
  int reader_tasks = 2;
  int txns_per_task = 3;
  int ops_per_txn = 3;
  uint64_t keys = 9;
  double write_fraction = 0.7;
  double scan_fraction = 0.15;

  // Read-only begins fold every site's published visibility floor into
  // the start number instead of taking the home site's vtnc (the
  // distributed face of the sharded-watermark construction; see
  // DistributedDb::Options::global_snapshot_vector).
  bool global_snapshot_vector = false;

  FaultPlan faults;
  uint64_t max_steps = 2'000'000;
};

SimReport ExploreDistributedOnce(const DistExploreOptions& options);

// One simulated execution over a replicated deployment (src/repl/): a
// primary Database ships committed batches to N replicas over the
// simulated network while routed read-only transactions are served from
// replica snapshots under a staleness budget. Chaos actions crash
// replicas (losing all volatile state) and truncate the primary's WAL
// under a checkpoint (forcing the tailing overrun / resync path), on top
// of the usual message drops and delays. Checks: MVSG one-copy
// serializability and the lemmas over the MERGED history (primary
// read-write + primary and replica read-only), vtnc invariants at
// quiesce, routed-reader wait-freedom, and full convergence — every
// replica serviceable, at the primary's final vtnc, with byte-identical
// per-key state.
struct ReplExploreOptions {
  ProtocolKind protocol = ProtocolKind::kVc2pl;
  uint64_t seed = 1;

  int replicas = 2;
  int writer_tasks = 2;
  int reader_tasks = 2;
  int txns_per_task = 4;
  int ops_per_txn = 3;
  uint64_t keys = 8;
  double write_fraction = 0.7;
  double scan_fraction = 0.15;
  double user_abort_probability = 0.1;

  // Largest visibility lag (vtnc - rvtnc, in transaction numbers) a
  // replica may have and still serve routed reads.
  TxnNumber staleness_budget = 4;

  // Chaos schedule: how many times a (seed-chosen) replica crashes and
  // how many times the WAL is truncated under a fresh checkpoint while
  // the stream is tailing it.
  int replica_crashes = 0;
  int wal_truncations = 0;

  // crash_at_wal_append is ignored here (forced off): the primary must
  // outlive the run for convergence to be checkable.
  FaultPlan faults;
  uint64_t max_steps = 2'000'000;
};

SimReport ExploreReplicationOnce(const ReplExploreOptions& options);

// One simulated execution over a FailoverCluster (src/repl/failover.h):
// writers run against whatever node is currently primary, a coordinator
// task drives the failure detector, and the chaos plan fail-stops the
// primary mid-workload (at a swept group-commit wave index) — on top of
// message drops/delays partitioning the replication stream. A commit
// only counts as ACKED once a quorum of replicas has applied it within
// the fence epoch it committed under (semi-synchronous replication);
// clients whose primary dies before the ack see the commit as
// unacknowledged.
//
// Oracles on top of the scheduler's built-ins:
//   - no-acked-commit-lost: on the post-failover primary, every acked
//     write's key carries a committed version at or past the acked tn —
//     the acked value itself (byte for byte) or a later committed
//     overwrite (resync checkpoints compact history, so the acked
//     version may be legitimately superseded);
//   - at-most-one-primary-per-epoch: the leadership log's fence values
//     are strictly increasing (the durable CAS admits one winner), and
//     a straggler promoting off the pre-failover fence loses the CAS;
//   - late-wave rejection: the deposed stream, pumped after promotion,
//     latches Deposed() and changes no replica state;
//   - convergence: every live node is re-adopted by the new reign and
//     ends byte-identical to the new primary at its final vtnc —
//     including the revived old primary (demotion through resync).
struct FailoverExploreOptions {
  ProtocolKind protocol = ProtocolKind::kVc2pl;
  uint64_t seed = 1;

  // Total nodes (node 0 starts as primary).
  int nodes = 3;
  int writer_tasks = 2;
  int reader_tasks = 1;
  int txns_per_task = 4;
  int ops_per_txn = 3;
  uint64_t keys = 8;
  double write_fraction = 0.8;
  double scan_fraction = 0.15;

  size_t ack_quorum = 1;
  TxnNumber staleness_budget = 4;
  uint32_t miss_threshold = 3;

  // Fail-stop the primary once its commit pipeline has logged this many
  // batches — sweeping this value walks the kill point across every
  // group-commit wave (and hence every WAL append boundary) of the run.
  // -1 = never kill. The kill waits until at least one replica is
  // serviceable, as a promotion candidate must exist for the run to
  // quiesce (a real deployment in that state simply stays down).
  int64_t kill_primary_after_batches = -1;
  // After the failover completes, revive the deposed primary so it
  // rejoins as a resyncing replica (the demotion path) and must appear
  // converged at quiesce.
  bool revive_old_primary = true;
  // Pump the deposed stream after promotion (the late group-commit
  // wave) and require it to latch Deposed(); also verify a promotion
  // attempt from the pre-failover fence loses the epoch CAS.
  bool late_wave_check = true;

  // message_drop_probability / message_delay_max_steps partition and
  // delay the replication stream; crash_at_wal_append is forced off
  // (the kill is the batches threshold above, so the cluster — not the
  // whole simulation — takes the hit).
  FaultPlan faults;
  uint64_t max_steps = 2'000'000;
};

SimReport ExploreFailoverOnce(const FailoverExploreOptions& options);

// Deterministic per-task seed derivation (SplitMix64 over seed ^ salt),
// so adding a task never perturbs the streams of existing tasks.
uint64_t DeriveTaskSeed(uint64_t seed, uint64_t salt);

}  // namespace sim
}  // namespace mvcc

#endif  // MVCC_SIM_EXPLORER_H_
