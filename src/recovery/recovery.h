#ifndef MVCC_RECOVERY_RECOVERY_H_
#define MVCC_RECOVERY_RECOVERY_H_

#include <memory>
#include <string>

#include "recovery/checkpoint.h"
#include "recovery/checkpoint_store.h"
#include "recovery/env.h"
#include "recovery/wal.h"
#include "txn/database.h"

namespace mvcc {

// Takes a transactionally consistent checkpoint of `db` at its current
// vtnc, using an ordinary read-only snapshot over the key index. Safe to
// run concurrently with any workload. Afterwards the caller may
// Truncate() the write-ahead log up to the returned vtnc.
Checkpoint TakeCheckpoint(Database* db);

// Rebuilds a database after a "crash": starts from `options` (preload is
// applied first, re-creating the initial load T0), overlays the
// checkpoint if given, replays every logged commit in `batches` with tn
// above the checkpoint's vtnc (installing each write with its creator's
// transaction number, preserving the multiversion order), and restores
// the version control counters so vtnc = the last durable transaction
// and future registrations get larger numbers. The recovered database is
// immediately serviceable: read-only snapshots observe exactly the
// committed state, and new read-write transactions extend the history.
//
// `batches` is a log's content (WriteAheadLog::Batches() of a simulated
// crash image) or, on promotion, a replica's retained applied-batch
// prefix: with its base checkpoint that is exactly a (checkpoint,
// WAL-prefix) pair, so failover reuses the one recovery implementation
// instead of growing a second.
std::unique_ptr<Database> RecoverDatabase(
    DatabaseOptions options, const Checkpoint* checkpoint,
    const std::vector<CommitBatch>& batches);

// What a durable open found and did. Every field is diagnostic only —
// a non-OK open status is the authoritative failure signal.
struct RecoveryReport {
  WalOpenReport wal;                 // scan/salvage outcome per ISSUE 4
  CheckpointLoadReport checkpoint;   // generation fallback outcome
  uint64_t replayed_batches = 0;     // WAL records applied above floor
  TxnNumber recovered_tn = 0;        // vtnc after recovery
  uint64_t orphaned_temps_removed = 0;
};

// On-disk layout under `dir`:
//   dir/wal/wal-*.log     checksummed WAL segments
//   dir/ckpt/ckpt-*.mvcc  checkpoint generations (newest two kept)
//
// Opens (or creates) a durable database: loads the newest checkpoint
// generation that CRC-verifies (falling back across generations),
// scan-verifies the WAL — salvaging a torn tail or fail-stopping on
// interior corruption per `wal_options.policy` — replays every record
// above the checkpoint floor straight from that scan (each segment is
// read once; the log keeps no copy), and restores the version-control
// counters. Handles a fresh directory and a post-crash directory
// uniformly. The returned database keeps the opened WAL as its live
// log: commits append durably, and Database::Health() reflects the
// log's failure state (kDataLoss fail-stop / kResourceExhausted
// degraded read-only).
//
// Durable mode requires a pipeline-integrated (VC) protocol — their
// commits flush to the WAL before VCcomplete makes them visible, so a
// failed append rolls back unseen. Baseline protocols log after
// visibility and are refused with kInvalidArgument (a real-disk append
// failure there would mean readers already observed a never-durable
// commit).
Result<std::unique_ptr<Database>> OpenDatabaseDurable(
    DatabaseOptions options, Env* env, const std::string& dir,
    const WalDurableOptions& wal_options, RecoveryReport* report);

// Takes a checkpoint of the running durable database, writes it as a
// new generation (crash-safe temp+rename+dir-sync), then truncates the
// WAL up to the floor of the retained loadable generations
// (CheckpointTruncationFloor) — one generation BEHIND the checkpoint
// just written, so that if it later fails CRC, fallback recovery still
// finds the WAL gap above the previous generation's vtnc on disk.
// Segment deletion under the floor is what frees space and lifts the
// ENOSPC degraded mode. Returns the new generation number.
Result<uint64_t> CheckpointAndTruncateDurable(Database* db, Env* env,
                                              const std::string& dir);

}  // namespace mvcc

#endif  // MVCC_RECOVERY_RECOVERY_H_
