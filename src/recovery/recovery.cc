#include "recovery/recovery.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace mvcc {

namespace {

// Overlays checkpoint entries and replays WAL batches above the floor
// into a freshly constructed database, then restores the VC counters.
// Shared by the in-memory and durable recovery paths.
TxnNumber ReplayInto(Database* db, const Checkpoint* checkpoint,
                     const std::vector<CommitBatch>& batches,
                     uint64_t* replayed) {
  TxnNumber last_committed = 0;
  if (checkpoint != nullptr) {
    for (const CheckpointEntry& entry : checkpoint->entries) {
      // Version 0 rows duplicate the preload; skip them if present.
      VersionChain* chain = db->store().GetOrCreate(entry.key);
      if (entry.version == 0 && chain->LatestNumber() == 0) continue;
      chain->Install(Version{entry.version, entry.value, entry.writer});
    }
    last_committed = checkpoint->vtnc;
  }
  const TxnNumber floor = checkpoint != nullptr ? checkpoint->vtnc : 0;
  for (const CommitBatch& batch : batches) {
    // Batches at or below the checkpoint are already materialized.
    if (batch.tn <= floor) continue;
    for (const LoggedWrite& write : batch.writes) {
      db->store().GetOrCreate(write.key)->Install(
          Version{batch.tn, write.value, batch.txn});
    }
    if (replayed != nullptr) ++*replayed;
    last_committed = std::max(last_committed, batch.tn);
  }
  db->version_control().RecoverTo(last_committed);
  return last_committed;
}

// Removes leftovers of interrupted atomic writes ("*.tmp.*"). They are
// unreferenced by construction — the rename that would have published
// them never happened.
uint64_t DeleteOrphanedTempFiles(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return 0;
  uint64_t removed = 0;
  for (const std::string& name : *names) {
    if (name.find(".tmp.") != std::string::npos) {
      if (env->DeleteFile(dir + "/" + name).ok()) ++removed;
    }
  }
  if (removed > 0) env->SyncDir(dir);
  return removed;
}

}  // namespace

Checkpoint TakeCheckpoint(Database* db) {
  Checkpoint out;
  auto snapshot = db->Begin(TxnClass::kReadOnly);
  out.vtnc = snapshot->start_number();
  // Stream the full key range through the index cursor instead of
  // materializing every key up front — on a large store the old vector
  // was a second copy of the whole keyspace.
  out.entries.reserve(db->store().NumKeys());
  for (auto cur = db->store().Scan(0, std::numeric_limits<ObjectKey>::max());
       cur.Valid(); cur.Next()) {
    Result<VersionRead> read = cur.chain()->Read(out.vtnc);
    if (!read.ok()) continue;  // object born after the snapshot
    out.entries.push_back(CheckpointEntry{cur.key(), read->version,
                                          read->writer,
                                          std::move(read->value)});
  }
  snapshot->Commit();
  return out;
}

std::unique_ptr<Database> RecoverDatabase(
    DatabaseOptions options, const Checkpoint* checkpoint,
    const std::vector<CommitBatch>& batches) {
  auto db = std::make_unique<Database>(std::move(options));
  ReplayInto(db.get(), checkpoint, batches, nullptr);
  return db;
}

Result<std::unique_ptr<Database>> OpenDatabaseDurable(
    DatabaseOptions options, Env* env, const std::string& dir,
    const WalDurableOptions& wal_options, RecoveryReport* report) {
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport{};

  if (!ProtocolUsesCommitPipeline(options.protocol)) {
    // Baselines append to the WAL only AFTER the commit is visible in
    // memory (Database::DoCommit); against a real disk a failed append
    // would leave concurrent readers having observed a never-durable
    // commit. Durable mode therefore requires a pipeline-integrated
    // (VC) protocol, whose append+fsync precedes VCcomplete.
    return Status::InvalidArgument(
        std::string(ProtocolKindName(options.protocol)) +
        " logs commits after they become visible; durable mode requires "
        "a VC protocol whose commits flush through the pipeline before "
        "visibility");
  }

  Status s = env->CreateDirIfMissing(dir);
  if (!s.ok()) return s;
  report->orphaned_temps_removed += DeleteOrphanedTempFiles(env, dir);
  if (env->FileExists(dir + "/ckpt")) {
    report->orphaned_temps_removed +=
        DeleteOrphanedTempFiles(env, dir + "/ckpt");
  }

  Checkpoint checkpoint;
  const Checkpoint* checkpoint_ptr = nullptr;
  Result<Checkpoint> loaded =
      LoadLatestCheckpoint(env, dir + "/ckpt", &report->checkpoint);
  if (loaded.ok()) {
    checkpoint = std::move(loaded).value();
    checkpoint_ptr = &checkpoint;
  } else if (!loaded.status().IsNotFound()) {
    return loaded.status();
  } else if (report->checkpoint.generations_seen > 0 &&
             report->checkpoint.generations_bad ==
                 report->checkpoint.generations_seen) {
    // Generations existed but none verified: the WAL floor they
    // promised is gone, so replaying from zero would silently lose the
    // truncated prefix. Fail-stop rather than serve a hole.
    return Status::DataLoss("all checkpoint generations corrupt: " +
                            report->checkpoint.detail);
  }

  std::vector<CommitBatch> scanned;
  auto log = WriteAheadLog::OpenDurable(env, dir + "/wal", wal_options,
                                        &report->wal, &scanned);
  if (!log.ok()) return log.status();

  options.enable_wal = true;
  auto db = std::make_unique<Database>(std::move(options),
                                       std::move(log).value());
  report->recovered_tn = ReplayInto(db.get(), checkpoint_ptr, scanned,
                                    &report->replayed_batches);
  if (checkpoint_ptr != nullptr) {
    // Re-establish the truncation watermark (it is not persisted on its
    // own — the durable generations ARE the watermark), deleting any
    // segments the pre-crash truncation didn't get to. The watermark is
    // the floor over every still-loadable generation, NOT the loaded
    // checkpoint's vtnc: a future open may fall back a generation and
    // must still find its WAL replay gap on disk.
    db->wal()->Truncate(CheckpointTruncationFloor(env, dir + "/ckpt"));
  }
  return db;
}

Result<uint64_t> CheckpointAndTruncateDurable(Database* db, Env* env,
                                              const std::string& dir) {
  Checkpoint checkpoint = TakeCheckpoint(db);
  Result<uint64_t> seq =
      SaveCheckpointDurable(env, dir + "/ckpt", checkpoint);
  if (!seq.ok()) return seq;
  // Only after the generation is durable may the WAL forget a prefix —
  // and only up to the OLDEST retained loadable generation's vtnc, not
  // the one just written: if the new generation later fails CRC,
  // recovery falls back to the previous one and replays the WAL above
  // ITS vtnc, so that gap must survive on disk. (Truncating to the new
  // vtnc would delete the covered segments and turn the fallback into a
  // silent hole.) Truncation always lags one generation; the prefix a
  // checkpoint covers is only freed by the NEXT checkpoint, which
  // prunes the older generation first. This call also reprobes and
  // lifts the ENOSPC degraded mode.
  if (db->wal() != nullptr) {
    db->wal()->Truncate(CheckpointTruncationFloor(env, dir + "/ckpt"));
  }
  return seq;
}

}  // namespace mvcc
