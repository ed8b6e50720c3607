#ifndef MVCC_RECOVERY_WAL_H_
#define MVCC_RECOVERY_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "recovery/env.h"
#include "recovery/log_record.h"

namespace mvcc {

// What recovery does with an invalid record at the tail of the last
// segment (a torn write from a crash mid-append).
enum class SalvagePolicy {
  kSalvageTornTail,  // truncate the torn suffix and continue (default)
  kStrict,           // fail-stop on ANY invalid record, even a torn tail
};

// Durability knobs for OpenDurable.
struct WalDurableOptions {
  SalvagePolicy policy = SalvagePolicy::kSalvageTornTail;
  // Rotate to a fresh segment, prepared at this size, once the current
  // one reaches it; Truncate() deletes whole sealed segments covered by
  // a checkpoint.
  uint64_t segment_target_bytes = 64 * 1024;
};

// What OpenDurable found on disk (surfaced through RecoveryReport).
struct WalOpenReport {
  uint64_t segments = 0;         // segment files scanned
  uint64_t records = 0;          // valid records scanned
  uint64_t torn_tail_bytes = 0;  // bytes truncated from a torn tail
  bool salvaged = false;         // a torn tail was truncated
  std::string detail;            // diagnosis of any non-clean tail
};

// Write-ahead log of committed read-write transactions. Two modes:
//
//  - In-memory (default constructor): the append is a simulated
//    durability point and the batch vector is the log; a "crash" in
//    tests drops the Database and rebuilds it from this object (see
//    recovery.h).
//
//  - Durable (OpenDurable): the log lives only in its segment files.
//    Every append is framed with a CRC32C header (log_format.h), written
//    at the log's end in a segment file through an Env, and synced
//    before it is acknowledged; no batch stays in memory after its
//    append returns. Segments after the first are prepared at rotation
//    (Env::NewPreparedFile: full size, zero-filled, synced), so a group
//    commit is a write in place plus an fdatasync that changes no file
//    size. Batches()/BatchesSince() read the segments back, and only up
//    to the acknowledged end: the current segment's offset after the
//    last group whose sync succeeded. A group whose sync failed may
//    still sit in the file (or the page cache) past that end, so no
//    reader of the log — replication tail, replay — ever sees a record
//    that was not acknowledged.
//
// Failure policy in durable mode (ISSUE 4 / fsyncgate):
//
//  - A failed fsync is NEVER retried. The log latches into a permanent
//    fail-stop state; every later append returns kDataLoss.
//  - A failed write is rolled back by truncating the segment to the
//    last acknowledged record boundary, so the on-disk log stays an
//    exact prefix of the acknowledged commit order. If the error was
//    ENOSPC the log enters a recoverable space-exhausted state
//    (kResourceExhausted) that Truncate() clears once segment deletion
//    frees space; any other error, or a failed rollback, latches
//    fail-stop.
//
// Thread-safe.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Opens (or creates) a durable log in `dir`, scan-verifying every
  // record of every segment, each read once. The valid records go to
  // `*scanned` in append order (the recovery replay's input; null drops
  // them) and are not kept by the log. Appending resumes at the last
  // valid record of the last segment (its zero tail, if prepared, is
  // truncated away).
  //  - invalid record at the tail of the last segment = torn write:
  //    truncated and salvaged under kSalvageTornTail (reported), error
  //    under kStrict;
  //  - invalid record followed by valid ones (or in a sealed segment) =
  //    interior corruption: always kDataLoss with diagnostics.
  static Result<std::unique_ptr<WriteAheadLog>> OpenDurable(
      Env* env, const std::string& dir, const WalDurableOptions& options,
      WalOpenReport* report, std::vector<CommitBatch>* scanned = nullptr);

  // Appends one committed transaction atomically. In durable mode the
  // record is on disk (fsynced) when this returns OK; on error the
  // transaction is NOT durable and must not become visible.
  Status Append(CommitBatch batch);

  // Appends a whole commit group atomically under ONE lock acquisition
  // and (durable mode) ONE fsync — the group-commit durability point of
  // the shared commit pipeline. All-or-nothing on disk: on error the
  // segment is rolled back to the pre-group boundary and no batch in
  // the group is acknowledged. Fault injection (SimHook::OnWalAppend)
  // still fires per record in in-memory mode, so a simulated crash can
  // land inside a group and lose exactly a suffix of it.
  Status AppendGroup(std::vector<CommitBatch> batches);

  // Every batch in the log above the truncation watermark, sorted by
  // ascending tn. Durable mode reads the segment files (see the class
  // comment) and returns read and CRC errors as errors.
  Result<std::vector<CommitBatch>> Batches() const;

  // Incremental tail for replication: all batches with tn > `after`,
  // sorted by ascending tn (appends may arrive out of tn order under
  // timestamp ordering). Fails with kUnavailable when `after` lies below
  // the truncation watermark — batches in (after, watermark] may have
  // existed and been dropped under a checkpoint, so the caller MUST
  // resync from that checkpoint instead of silently skipping the gap.
  // Durable mode reads as Batches() does, skipping sealed segments that
  // hold no tn above `after`, and without holding the log's lock while
  // it reads, so tailing never stalls a commit.
  Result<std::vector<CommitBatch>> BatchesSince(TxnNumber after) const;

  // Drops batches with tn <= `up_to` (they are covered by a checkpoint)
  // and raises the truncation watermark to `up_to`. Durable mode also
  // deletes sealed segments wholly covered by the watermark and — if
  // the log was space-exhausted — reprobes writability, clearing the
  // degraded state once a fresh segment can be created.
  void Truncate(TxnNumber up_to);

  // Largest `up_to` ever passed to Truncate (0 if never truncated).
  // Tailing below this point is refused by BatchesSince.
  TxnNumber TruncatedUpTo() const;

  // Batches held in memory: the in-memory log's length. Always 0 for a
  // durable log, whose records live only in its segment files.
  size_t size() const;

  // Largest tn appended so far (0 if empty since truncation never drops
  // the maximum unless the checkpoint covers it).
  TxnNumber MaxTn() const;

  // Current failure state: OK, kResourceExhausted (disk full — degraded
  // read-only until space frees), or kDataLoss (fail-stop).
  Status DurabilityHealth() const;

  bool durable() const { return env_ != nullptr; }

  // Number of on-disk segment files (0 in in-memory mode).
  uint64_t SegmentCount() const;

  // ---- serialization (simulated disk image, in-memory mode only) ----

  // Length-prefixed binary encoding of the whole log.
  std::string Serialize() const;

  // Reconstructs a log from Serialize() output. Fails on any framing
  // error (truncated image, bad magic).
  static Result<std::unique_ptr<WriteAheadLog>> Deserialize(
      const std::string& image);

  // True once fault injection (SimHook::OnWalAppend) crashed the log:
  // every record from the crash point on was dropped. The surviving
  // batches are the durable prefix a recovery would see.
  bool SimulatedCrashTriggered() const {
    return crashed_.load(std::memory_order_relaxed);
  }

 private:
  struct SealedSegment {
    uint64_t seq = 0;
    std::string path;
    TxnNumber max_tn = 0;  // 0 = empty segment, deletable any time
    uint64_t end = 0;      // end of its acknowledged records
  };

  // Batches()/BatchesSince(): the batches with tn > max(after,
  // watermark), ascending; kUnavailable if `refuse_gap` and `after` is
  // below the watermark.
  Result<std::vector<CommitBatch>> Collect(TxnNumber after,
                                           bool refuse_gap) const;

  // Durable write of pre-encoded records + fsync, with the rollback /
  // latching policy above. Caller holds mu_.
  Status DurableAppendLocked(const std::string& encoded, TxnNumber group_max);
  // Seals the current segment and starts seq+1. Caller holds mu_.
  Status RotateLocked();
  // Latches the permanent fail-stop state. Caller holds mu_.
  Status LatchFailStopLocked(const Status& cause);

  mutable std::mutex mu_;
  std::vector<CommitBatch> batches_;  // the log itself, in-memory mode only
  TxnNumber max_tn_ = 0;
  TxnNumber truncated_up_to_ = 0;
  std::atomic<bool> crashed_{false};

  // ---- durable mode state (null/empty in in-memory mode) ----
  Env* env_ = nullptr;
  std::string dir_;
  WalDurableOptions dopts_;
  std::unique_ptr<WritableFile> file_;  // current segment, append mode
  std::string file_path_;
  uint64_t file_seq_ = 0;
  TxnNumber file_max_tn_ = 0;  // max tn in the current segment
  // End of the current segment's last acknowledged group: advanced only
  // once a group's sync succeeded, so the bytes below it never change.
  uint64_t acked_end_ = 0;
  std::vector<SealedSegment> sealed_;
  bool failed_ = false;  // permanent fail-stop (fsyncgate)
  std::string failed_reason_;
  bool space_exhausted_ = false;  // recoverable degraded state
  std::string space_reason_;
};

}  // namespace mvcc

#endif  // MVCC_RECOVERY_WAL_H_
