#include "recovery/wal.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "common/sim_hook.h"
#include "recovery/env.h"
#include "recovery/log_format.h"

namespace mvcc {

namespace {

constexpr uint64_t kMagic = 0x4D564343574C3031ULL;  // "MVCCWL01"

// Explicit little-endian packing: the simulated disk images written by
// Serialize() round-trip through real files in tests, so they follow
// the same byte-order rule as the durable formats in log_format.cc.
void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

// Reads a little-endian u64 at *pos, advancing it. Returns false on
// underrun.
bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(in[*pos + i]))
           << (8 * i);
  }
  *v = out;
  *pos += 8;
  return true;
}

bool GetString(const std::string& in, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetU64(in, pos, &len)) return false;
  if (*pos + len > in.size()) return false;
  s->assign(in, *pos, len);
  *pos += len;
  return true;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() {
  if (file_) file_->Close();
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::OpenDurable(
    Env* env, const std::string& dir, const WalDurableOptions& options,
    WalOpenReport* report, std::vector<CommitBatch>* scanned) {
  WalOpenReport local_report;
  if (report == nullptr) report = &local_report;
  *report = WalOpenReport{};

  Status s = env->CreateDirIfMissing(dir);
  if (!s.ok()) return s;

  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    const uint64_t seq = ParseWalSegmentFileName(name);
    if (seq != 0) segments.emplace_back(seq, name);
  }
  std::sort(segments.begin(), segments.end());

  auto log = std::unique_ptr<WriteAheadLog>(new WriteAheadLog());
  log->env_ = env;
  log->dir_ = dir;
  log->dopts_ = options;

  uint64_t tail_end = 0;  // where the last segment's next record goes
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = (i + 1 == segments.size());
    const std::string path = dir + "/" + segments[i].second;
    auto image = env->ReadFileToString(path);
    if (!image.ok()) return image.status();
    WalScanResult scan = ScanWalSegment(*image, segments[i].second);
    if (scan.tail == WalTailState::kCorrupt) {
      return Status::DataLoss("WAL corruption: " + scan.detail);
    }
    if (scan.tail == WalTailState::kTorn) {
      if (!last) {
        // A torn record with whole valid segments after it cannot be a
        // crashed final append — the log rotted in the middle.
        return Status::DataLoss(
            "WAL corruption: torn record in sealed segment: " + scan.detail);
      }
      if (options.policy == SalvagePolicy::kStrict) {
        return Status::DataLoss("WAL torn tail (strict policy): " +
                                scan.detail);
      }
      report->salvaged = true;
      report->torn_tail_bytes += image->size() - scan.valid_bytes;
      report->detail = scan.detail;
    }
    if (last && image->size() > scan.valid_bytes) {
      // Appending resumes at the last valid record: drop the torn suffix
      // (salvage) or the prepared segment's zero tail. The rest of this
      // segment then grows the file as it fills; the next rotation
      // prepares a fresh one.
      Status t = env->TruncateFile(path, scan.valid_bytes);
      if (!t.ok()) return t;
    }
    TxnNumber seg_max = 0;
    for (CommitBatch& batch : scan.batches) {
      seg_max = std::max(seg_max, batch.tn);
      if (scanned != nullptr) scanned->push_back(std::move(batch));
    }
    log->max_tn_ = std::max(log->max_tn_, seg_max);
    report->records += scan.batches.size();
    ++report->segments;
    if (last) {
      log->file_seq_ = segments[i].first;
      log->file_path_ = path;
      log->file_max_tn_ = seg_max;
      tail_end = scan.valid_bytes;
    } else {
      log->sealed_.push_back(
          {segments[i].first, path, seg_max, scan.valid_bytes});
    }
  }

  if (segments.empty()) {
    log->file_seq_ = 1;
    log->file_path_ = dir + "/" + WalSegmentFileName(1);
  }
  // A fresh log, or a salvage that truncated away a partial magic, gets
  // a new header with no zero fill (size 0): a young log's newest
  // segment ends at its last record, which mvccbench's durability
  // self-test relies on when it cuts bytes off that file.
  auto file = tail_end < kWalSegmentHeaderBytes
                  ? env->NewPreparedFile(log->file_path_,
                                         EncodeWalSegmentHeader(), 0)
                  : env->NewAppendableFile(log->file_path_);
  if (!file.ok()) return file.status();
  log->file_ = std::move(file).value();
  log->acked_end_ = log->file_->offset();
  return log;
}

Status WriteAheadLog::LatchFailStopLocked(const Status& cause) {
  failed_ = true;
  failed_reason_ = cause.message();
  return Status::DataLoss(failed_reason_);
}

Status WriteAheadLog::RotateLocked() {
  const uint64_t next = file_seq_ + 1;
  const std::string path = dir_ + "/" + WalSegmentFileName(next);
  // Segments are prepared — full size, zero-filled, synced — before a
  // record lands in them, so each group commit's Sync changes no file
  // size or block map. A segment is never reused, so its zero tail can
  // hold no stale record.
  auto created = env_->NewPreparedFile(path, EncodeWalSegmentHeader(),
                                       dopts_.segment_target_bytes);
  if (!created.ok()) {
    env_->DeleteFile(path);  // best effort
    return created.status();
  }
  std::unique_ptr<WritableFile> fresh = std::move(created).value();
  file_->Close();
  sealed_.push_back({file_seq_, file_path_, file_max_tn_, acked_end_});
  file_ = std::move(fresh);
  file_path_ = path;
  file_seq_ = next;
  file_max_tn_ = 0;
  acked_end_ = file_->offset();
  return Status::OK();
}

Status WriteAheadLog::DurableAppendLocked(const std::string& encoded,
                                          TxnNumber group_max) {
  if (failed_) return Status::DataLoss(failed_reason_);
  if (space_exhausted_) return Status::ResourceExhausted(space_reason_);

  const uint64_t pre_group_offset = file_->offset();
  Status s = file_->Append(encoded);
  if (s.ok()) {
    s = file_->Sync();
    if (!s.ok()) {
      // fsyncgate: the kernel may already have dropped the dirty pages;
      // retrying could "succeed" without the data being on disk. Latch
      // fail-stop permanently.
      return LatchFailStopLocked(s);
    }
  } else {
    // The write failed partway: roll the segment back to the last
    // acknowledged record boundary so the disk stays an exact prefix of
    // the acknowledged commit order.
    file_->Close();
    file_.reset();
    Status rollback = env_->TruncateFile(file_path_, pre_group_offset);
    if (rollback.ok()) {
      auto reopened = env_->NewAppendableFile(file_path_);
      if (reopened.ok()) {
        file_ = std::move(reopened).value();
      } else {
        rollback = reopened.status();
      }
    }
    if (!rollback.ok()) {
      return LatchFailStopLocked(Status::DataLoss(
          s.message() + "; rollback also failed: " + rollback.message()));
    }
    if (s.IsResourceExhausted()) {
      // Disk full, but the log is intact: recoverable degraded state.
      space_exhausted_ = true;
      space_reason_ = s.message();
      return s;
    }
    return LatchFailStopLocked(s);
  }

  // The group is acknowledged: readers of the log may now see it.
  acked_end_ = file_->offset();
  file_max_tn_ = std::max(file_max_tn_, group_max);
  if (acked_end_ >= dopts_.segment_target_bytes) {
    // The group is already durable — rotation trouble only affects
    // future appends, so flag it without failing this commit.
    Status rotate = RotateLocked();
    if (rotate.IsResourceExhausted()) {
      space_exhausted_ = true;
      space_reason_ = rotate.message();
    } else if (!rotate.ok()) {
      LatchFailStopLocked(rotate);
    }
  }
  return Status::OK();
}

Status WriteAheadLog::Append(CommitBatch batch) {
  std::vector<CommitBatch> one;
  one.push_back(std::move(batch));
  return AppendGroup(std::move(one));
}

Status WriteAheadLog::AppendGroup(std::vector<CommitBatch> batches) {
  if (batches.empty()) return Status::OK();
  // Per-record crash injection first, outside the lock: a simulated
  // crash keeps the durable prefix of the group and drops the rest,
  // exactly as a sequence of Append calls would.
  size_t keep = batches.size();
  if (SimHook* hook = InstalledSimHook()) {
    keep = 0;
    for (const CommitBatch& batch : batches) {
      if (crashed_.load(std::memory_order_relaxed) ||
          hook->OnWalAppend(batch.tn)) {
        crashed_.store(true, std::memory_order_relaxed);
        break;
      }
      ++keep;
    }
  }
  if (keep == 0) return Status::OK();
  TxnNumber group_max = 0;
  for (size_t i = 0; i < keep; ++i) {
    group_max = std::max(group_max, batches[i].tn);
  }
  std::lock_guard<std::mutex> guard(mu_);
  if (env_ != nullptr) {
    std::string encoded;
    for (size_t i = 0; i < keep; ++i) encoded += EncodeWalRecord(batches[i]);
    // On error nothing was acknowledged: the pipeline discards the
    // group's tns, so visibility never passes an unflushed record.
    Status s = DurableAppendLocked(encoded, group_max);
    if (!s.ok()) return s;
  } else {
    for (size_t i = 0; i < keep; ++i) {
      batches_.push_back(std::move(batches[i]));
    }
  }
  max_tn_ = std::max(max_tn_, group_max);
  return Status::OK();
}

Result<std::vector<CommitBatch>> WriteAheadLog::Batches() const {
  return Collect(0, /*refuse_gap=*/false);
}

Result<std::vector<CommitBatch>> WriteAheadLog::BatchesSince(
    TxnNumber after) const {
  return Collect(after, /*refuse_gap=*/true);
}

Result<std::vector<CommitBatch>> WriteAheadLog::Collect(
    TxnNumber after, bool refuse_gap) const {
  for (;;) {
    std::vector<CommitBatch> out;
    std::vector<SealedSegment> spans;  // what to read, and how far
    TxnNumber floor = 0;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (refuse_gap && after < truncated_up_to_) {
        return Status::Unavailable(
            "WAL truncated past tn " + std::to_string(after) +
            " (watermark " + std::to_string(truncated_up_to_) +
            "); resync from checkpoint");
      }
      floor = std::max(after, truncated_up_to_);
      for (const CommitBatch& batch : batches_) {
        if (batch.tn > floor) out.push_back(batch);
      }
      for (const SealedSegment& seg : sealed_) {
        if (seg.max_tn > floor) spans.push_back(seg);
      }
      if (env_ != nullptr && file_max_tn_ > floor) {
        spans.push_back({file_seq_, file_path_, file_max_tn_, acked_end_});
      }
    }
    // Sealed segments and the current one's acknowledged prefix never
    // change, so they are read without mu_. Only a concurrent Truncate()
    // can touch them, by deleting a segment the watermark now covers:
    // then start over from the new watermark.
    bool truncated_under_us = false;
    for (const SealedSegment& span : spans) {
      Result<std::string> image = env_->ReadFileToString(span.path);
      if (!image.ok()) {
        if (image.status().IsNotFound() && TruncatedUpTo() >= span.max_tn) {
          truncated_under_us = true;
          break;
        }
        return image.status();
      }
      if (image->size() < span.end) {
        return Status::DataLoss("WAL segment " + span.path +
                                " is shorter than its acknowledged end");
      }
      WalScanResult scan = ScanWalSegment(
          std::string_view(*image).substr(0, span.end), span.path);
      if (scan.tail != WalTailState::kClean || scan.valid_bytes != span.end) {
        return Status::DataLoss("WAL corruption in acknowledged records: " +
                                (scan.detail.empty() ? span.path
                                                     : scan.detail));
      }
      for (CommitBatch& batch : scan.batches) {
        if (batch.tn > floor) out.push_back(std::move(batch));
      }
    }
    if (truncated_under_us) continue;
    std::sort(out.begin(), out.end(),
              [](const CommitBatch& a, const CommitBatch& b) {
                return a.tn < b.tn;
              });
    return out;
  }
}

void WriteAheadLog::Truncate(TxnNumber up_to) {
  std::lock_guard<std::mutex> guard(mu_);
  truncated_up_to_ = std::max(truncated_up_to_, up_to);
  batches_.erase(std::remove_if(batches_.begin(), batches_.end(),
                                [up_to](const CommitBatch& b) {
                                  return b.tn <= up_to;
                                }),
                 batches_.end());
  if (env_ == nullptr) return;

  // Delete sealed segments wholly covered by the watermark — this is
  // what actually frees disk space after a checkpoint.
  bool deleted = false;
  for (auto it = sealed_.begin(); it != sealed_.end();) {
    if (it->max_tn <= truncated_up_to_) {
      env_->DeleteFile(it->path);  // best effort; re-scanned if it stays
      it = sealed_.erase(it);
      deleted = true;
    } else {
      ++it;
    }
  }
  if (deleted) env_->SyncDir(dir_);

  if (space_exhausted_ && !failed_) {
    // Reprobe writability by rotating to a fresh segment: if it can be
    // prepared (filled and synced), space is back and the degraded
    // read-only mode lifts.
    if (RotateLocked().ok()) {
      space_exhausted_ = false;
      space_reason_.clear();
    }
  }
}

TxnNumber WriteAheadLog::TruncatedUpTo() const {
  std::lock_guard<std::mutex> guard(mu_);
  return truncated_up_to_;
}

size_t WriteAheadLog::size() const {
  std::lock_guard<std::mutex> guard(mu_);
  return batches_.size();
}

TxnNumber WriteAheadLog::MaxTn() const {
  std::lock_guard<std::mutex> guard(mu_);
  return max_tn_;
}

Status WriteAheadLog::DurabilityHealth() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (failed_) return Status::DataLoss(failed_reason_);
  if (space_exhausted_) return Status::ResourceExhausted(space_reason_);
  return Status::OK();
}

uint64_t WriteAheadLog::SegmentCount() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (env_ == nullptr) return 0;
  return sealed_.size() + 1;
}

std::string WriteAheadLog::Serialize() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out;
  PutU64(&out, kMagic);
  PutU64(&out, batches_.size());
  for (const CommitBatch& batch : batches_) {
    PutU64(&out, batch.txn);
    PutU64(&out, batch.tn);
    PutU64(&out, batch.writes.size());
    for (const LoggedWrite& w : batch.writes) {
      PutU64(&out, w.key);
      PutString(&out, w.value);
    }
  }
  return out;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Deserialize(
    const std::string& image) {
  size_t pos = 0;
  uint64_t magic = 0;
  if (!GetU64(image, &pos, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad WAL image magic");
  }
  uint64_t count = 0;
  if (!GetU64(image, &pos, &count)) {
    return Status::InvalidArgument("truncated WAL image (batch count)");
  }
  auto log = std::make_unique<WriteAheadLog>();
  for (uint64_t i = 0; i < count; ++i) {
    CommitBatch batch;
    uint64_t writes = 0;
    if (!GetU64(image, &pos, &batch.txn) ||
        !GetU64(image, &pos, &batch.tn) ||
        !GetU64(image, &pos, &writes)) {
      return Status::InvalidArgument("truncated WAL image (batch header)");
    }
    batch.writes.reserve(writes);
    for (uint64_t w = 0; w < writes; ++w) {
      LoggedWrite write;
      if (!GetU64(image, &pos, &write.key) ||
          !GetString(image, &pos, &write.value)) {
        return Status::InvalidArgument("truncated WAL image (write)");
      }
      batch.writes.push_back(std::move(write));
    }
    log->Append(std::move(batch));
  }
  if (pos != image.size()) {
    return Status::InvalidArgument("trailing bytes in WAL image");
  }
  return log;
}

}  // namespace mvcc
