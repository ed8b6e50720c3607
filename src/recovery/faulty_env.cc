#include "recovery/faulty_env.h"

#include <algorithm>
#include <utility>

#include "common/sim_hook.h"

namespace mvcc {

namespace {

Status CrashStatus(const char* op) {
  return Status::DataLoss(std::string("injected crash at ") + op);
}

// The status a fault at an op that persists no record bytes (sync,
// rename, delete, ...) returns: with nothing to tear or flip, those
// fail like EIO. OK for kNone.
Status OpFaultStatus(FaultKind fault, const char* op,
                     const std::string& what) {
  switch (fault) {
    case FaultKind::kCrash:
      return CrashStatus(op);
    case FaultKind::kEio:
    case FaultKind::kTornWrite:
    case FaultKind::kBitFlip:
      return Status::DataLoss("injected EIO: " + what);
    case FaultKind::kEnospc:
      return Status::ResourceExhausted("injected ENOSPC: " + what);
    case FaultKind::kNone:
      break;
  }
  return Status::OK();
}

}  // namespace

// Wraps a base WritableFile; each Append/Sync consults the env for the
// fault to inject before touching the base file. Bytes written below
// `charged_end` (the file's size when opened, or a prepared file's
// full size, charged at fill time) overwrite space already charged
// against the finite-disk model; only bytes past it are charged.
class FaultyWritableFile final : public WritableFile {
 public:
  FaultyWritableFile(FaultyEnv* env, std::string path,
                     std::unique_ptr<WritableFile> base, uint64_t charged_end)
      : env_(env),
        path_(std::move(path)),
        base_(std::move(base)),
        charged_end_(charged_end) {}

  Status Append(std::string_view data) override {
    const FaultKind fault = env_->NextOp("append");
    switch (fault) {
      case FaultKind::kCrash:
        return CrashStatus("append");
      case FaultKind::kEio:
        return Status::DataLoss("injected EIO: write " + path_);
      case FaultKind::kEnospc:
        return Status::ResourceExhausted("injected ENOSPC: write " + path_);
      case FaultKind::kTornWrite: {
        // Persist a non-empty strict prefix — the classic torn tail the
        // recovery scan must detect and salvage.
        const size_t keep = std::max<size_t>(1, data.size() / 2);
        Status s = AppendCharged(data.substr(0, keep));
        if (!s.ok()) return s;
        return Status::DataLoss("injected torn write: " + path_);
      }
      case FaultKind::kBitFlip: {
        std::string corrupt(data);
        if (!corrupt.empty()) corrupt[corrupt.size() / 2] ^= 0x10;
        // The write "succeeds": the caller acknowledges the commit and
        // only recovery's CRC scan can notice.
        return AppendCharged(corrupt);
      }
      case FaultKind::kNone:
        break;
    }
    if (env_->OverCapacity(Uncharged(data.size()))) {
      return Status::ResourceExhausted("injected ENOSPC (disk full): write " +
                                       path_);
    }
    return AppendCharged(data);
  }

  Status Sync() override {
    Status s = OpFaultStatus(env_->NextOp("sync"), "sync", "fsync " + path_);
    if (!s.ok()) return s;
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }
  uint64_t offset() const override { return base_->offset(); }

 private:
  // Bytes of an n-byte write at offset() that land past charged_end_.
  uint64_t Uncharged(uint64_t n) const {
    const uint64_t end = base_->offset() + n;
    return end > charged_end_ ? end - charged_end_ : 0;
  }

  Status AppendCharged(std::string_view data) {
    const uint64_t extra = Uncharged(data.size());
    Status s = base_->Append(data);
    if (s.ok()) {
      env_->ChargeBytes(path_, extra);
      charged_end_ += extra;
    }
    return s;
  }

  FaultyEnv* const env_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
  uint64_t charged_end_;
};

FaultyEnv::FaultyEnv(Env* base) : base_(base) {}

void FaultyEnv::FailAt(uint64_t index, FaultKind kind) {
  std::lock_guard<std::mutex> guard(mu_);
  by_index_[index] = kind;
}

void FaultyEnv::FailAtOp(const std::string& op, uint64_t nth, FaultKind kind) {
  std::lock_guard<std::mutex> guard(mu_);
  by_op_[op][nth] = kind;
}

void FaultyEnv::set_capacity_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> guard(mu_);
  capacity_bytes_ = bytes;
}

uint64_t FaultyEnv::op_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return next_index_;
}

uint64_t FaultyEnv::used_bytes() const {
  std::lock_guard<std::mutex> guard(mu_);
  return used_bytes_;
}

bool FaultyEnv::crashed() const {
  std::lock_guard<std::mutex> guard(mu_);
  return crashed_;
}

void FaultyEnv::ClearFaults() {
  std::lock_guard<std::mutex> guard(mu_);
  crashed_ = false;
  by_index_.clear();
  by_op_.clear();
}

FaultKind FaultyEnv::NextOp(const char* op) {
  std::lock_guard<std::mutex> guard(mu_);
  const uint64_t index = next_index_++;
  const uint64_t nth_of_op = op_counts_[op]++;
  if (crashed_) return FaultKind::kCrash;

  FaultKind kind = FaultKind::kNone;
  if (auto it = by_index_.find(index); it != by_index_.end()) {
    kind = it->second;
  } else if (auto op_it = by_op_.find(op); op_it != by_op_.end()) {
    if (auto nth_it = op_it->second.find(nth_of_op);
        nth_it != op_it->second.end()) {
      kind = nth_it->second;
    }
  }
  // The simulator's fault query can force a crash at any index even when
  // nothing is armed explicitly (crash-matrix enumeration). Safe under
  // mu_: OnEnvOp never yields.
  if (kind == FaultKind::kNone) {
    if (SimHook* hook = InstalledSimHook()) {
      if (hook->OnEnvOp(op, index)) kind = FaultKind::kCrash;
    }
  }
  if (kind == FaultKind::kCrash) crashed_ = true;
  return kind;
}

void FaultyEnv::ChargeBytes(const std::string& path, uint64_t n) {
  std::lock_guard<std::mutex> guard(mu_);
  used_bytes_ += n;
  file_bytes_[path] += n;
}

void FaultyEnv::CreditFile(const std::string& path) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = file_bytes_.find(path);
  if (it == file_bytes_.end()) return;
  used_bytes_ -= std::min(used_bytes_, it->second);
  file_bytes_.erase(it);
}

bool FaultyEnv::OverCapacity(uint64_t extra) const {
  std::lock_guard<std::mutex> guard(mu_);
  return capacity_bytes_ != 0 && used_bytes_ + extra > capacity_bytes_;
}

Result<std::unique_ptr<WritableFile>> FaultyEnv::NewAppendableFile(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (crashed_) return CrashStatus("open");
  }
  auto base = base_->NewAppendableFile(path);
  if (!base.ok()) return base.status();
  const uint64_t size = (*base)->offset();
  return std::unique_ptr<WritableFile>(std::make_unique<FaultyWritableFile>(
      this, path, std::move(base).value(), size));
}

Result<std::unique_ptr<WritableFile>> FaultyEnv::NewPreparedFile(
    const std::string& path, std::string_view header, uint64_t size) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (crashed_) return CrashStatus("open");
  }
  // The prepared file replaces whatever was at `path`.
  CreditFile(path);
  std::string image(std::max<uint64_t>(size, header.size()), '\0');
  image.replace(0, header.size(), header);
  // A fault at one step leaves on disk what the steps before it wrote,
  // plus a torn prefix of its own write; written through the base Env,
  // unnumbered. (A crash never loses written bytes here, synced or not:
  // the decorator models no page cache.)
  auto leave = [&](uint64_t bytes, Status cause) -> Status {
    base_->DeleteFile(path);
    auto file = base_->NewAppendableFile(path);
    if (!file.ok()) return cause;
    if ((*file)->Append(std::string_view(image).substr(0, bytes)).ok()) {
      ChargeBytes(path, bytes);
    }
    (*file)->Close();
    return cause;
  };

  // Steps 1 and 2: the header write, then the zero fill, which charges
  // the disk model for the whole file (records written into it later
  // cost nothing more). A torn write persists half of its own bytes; a
  // bit flip fails like EIO, as no record is in the file yet to corrupt.
  const std::pair<const char*, uint64_t> writes[] = {
      {"append", header.size()}, {"fill", image.size()}};
  uint64_t written = 0;
  for (const auto& [op, end] : writes) {
    if (end == written) continue;  // no fill for a header-only file
    const FaultKind fault = NextOp(op);
    if (fault == FaultKind::kTornWrite) {
      return leave(written + std::max<uint64_t>(1, (end - written) / 2),
                   Status::DataLoss("injected torn write: " + path));
    }
    Status s = OpFaultStatus(fault, op, "write " + path);
    if (s.ok() && OverCapacity(end)) {
      s = Status::ResourceExhausted("injected ENOSPC (disk full): write " +
                                    path);
    }
    if (!s.ok()) return leave(written, s);
    written = end;
  }
  // Steps 3 and 4: the file sync, then the directory sync.
  Status s = OpFaultStatus(NextOp("sync"), "sync", "fsync " + path);
  if (s.ok()) {
    s = OpFaultStatus(NextOp("syncdir"), "syncdir",
                      "fsync(dir) " + EnvParentDir(path));
  }
  if (!s.ok()) return leave(image.size(), s);

  auto base = base_->NewPreparedFile(path, header, size);
  if (!base.ok()) return base.status();
  ChargeBytes(path, image.size());
  return std::unique_ptr<WritableFile>(std::make_unique<FaultyWritableFile>(
      this, path, std::move(base).value(), image.size()));
}

Result<std::string> FaultyEnv::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}

bool FaultyEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultyEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Result<std::vector<std::string>> FaultyEnv::ListDir(const std::string& dir) {
  return base_->ListDir(dir);
}

Status FaultyEnv::DeleteFile(const std::string& path) {
  Status s = OpFaultStatus(NextOp("delete"), "delete", "unlink " + path);
  if (!s.ok()) return s;
  s = base_->DeleteFile(path);
  if (s.ok() || s.IsNotFound()) CreditFile(path);
  return s;
}

Status FaultyEnv::RenameFile(const std::string& from, const std::string& to) {
  Status s = OpFaultStatus(NextOp("rename"), "rename", "rename " + from);
  if (!s.ok()) return s;
  s = base_->RenameFile(from, to);
  if (s.ok()) {
    std::lock_guard<std::mutex> guard(mu_);
    if (auto it = file_bytes_.find(from); it != file_bytes_.end()) {
      file_bytes_[to] += it->second;
      file_bytes_.erase(it);
    }
  }
  return s;
}

Status FaultyEnv::TruncateFile(const std::string& path, uint64_t size) {
  Status s =
      OpFaultStatus(NextOp("truncate"), "truncate", "truncate " + path);
  if (!s.ok()) return s;
  s = base_->TruncateFile(path, size);
  if (s.ok()) {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = file_bytes_.find(path);
    if (it != file_bytes_.end() && it->second > size) {
      used_bytes_ -= std::min(used_bytes_, it->second - size);
      it->second = size;
    }
  }
  return s;
}

Status FaultyEnv::CreateDirIfMissing(const std::string& dir) {
  if (NextOp("mkdir") == FaultKind::kCrash) return CrashStatus("mkdir");
  return base_->CreateDirIfMissing(dir);
}

Status FaultyEnv::SyncDir(const std::string& dir) {
  Status s = OpFaultStatus(NextOp("syncdir"), "syncdir", "fsync(dir) " + dir);
  if (!s.ok()) return s;
  return base_->SyncDir(dir);
}

}  // namespace mvcc
