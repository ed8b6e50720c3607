#ifndef MVCCBENCH_TIMING_ENV_H_
#define MVCCBENCH_TIMING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recovery/env.h"

namespace mvccbench {

// An Env decorator that times the durability layer from outside the
// library: every WritableFile::Append and ::Sync, every SyncDir and every
// new file is counted and, while the Tracer records, becomes an env.*
// span. Everything else forwards to the wrapped Env unchanged.
class TimingEnv : public mvcc::Env {
 public:
  struct Counts {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
    uint64_t sync_dirs = 0;
    uint64_t new_files = 0;
  };

  explicit TimingEnv(mvcc::Env* base) : base_(base) {}

  Counts Snapshot() const;

  mvcc::Result<std::unique_ptr<mvcc::WritableFile>> NewAppendableFile(
      const std::string& path) override;
  mvcc::Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  mvcc::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  mvcc::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  mvcc::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  mvcc::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  mvcc::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  mvcc::Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  mvcc::Status SyncDir(const std::string& dir) override;

 private:
  friend class TimingFile;

  mvcc::Env* const base_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<uint64_t> sync_dirs_{0};
  std::atomic<uint64_t> new_files_{0};
};

}  // namespace mvccbench

#endif  // MVCCBENCH_TIMING_ENV_H_
