#ifndef MVCC_TESTS_READ_HOOK_ENV_H_
#define MVCC_TESTS_READ_HOOK_ENV_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "recovery/env.h"

namespace mvcc {

// A pass-through Env over the POSIX one that counts whole-file reads per
// path and runs `before_read` (if set) ahead of each: for tests of how
// often the log is read, and of what may change between a reader
// listing a file and reading it. Not thread-safe.
class ReadHookEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    return base_->NewAppendableFile(path);
  }
  Result<std::unique_ptr<WritableFile>> NewPreparedFile(
      const std::string& path, std::string_view header,
      uint64_t size) override {
    return base_->NewPreparedFile(path, header, size);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    ++reads[path];
    if (before_read) before_read(path);
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }

  std::map<std::string, int> reads;
  std::function<void(const std::string& path)> before_read;

 private:
  Env* const base_ = GetPosixEnv();
};

}  // namespace mvcc

#endif  // MVCC_TESTS_READ_HOOK_ENV_H_
