#include "timing_env.h"

#include "common/clock.h"
#include "tracer.h"

namespace mvccbench {

class TimingFile : public mvcc::WritableFile {
 public:
  TimingFile(TimingEnv* env, std::unique_ptr<mvcc::WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  mvcc::Status Append(std::string_view data) override {
    ScopedSpan span(SpanName::kEnvAppend);
    env_->appends_.fetch_add(1, std::memory_order_relaxed);
    env_->append_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }

  mvcc::Status Sync() override {
    const int64_t start = mvcc::NowNanos();
    mvcc::Status s = base_->Sync();
    const int64_t end = mvcc::NowNanos();
    Tracer::Record(SpanName::kEnvSync, start, end);
    env_->syncs_.fetch_add(1, std::memory_order_relaxed);
    env_->sync_ns_.fetch_add(static_cast<uint64_t>(end - start),
                             std::memory_order_relaxed);
    return s;
  }

  mvcc::Status Close() override { return base_->Close(); }
  uint64_t offset() const override { return base_->offset(); }

 private:
  TimingEnv* const env_;
  const std::unique_ptr<mvcc::WritableFile> base_;
};

TimingEnv::Counts TimingEnv::Snapshot() const {
  Counts c;
  c.appends = appends_.load(std::memory_order_relaxed);
  c.append_bytes = append_bytes_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  c.sync_ns = sync_ns_.load(std::memory_order_relaxed);
  c.sync_dirs = sync_dirs_.load(std::memory_order_relaxed);
  c.new_files = new_files_.load(std::memory_order_relaxed);
  return c;
}

mvcc::Result<std::unique_ptr<mvcc::WritableFile>> TimingEnv::NewAppendableFile(
    const std::string& path) {
  ScopedSpan span(SpanName::kEnvNewFile);
  new_files_.fetch_add(1, std::memory_order_relaxed);
  auto file = base_->NewAppendableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<mvcc::WritableFile>(
      new TimingFile(this, std::move(file).value()));
}

mvcc::Status TimingEnv::SyncDir(const std::string& dir) {
  ScopedSpan span(SpanName::kEnvSyncDir);
  sync_dirs_.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(dir);
}

}  // namespace mvccbench
