#include "gc/garbage_collector.h"

#include <algorithm>

#include "common/epoch.h"

namespace mvcc {

GarbageCollector::GarbageCollector(ObjectStore* store, VisibilitySource* vc,
                                   ReaderRegistry* readers)
    : store_(store), vc_(vc), readers_(readers) {}

GarbageCollector::~GarbageCollector() { Stop(); }

void GarbageCollector::Start(std::chrono::milliseconds interval) {
  Stop();
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this, interval] { Loop(interval); });
}

void GarbageCollector::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

size_t GarbageCollector::RunOnce() {
  const size_t reclaimed = store_->PruneAll(Watermark());
  // Pruning only unlinks: replaced version arrays sit on the epoch
  // manager's retire list until every reader that could hold them has
  // unpinned. Advance the epoch twice so garbage unlinked by THIS pass
  // normally clears its two-epoch grace period by the pass's end
  // (each call advances at most one epoch, and only when no reader
  // straddles the previous one).
  size_t freed = EpochManager::Global().Advance();
  freed += EpochManager::Global().Advance();
  // The same advances end the grace period of the arena blocks this
  // pass released, so the shards' next allocations reuse them.
  ebr_freed_.fetch_add(freed, std::memory_order_relaxed);
  total_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  passes_.fetch_add(1, std::memory_order_relaxed);
  return reclaimed;
}

VersionNumber GarbageCollector::Watermark() {
  // One exact fold per pass (the sharded core's floor is a min over
  // shard cursors); every chain pruned by the pass then reuses this
  // scalar. Re-loading vtnc per item was the scalar-consumer cold path
  // this seam removes.
  VersionNumber watermark = vc_->RefreshFloor();
  floor_refreshes_.fetch_add(1, std::memory_order_relaxed);
  if (readers_ != nullptr) {
    if (auto min_reader = readers_->MinActive()) {
      watermark = std::min(watermark, *min_reader);
    }
  }
  return watermark;
}

void GarbageCollector::Loop(std::chrono::milliseconds interval) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    RunOnce();
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stop_; });
  }
}

}  // namespace mvcc
