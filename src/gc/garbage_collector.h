#ifndef MVCC_GC_GARBAGE_COLLECTOR_H_
#define MVCC_GC_GARBAGE_COLLECTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/ids.h"
#include "gc/reader_registry.h"
#include "storage/object_store.h"
#include "vc/visibility_source.h"

namespace mvcc {

// Background version pruner (Section 6). The only restriction version
// control imposes is that no version as young as or younger than vtnc may
// be discarded; additionally any version an active read-only transaction
// could still read must survive. Hence:
//
//   watermark = min(vtnc, min active read-only sn)
//
// and for each object, every version strictly older than the newest
// version <= watermark is unreachable and reclaimed. The collector never
// touches the concurrency control component — the separation the paper
// calls "quite elegant and desirable".
class GarbageCollector {
 public:
  GarbageCollector(ObjectStore* store, VisibilitySource* vc,
                   ReaderRegistry* readers);
  ~GarbageCollector();

  GarbageCollector(const GarbageCollector&) = delete;
  GarbageCollector& operator=(const GarbageCollector&) = delete;

  // Starts the background thread with the given pass interval.
  void Start(std::chrono::milliseconds interval);

  // Stops the background thread (idempotent).
  void Stop();

  // Runs one synchronous collection pass; returns versions reclaimed.
  size_t RunOnce();

  // Current safe pruning watermark, from ONE exact visibility-floor fold
  // (RefreshFloor): call once per pass/batch (a pass, or one commit's
  // inline sweep), never per item. Counted in floor_refreshes().
  VersionNumber Watermark();

  uint64_t total_reclaimed() const {
    return total_reclaimed_.load(std::memory_order_relaxed);
  }
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }

  // Exact visibility-floor folds this collector performed — one per
  // Watermark() call, i.e. one per pass or inline-swept commit, not one
  // per pruned chain.
  uint64_t floor_refreshes() const {
    return floor_refreshes_.load(std::memory_order_relaxed);
  }

  // Retired snapshots (version arrays, index tables) whose grace period
  // elapsed and that this collector's epoch advances actually freed.
  // Pruning unlinks versions; this is the deferred second half.
  uint64_t ebr_freed() const {
    return ebr_freed_.load(std::memory_order_relaxed);
  }

 private:
  void Loop(std::chrono::milliseconds interval);

  ObjectStore* const store_;
  VisibilitySource* const vc_;
  ReaderRegistry* const readers_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::atomic<uint64_t> total_reclaimed_{0};
  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> floor_refreshes_{0};
  std::atomic<uint64_t> ebr_freed_{0};
};

}  // namespace mvcc

#endif  // MVCC_GC_GARBAGE_COLLECTOR_H_
