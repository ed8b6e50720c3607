#include "storage/version_arena.h"

#include <new>

#include "common/check.h"
#include "common/epoch.h"

namespace mvcc {

namespace {

constexpr size_t kBlockAlign = 16;
// Slabs are cache-line aligned so carved blocks start on line
// boundaries whenever their sizes allow.
constexpr std::align_val_t kSlabAlign{64};

size_t RoundUp(size_t bytes) {
  return (bytes + (kBlockAlign - 1)) & ~(kBlockAlign - 1);
}

}  // namespace

VersionArena* VersionArena::Create(size_t slab_bytes,
                                   std::atomic<uint64_t>* release_count) {
  MVCC_CHECK(slab_bytes >= 4096);
  return new VersionArena(slab_bytes, release_count);
}

VersionArena* VersionArena::Default() {
  // Intentionally never closed: standalone chains release through it for
  // the life of the process, and the static pointer keeps it reachable
  // for leak checkers.
  static VersionArena* arena = Create();
  return arena;
}

VersionArena::VersionArena(size_t slab_bytes,
                           std::atomic<uint64_t>* release_count)
    : slab_bytes_(slab_bytes),
      release_count_(release_count),
      free_(LargeThreshold() / kBlockAlign + 1, nullptr) {}

VersionArena::~VersionArena() {
  for (size_t i = pending_head_; i < pending_.size(); ++i) {
    if (pending_[i].bytes > LargeThreshold()) {
      ::operator delete(pending_[i].ptr);
    }
  }
  for (void* slab : slabs_) ::operator delete(slab, kSlabAlign);
}

void VersionArena::Close() { delete this; }

void VersionArena::DrainLocked() {
  if (pending_head_ == pending_.size()) return;
  const uint64_t global = EpochManager::Global().global_epoch();
  while (pending_head_ < pending_.size() &&
         pending_[pending_head_].epoch + 2 <= global) {
    const PendingBlock& b = pending_[pending_head_++];
    if (b.bytes > LargeThreshold()) {
      ::operator delete(b.ptr);
      continue;
    }
    // The grace period is over: no reader can still be copying the
    // block, so writing the free-list link into it is finally safe.
    FreeBlock* block = static_cast<FreeBlock*>(b.ptr);
    block->next = free_[b.bytes / kBlockAlign];
    free_[b.bytes / kBlockAlign] = block;
    pending_bytes_ -= b.bytes;
    free_bytes_ += b.bytes;
  }
  // Compact the consumed prefix once it dominates, keeping the FIFO's
  // footprint proportional to what is actually pending.
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  } else if (pending_head_ >= 1024 && pending_head_ * 2 >= pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

void* VersionArena::Allocate(size_t bytes) {
  if (bytes == 0) return nullptr;
  const size_t rounded = RoundUp(bytes);
  if (rounded > LargeThreshold()) {
    {
      std::lock_guard<SpinLatch> guard(latch_);
      ++allocs_;
      bytes_carved_ += rounded;
      ++large_allocs_;
    }
    return ::operator new(rounded);
  }
  std::lock_guard<SpinLatch> guard(latch_);
  ++allocs_;
  bytes_carved_ += rounded;
  DrainLocked();
  live_bytes_ += rounded;
  FreeBlock*& head = free_[rounded / kBlockAlign];
  if (head != nullptr) {
    FreeBlock* block = head;
    head = block->next;
    free_bytes_ -= rounded;
    ++blocks_reused_;
    return block;
  }
  if (static_cast<size_t>(limit_ - bump_) < rounded) {
    // The open slab's tail is too short: leave it uncarved and open a
    // fresh slab (tails show up as resident minus the other byte counts).
    char* slab = static_cast<char*>(::operator new(slab_bytes_, kSlabAlign));
    slabs_.push_back(slab);
    bump_ = slab;
    limit_ = slab + slab_bytes_;
  }
  void* p = bump_;
  bump_ += rounded;
  return p;
}

void VersionArena::Release(void* p, size_t bytes) {
  if (p == nullptr || bytes == 0) return;
  const size_t rounded = RoundUp(bytes);
  bool report = false;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    // Stamped under the latch, so stamps enter the FIFO in order.
    pending_.push_back(
        PendingBlock{p, rounded, EpochManager::Global().UnlinkEpoch()});
    if (rounded <= LargeThreshold()) {
      live_bytes_ -= rounded;
      pending_bytes_ += rounded;
    }
    DrainLocked();
    if (++unreported_releases_ == kReleaseReportBatch) {
      unreported_releases_ = 0;
      report = true;
    }
  }
  if (report && release_count_ != nullptr) {
    release_count_->fetch_add(kReleaseReportBatch, std::memory_order_relaxed);
  }
}

VersionArena::Stats VersionArena::GetStats() const {
  std::lock_guard<SpinLatch> guard(latch_);
  Stats s;
  s.allocs = allocs_;
  s.bytes_carved = bytes_carved_;
  s.blocks_reused = blocks_reused_;
  s.slabs_allocated = slabs_.size();
  s.large_allocs = large_allocs_;
  s.resident_bytes = slabs_.size() * slab_bytes_;
  s.live_bytes = live_bytes_;
  s.pending_bytes = pending_bytes_;
  s.free_bytes = free_bytes_;
  return s;
}

}  // namespace mvcc
