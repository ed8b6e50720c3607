#ifndef MVCC_STORAGE_VERSION_ARENA_H_
#define MVCC_STORAGE_VERSION_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/latch.h"

namespace mvcc {

// Slab arena backing the latch-free read path's version storage.
//
// The first latch-free read path published immutable version arrays
// behind atomic pointers — and promptly lost to the latched
// baseline on every mixed workload, because the WRITE side paid for the
// read side: every republish was a heap allocation plus a per-array
// EpochManager::Retire (a global mutex, and every 128th call a
// process-wide membarrier storm), and every version payload was an
// std::string heap round trip. This arena is the Larson-et-al.-shaped
// fix: version arrays and version payloads are carved out of large
// cache-line-aligned slabs with a bump pointer, and released blocks are
// reused block by block, with no call into the epoch manager at all.
//
// Lifecycle of a block:
//   live     - handed out by Allocate(), carved from the open slab's
//              bump pointer or popped off a free list.
//   pending  - Release()d: already unlinked from every published
//              structure, but an epoch-pinned reader may still be
//              copying it. The block is stamped with the global epoch
//              at release and queued, FIFO, outside the block itself —
//              nothing is written into its bytes during this phase.
//   free     - the global epoch reached stamp + 2 (the EBR grace rule),
//              so no reader pinned at or before the stamp survives. The
//              block moves onto its size class's intrusive free list
//              (the link is written only now) and the next Allocate of
//              that size hands it out again.
// Slabs are only ever a carve source: they are never retired, and they
// are returned to the heap when the arena closes.
//
// Why reuse is safe (the ABA case the tests pin): a reader holding a
// pointer into a block — a version array mid-binary-search, a payload
// mid-copy — is pinned in an epoch <= the block's stamp (the release
// path fences before loading the stamp, so the unlink is visible to
// every reader that pins a later epoch). The global epoch advances twice
// past the stamp only after every such reader has unpinned, so a block
// never re-enters a free list while any thread that could dereference
// its old contents is still running.
//
// The arena never advances the epoch itself: Allocate and Release run
// under chain latches, where Advance's membarrier must not run. The
// owner drives the cadence — ObjectStore counts releases into
// `release_count` and advances between commits (see
// ObjectStore::MaybeAdvanceEpoch).
//
// Block destructors never run: everything carved from a slab must be
// trivially destructible, which is why VersionChain stores POD slots
// and raw payload bytes rather than std::string.
//
// Allocations larger than LargeThreshold() (oversized payloads, very
// deep chains) bypass the slabs: they are heap-allocated, take the same
// pending queue on release, and go back to the heap instead of a free
// list once their grace period ends.
//
// Thread safety: Allocate(), Release() and GetStats() take the arena's
// spin latch (arenas are per-shard, so this contends about as much as
// the shard's chains do). Close() requires every block to have been
// released and no reader to be pinned on the arena's memory (the object
// store deletes its chains, with no reader left, first).
class VersionArena {
 public:
  static constexpr size_t kDefaultSlabBytes = 1 << 18;  // 256 KiB

  struct Stats {
    uint64_t allocs = 0;           // blocks handed out (slab or heap)
    uint64_t bytes_carved = 0;     // bytes handed out (after rounding)
    uint64_t blocks_reused = 0;    // allocations served by a free list
    uint64_t slabs_allocated = 0;  // slabs taken from the heap
    uint64_t large_allocs = 0;     // heap-path allocations
    // Memory accounting of the slab path; live + pending + free never
    // exceeds resident (the rest is slab tails not yet carved).
    uint64_t resident_bytes = 0;  // slabs held, slabs_allocated * size
    uint64_t live_bytes = 0;      // slab blocks handed out, unreleased
    uint64_t pending_bytes = 0;   // released, grace period not over
    uint64_t free_bytes = 0;      // on the free lists, ready for reuse
  };

  // `slab_bytes` must be >= 4096. `release_count`, when non-null, is
  // credited with every Release(), in batches of kReleaseReportBatch
  // (the owner's epoch-advance cadence).
  static VersionArena* Create(size_t slab_bytes = kDefaultSlabBytes,
                              std::atomic<uint64_t>* release_count = nullptr);

  // Process-wide arena for version chains constructed without an
  // owning store (tests, ad-hoc chains). Never closed.
  static VersionArena* Default();

  // Frees the arena and its slabs. All blocks must already be released
  // and no reader may still hold one.
  void Close();

  // Returns a block of `bytes` (rounded up to 16-byte granularity) from
  // the size class's free list, else the open slab, or the heap if
  // `bytes` exceeds LargeThreshold(). Never returns nullptr for
  // bytes > 0; Allocate(0) returns nullptr.
  void* Allocate(size_t bytes);

  // Releases a block previously allocated with exactly `bytes`. The
  // memory must already be unreachable from every published structure;
  // it stays intact for epoch-pinned readers until its grace period
  // elapses, and only then is it reused (or, if large, freed).
  void Release(void* p, size_t bytes);

  // Allocations strictly larger than this take the heap path.
  size_t LargeThreshold() const { return slab_bytes_ / 8; }

  Stats GetStats() const;

 private:
  struct PendingBlock {
    void* ptr;
    size_t bytes;    // rounded
    uint64_t epoch;  // global epoch at release
  };
  struct FreeBlock {
    FreeBlock* next;
  };

  VersionArena(size_t slab_bytes, std::atomic<uint64_t>* release_count);
  ~VersionArena();

  // Moves every pending block whose grace period has elapsed onto its
  // free list (large blocks: back to the heap). Caller holds latch_.
  void DrainLocked();

  // Releases are credited to release_count_ in batches, so arenas that
  // share one owner do not contend on its counter for every block.
  static constexpr uint64_t kReleaseReportBatch = 16;

  const size_t slab_bytes_;
  std::atomic<uint64_t>* const release_count_;

  mutable SpinLatch latch_;
  // Everything below is guarded by latch_.
  char* bump_ = nullptr;   // next carve position in the open slab
  char* limit_ = nullptr;  // end of the open slab
  std::vector<void*> slabs_;
  // Release-ordered FIFO, so stamps are non-decreasing from the front;
  // entries before pending_head_ have been drained.
  std::vector<PendingBlock> pending_;
  size_t pending_head_ = 0;
  // Intrusive free lists, one per 16-byte size class up to
  // LargeThreshold().
  std::vector<FreeBlock*> free_;

  uint64_t allocs_ = 0;
  uint64_t bytes_carved_ = 0;
  uint64_t blocks_reused_ = 0;
  uint64_t large_allocs_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t pending_bytes_ = 0;
  uint64_t free_bytes_ = 0;
  uint64_t unreported_releases_ = 0;
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_VERSION_ARENA_H_
