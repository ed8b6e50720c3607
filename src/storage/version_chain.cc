#include "storage/version_chain.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/sim_hook.h"

namespace mvcc {

namespace {

// Write-side tallies, striped so the accounting itself never becomes a
// contention point on the path it is supposed to measure.
struct ChainStatsCells {
  StripedCounter installs_in_place;
  StripedCounter republishes;
  StripedCounter prunes_in_place;
};

ChainStatsCells& StatsCells() {
  static ChainStatsCells cells;
  return cells;
}

}  // namespace

ChainWriteStats GetChainWriteStats() {
  ChainStatsCells& cells = StatsCells();
  ChainWriteStats s;
  s.installs_in_place =
      static_cast<uint64_t>(cells.installs_in_place.Sum());
  s.republishes = static_cast<uint64_t>(cells.republishes.Sum());
  s.prunes_in_place = static_cast<uint64_t>(cells.prunes_in_place.Sum());
  return s;
}

VersionChain::VersionChain(VersionArena* arena, StripedCounter* version_counter)
    : arena_(arena != nullptr ? arena : VersionArena::Default()),
      version_counter_(version_counter),
      array_(nullptr) {
  array_.store(MakeArray(kInitialCapacity), std::memory_order_relaxed);
}

VersionChain::~VersionChain() {
  // Retired generations were released at republish time; only the live
  // one and its payloads are ours. Callers guarantee no reader holds
  // the chain here, so the blocks go straight back to the arena (which
  // still defers physical reuse behind the epoch grace period).
  VersionArray* arr = array_.load(std::memory_order_relaxed);
  const size_t s = arr->start.load(std::memory_order_relaxed);
  const size_t n = arr->count.load(std::memory_order_relaxed);
  for (size_t i = s; i < n; ++i) ReleasePayload(arr->slots()[i]);
  ReleaseArray(arr);
}

VersionChain::VersionArray* VersionChain::MakeArray(size_t capacity) {
  static_assert(alignof(VersionSlot) <= alignof(VersionArray),
                "trailing slots would be misaligned");
  void* mem = arena_->Allocate(VersionArray::AllocBytes(capacity));
  // Slots are left uninitialized: [start, count) starts empty and slots
  // are fully written before each count bump publishes them.
  return new (mem) VersionArray(static_cast<uint32_t>(capacity));
}

void VersionChain::ReleaseArray(VersionArray* arr) {
  arena_->Release(arr, VersionArray::AllocBytes(arr->capacity));
}

const char* VersionChain::CopyPayload(const Value& value) {
  if (value.empty()) return nullptr;
  char* p = static_cast<char*>(arena_->Allocate(value.size()));
  std::memcpy(p, value.data(), value.size());
  return p;
}

void VersionChain::ReleasePayload(const VersionSlot& slot) {
  if (slot.len != 0) {
    arena_->Release(const_cast<char*>(slot.data), slot.len);
  }
}

void VersionChain::Install(const Version& v) {
  // Observe, never schedule: Install is called from contexts that hold
  // real mutexes (replica apply, recovery), where a sim yield would
  // wedge the cooperative scheduler. The commit pipeline provides the
  // schedule point ("commit.install") from its lock-free context.
  SimObserve(this, "chain.install", v.number, 0);
  VersionSlot slot;
  slot.number = v.number;
  slot.writer = v.writer;
  slot.len = static_cast<uint32_t>(v.value.size());
  slot.reserved = 0;
  // Payload copy happens before taking the latch: the memcpy (and any
  // slab the arena opens for it) must not extend the writer critical
  // section other installers spin on.
  slot.data = CopyPayload(v.value);
  if (version_counter_ != nullptr) version_counter_->Add(1);
  std::lock_guard<SpinLatch> guard(latch_);
  VersionArray* arr = array_.load(std::memory_order_relaxed);
  const size_t s = arr->start.load(std::memory_order_relaxed);
  const size_t n = arr->count.load(std::memory_order_relaxed);
  if ((n == s || arr->slots()[n - 1].number < v.number) && n < arr->capacity) {
    // Common case: commits arrive in ascending tn order and spare
    // capacity exists. Fill the writer-private slot, then publish it
    // with a release store of the count — concurrent readers loaded a
    // smaller count and never look at slot n.
    arr->slots()[n] = slot;
    arr->count.store(n + 1, std::memory_order_release);
    StatsCells().installs_in_place.Add(1);
    return;
  }
  // Rare path: capacity exhausted, or a TO writer with a smaller tn
  // committed after a larger one. Copy into a fresh array and swap.
  const size_t insert_at = UpperBound(arr->slots(), s, n, v.number);
  Republish(arr, s, n, insert_at, &slot, /*drop=*/SIZE_MAX);
}

bool VersionChain::Remove(VersionNumber number) {
  VersionSlot removed;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    VersionArray* arr = array_.load(std::memory_order_relaxed);
    const size_t s = arr->start.load(std::memory_order_relaxed);
    const size_t n = arr->count.load(std::memory_order_relaxed);
    const size_t idx = UpperBound(arr->slots(), s, n, number);
    if (idx == s || arr->slots()[idx - 1].number != number) return false;
    // Shrinking `count` in place is not an option: a pinned reader that
    // already loaded the larger count may be mid-search in the removed
    // slot, and a later in-place install would overwrite it underneath
    // them. Republishing without the victim keeps every published array
    // immutable.
    removed = arr->slots()[idx - 1];
    Republish(arr, s, n, /*insert_at=*/SIZE_MAX, nullptr, /*drop=*/idx - 1);
  }
  ReleasePayload(removed);
  if (version_counter_ != nullptr) version_counter_->Add(-1);
  return true;
}

size_t VersionChain::Prune(VersionNumber watermark) {
  std::lock_guard<SpinLatch> guard(latch_);
  VersionArray* arr = array_.load(std::memory_order_relaxed);
  const size_t s = arr->start.load(std::memory_order_relaxed);
  const size_t n = arr->count.load(std::memory_order_relaxed);
  // Index just past the newest version <= watermark; everything before
  // that version is unreachable by any current or future reader.
  const size_t cut = UpperBound(arr->slots(), s, n, watermark);
  if (cut <= s + 1) return 0;
  const size_t removed = cut - 1 - s;
  // O(1) prune: publish the narrowed window and walk away. The dropped
  // slots stay physically intact — a reader that loaded the old `start`
  // may still binary-search them, and their payload bytes stay readable
  // until the arena's grace period covers every such reader. The array
  // compacts for free at its next republish.
  arr->start.store(static_cast<uint32_t>(cut - 1), std::memory_order_release);
  for (size_t i = s; i < cut - 1; ++i) ReleasePayload(arr->slots()[i]);
  StatsCells().prunes_in_place.Add(1);
  if (version_counter_ != nullptr) {
    version_counter_->Add(-static_cast<int64_t>(removed));
  }
  return removed;
}

void VersionChain::Republish(VersionArray* old, size_t start, size_t count,
                             size_t insert_at, const VersionSlot* v,
                             size_t drop) {
  const size_t live = count - start;
  const size_t kept = live - (drop != SIZE_MAX ? 1 : 0);
  const size_t new_count = kept + (v != nullptr ? 1 : 0);
  // Capacity policy: always leave kReserveAhead appendable slots so the
  // in-order installs that follow a republish go in place, grow
  // geometrically past that, and shrink only when the survivors occupy
  // under an eighth of the array. Sizing tightly to new_count looks
  // tidy but forces the next few installs to republish again — under
  // install/prune churn that alternation made writes allocate on almost
  // every call.
  size_t capacity =
      std::max(kInitialCapacity, static_cast<size_t>(old->capacity));
  if (new_count + kReserveAhead > capacity) {
    capacity = std::max(capacity * 2, new_count + kReserveAhead);
  } else if (capacity > kInitialCapacity && new_count * 8 <= capacity) {
    capacity /= 2;
  }
  VersionArray* fresh = MakeArray(capacity);
  VersionSlot* out_slots = fresh->slots();
  const VersionSlot* in_slots = old->slots();
  size_t out = 0;
  for (size_t i = start; i <= count; ++i) {
    if (v != nullptr && i == insert_at) out_slots[out++] = *v;
    if (i == count) break;
    if (i == drop) continue;
    out_slots[out++] = in_slots[i];
  }
  fresh->count.store(new_count, std::memory_order_relaxed);
  // The release store publishes the fully-built array; readers that
  // acquire-load the pointer see every slot and the counters. The old
  // generation may still be held by pinned readers — releasing it only
  // queues its block in the arena, whose reuse waits out the grace
  // period.
  array_.store(fresh, std::memory_order_release);
  StatsCells().republishes.Add(1);
  SimObserve(this, "chain.republish", new_count, 0);
  ReleaseArray(old);
}

size_t VersionChain::size() const {
  EpochGuard guard;
  const VersionArray* arr = array_.load(std::memory_order_acquire);
  const size_t s = arr->start.load(std::memory_order_acquire);
  const size_t n = arr->count.load(std::memory_order_acquire);
  return n - s;
}

VersionNumber VersionChain::LatestNumber() const {
  EpochGuard guard;
  const VersionArray* arr = array_.load(std::memory_order_acquire);
  const size_t s = arr->start.load(std::memory_order_acquire);
  const size_t n = arr->count.load(std::memory_order_acquire);
  return n == s ? kInvalidTxnNumber : arr->slots()[n - 1].number;
}

}  // namespace mvcc
