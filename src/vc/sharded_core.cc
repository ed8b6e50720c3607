#include "vc/sharded_core.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/sim_hook.h"

namespace mvcc {

namespace {
size_t RoundToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

ShardedVisibility::ShardedVisibility(size_t shard_count) {
  if (shard_count == 0) shard_count = kDefaultShards;
  shard_count_ = std::min(RoundToPowerOfTwo(shard_count),
                          VisibilitySnapshot::kMaxShards);
  shard_mask_ = shard_count_ - 1;
  shard_shift_ = 0;
  while ((size_t{1} << shard_shift_) < shard_count_) ++shard_shift_;
  full_done_mask_ = shard_count_ == 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << shard_count_) - 1;
  shards_.reset(new Shard[shard_count_]);
  for (uint64_t s = 0; s < shard_count_; ++s) {
    shards_[s].ring.reset(new std::atomic<uint64_t>[kShardRingSize]);
    for (size_t i = 0; i < kShardRingSize; ++i) {
      shards_[s].ring[i].store(0, std::memory_order_relaxed);
    }
    // Smallest class member >= 1: s itself, except class 0 whose first
    // member is shard_count_ (numbers start at 1).
    shards_[s].next.store(s == 0 ? shard_count_ : s,
                          std::memory_order_relaxed);
  }
}

TxnNumber ShardedVisibility::ComputeFloorAcquire() const {
  TxnNumber min_next = shards_[0].next.load(std::memory_order_acquire);
  for (uint64_t s = 1; s < shard_count_; ++s) {
    min_next = std::min(
        min_next, shards_[s].next.load(std::memory_order_acquire));
  }
  return min_next - 1;
}

TxnNumber ShardedVisibility::ComputeFloorSeqCst() const {
  TxnNumber min_next = shards_[0].next.load(std::memory_order_seq_cst);
  for (uint64_t s = 1; s < shard_count_; ++s) {
    min_next = std::min(
        min_next, shards_[s].next.load(std::memory_order_seq_cst));
  }
  return min_next - 1;
}

VisibilitySnapshot ShardedVisibility::TakeSnapshot() const {
  VisibilitySnapshot snap;
  snap.shard_count = static_cast<uint32_t>(shard_count_);
  TxnNumber min_next = 0;
  for (uint64_t s = 0; s < shard_count_; ++s) {
    const TxnNumber next = shards_[s].next.load(std::memory_order_acquire);
    snap.watermark[s] = next - 1;
    min_next = s == 0 ? next : std::min(min_next, next);
  }
  // Each entry was a valid closure bound when loaded, and resolution is
  // permanent, so the vector as a whole (and its min) stays a valid —
  // merely conservative — bound even though the loads are not atomic as
  // a group.
  snap.floor = min_next - 1;
  SimObserve(this, "sharded.snapshot", snap.floor,
             counter_.load(std::memory_order_relaxed));
  return snap;
}

TxnNumber ShardedVisibility::RefreshFloor() {
  const TxnNumber f = ComputeFloorAcquire();
  TxnNumber cur = floor_cache_.load(std::memory_order_relaxed);
  while (cur < f &&
         !floor_cache_.compare_exchange_weak(cur, f,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  if (cur < f) {
    // This thread advanced the published floor; under simulation tasks
    // are serialized, so the stream is monotone per source.
    SimObserve(this, "vc.vtnc", f,
               counter_.load(std::memory_order_relaxed));
  }
  return f;
}

// No schedule point here, matching the other cores (OCC registers
// inside its validation critical section).
TxnNumber ShardedVisibility::Register(TxnId /*txn*/, uint32_t /*tiebreak*/) {
  const TxnNumber tn = counter_.fetch_add(1, std::memory_order_relaxed);
  Shard& sh = shards_[tn & shard_mask_];
  // Slot reuse bound: tn shares a slot with tn - K*kShardRingSize (same
  // class, kShardRingSize rounds earlier); that occupant must have been
  // consumed, i.e. next > tn - K*kShardRingSize, i.e. (stepping by K)
  // next + K*(kShardRingSize-1) >= tn.
  const uint64_t limit = shard_count_ * (kShardRingSize - 1);
  if (sh.next.load(std::memory_order_acquire) + limit < tn) {
    // Backpressure slow path: kShardRingSize registrations of this
    // class are unconsumed. On an oversubscribed box the cursor is
    // almost always parked behind ONE preempted resolver, so first
    // yield the CPU toward it for a bounded burst: a futex sleep here
    // costs a wake storm (every registrar piles onto the same full
    // class within one counter lap), while sched_yield lets the parked
    // thread resolve within microseconds. Never under simulation — a
    // sim task spinning on real yields starves the cooperative
    // scheduler; the SimAwareCvWait below is the sim-visible block.
    if (InstalledSimHook() == nullptr) {
      for (int spin = 0; spin < 2000; ++spin) {
        std::this_thread::yield();
        if (sh.next.load(std::memory_order_acquire) + limit >= tn) break;
      }
    }
    if (sh.next.load(std::memory_order_acquire) + limit < tn) {
      std::unique_lock<std::mutex> lock(mu_);
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      SimAwareCvWait(cv_, lock, "vc.ring_full", [this, &sh, limit, tn] {
        return sh.next.load(std::memory_order_seq_cst) + limit >= tn;
      });
      waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  sh.ring[SlotOf(tn)].store((tn << 2) | kSlotActive,
                            std::memory_order_release);
  SimObserve(this, "vc.register", tn,
             counter_.load(std::memory_order_relaxed));
  return tn;
}

void ShardedVisibility::Discard(TxnNumber tn) {
  SimSchedulePoint("vc.discard");
  Resolve(tn, kSlotDiscarded);
}

void ShardedVisibility::Complete(TxnNumber tn) {
  SimSchedulePoint("vc.complete");
  Resolve(tn, kSlotComplete);
}

void ShardedVisibility::Resolve(TxnNumber tn, uint64_t state) {
  Shard& sh = shards_[tn & shard_mask_];
  // Only the owning transaction resolves its slot: a release store
  // publishes every write installed before resolving (the drain's
  // acquire load pairs with it).
  sh.ring[SlotOf(tn)].store((tn << 2) | state, std::memory_order_release);
  SimObserve(this, "sharded.resolve", tn, state == kSlotComplete ? 1 : 0);
  DrainShard(tn & shard_mask_);
  WakeWaitersIfAny();
}

void ShardedVisibility::DrainShard(size_t s) {
  Shard& sh = shards_[s];
  while (true) {
    const TxnNumber n = sh.next.load(std::memory_order_acquire);
    const uint64_t v = sh.ring[SlotOf(n)].load(std::memory_order_acquire);
    const uint64_t complete_v = (n << 2) | kSlotComplete;
    const uint64_t discard_v = (n << 2) | kSlotDiscarded;
    if (v != complete_v && v != discard_v) {
      // Head of this class is active, a registration in flight, or
      // never assigned (counter jump). Only the last case lets the
      // drain proceed.
      if (v == 0 && gap_count_.load(std::memory_order_seq_cst) != 0 &&
          TryJumpGapShard(s, n)) {
        continue;
      }
      return;
    }
    TxnNumber expected = n;
    if (!sh.next.compare_exchange_strong(expected, n + shard_count_,
                                         std::memory_order_seq_cst)) {
      continue;  // another drainer consumed it; re-read the cursor
    }
    // This thread consumed n's slot: free it for the occupant
    // kShardRingSize rounds later. CAS, not a blind store — that
    // registration may already have claimed the slot.
    uint64_t occupant = v;
    sh.ring[SlotOf(n)].compare_exchange_strong(occupant, 0,
                                               std::memory_order_seq_cst);
    // Shard watermark advanced past n (consumed in class order — the
    // per-shard closure the watermark-vector oracle checks).
    SimObserve(this, "sharded.next", n, shard_count_);
  }
}

void ShardedVisibility::DrainAllShards() {
  for (uint64_t s = 0; s < shard_count_; ++s) DrainShard(s);
}

bool ShardedVisibility::TryJumpGapShard(size_t s, TxnNumber n) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = gaps_.upper_bound(n);
  if (it == gaps_.begin()) return false;
  --it;
  if (n < it->first || n > it->second.last) return false;
  const TxnNumber target = FirstClassMemberAtOrAfter(s, it->second.last + 1);
  TxnNumber expected = n;
  if (shards_[s].next.compare_exchange_strong(expected, target,
                                              std::memory_order_seq_cst)) {
    // All class-s members in [n, target) lie inside the never-assigned
    // range (target is the first member past it).
    gap_consumed_.fetch_add((target - n) >> shard_shift_,
                            std::memory_order_release);
    it->second.done_mask |= uint64_t{1} << s;
    SimObserve(this, "sharded.gap", target, shard_count_);
    if (it->second.done_mask == full_done_mask_) {
      gaps_.erase(it);
      gap_count_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  // Won or lost, the cursor moved: retry the drain loop.
  return true;
}

void ShardedVisibility::WakeWaitersIfAny() {
  if (waiters_.load(std::memory_order_seq_cst) == 0) return;
  // The empty critical section serializes with a waiter that has
  // registered in waiters_ but not yet slept: by the time we hold mu_,
  // it either re-checked its predicate (seeing our seq_cst update) or is
  // inside cv_.wait and will receive the notify.
  { std::lock_guard<std::mutex> guard(mu_); }
  cv_.notify_all();
}

void ShardedVisibility::Promote(TxnNumber /*from*/, TxnNumber /*to*/) {
  MVCC_CHECK(false && "Promote requires the locked (site) core");
}

void ShardedVisibility::AdvanceCounterPast(TxnNumber tn) {
  SimSchedulePoint("vc.advance_counter");
  const uint64_t needed = tn + 1;
  uint64_t c = counter_.load(std::memory_order_seq_cst);
  while (c < needed) {
    if (counter_.compare_exchange_weak(c, needed,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> guard(mu_);
        GapRange range;
        range.last = needed - 1;
        // Classes with no member in [c, needed-1] have nothing to jump:
        // pre-mark them done so the entry can retire.
        for (uint64_t s = 0; s < shard_count_; ++s) {
          if (FirstClassMemberAtOrAfter(s, c) > range.last) {
            range.done_mask |= uint64_t{1} << s;
          }
        }
        gaps_[c] = range;
        gap_created_.fetch_add(needed - c, std::memory_order_release);
      }
      gap_count_.fetch_add(1, std::memory_order_seq_cst);
      // Cursors may already be parked inside the new range; push every
      // shard through it and wake quiescence waiters.
      DrainAllShards();
      WakeWaitersIfAny();
      return;
    }
  }
}

void ShardedVisibility::RecoverTo(TxnNumber last_committed) {
  std::lock_guard<std::mutex> guard(mu_);
  // Quiesced: every assigned number consumed and every gap fully
  // jumped (a pending gap would imply a cursor parked below it on an
  // unresolved number — i.e. a transaction in flight).
  MVCC_CHECK(QueueSizeApprox() == 0 && gaps_.empty() &&
             "recovery with transactions in flight");
  // Jump each class cursor past last_committed. The skipped members are
  // exactly the numbers in (old counter-1, last_committed], so assigned
  // and consumed grow by the same amount and QueueSize stays 0.
  for (uint64_t s = 0; s < shard_count_; ++s) {
    const TxnNumber target = FirstClassMemberAtOrAfter(s, last_committed + 1);
    if (shards_[s].next.load(std::memory_order_relaxed) < target) {
      shards_[s].next.store(target, std::memory_order_seq_cst);
    }
  }
  TxnNumber cached = floor_cache_.load(std::memory_order_relaxed);
  if (cached < last_committed) {
    floor_cache_.store(last_committed, std::memory_order_release);
  }
  const uint64_t needed = last_committed + 1;
  uint64_t c = counter_.load(std::memory_order_relaxed);
  while (c < needed &&
         !counter_.compare_exchange_weak(c, needed,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
  }
}

bool ShardedVisibility::HasActiveAtOrBelowLocked(TxnNumber sn) const {
  const TxnNumber last = counter_.load(std::memory_order_seq_cst) - 1;
  const TxnNumber bound = std::min(sn, last);
  for (uint64_t s = 0; s < shard_count_; ++s) {
    TxnNumber t = shards_[s].next.load(std::memory_order_seq_cst);
    while (t <= bound) {
      const uint64_t v =
          shards_[s].ring[SlotOf(t)].load(std::memory_order_seq_cst);
      if (v == ((t << 2) | kSlotComplete) ||
          v == ((t << 2) | kSlotDiscarded)) {
        t += shard_count_;  // resolved; not yet consumed
        continue;
      }
      if (v == 0) {
        // Free: a registration in flight (active — its writes are not
        // final) or a never-assigned counter jump.
        auto it = gaps_.upper_bound(t);
        if (it != gaps_.begin()) {
          --it;
          if (t >= it->first && t <= it->second.last) {
            t = FirstClassMemberAtOrAfter(s, it->second.last + 1);
            continue;
          }
        }
      }
      return true;
    }
  }
  return false;
}

void ShardedVisibility::WaitNoActiveAtOrBelow(TxnNumber sn) {
  std::unique_lock<std::mutex> lock(mu_);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  SimAwareCvWait(cv_, lock, "vc.wait_no_active",
                 [this, sn] { return !HasActiveAtOrBelowLocked(sn); });
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

TxnNumber ShardedVisibility::StartAtLeast(TxnNumber tn) {
  std::unique_lock<std::mutex> lock(mu_);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  SimAwareCvWait(cv_, lock, "vc.start_at_least",
                 [this, tn] { return ComputeFloorSeqCst() >= tn; });
  waiters_.fetch_sub(1, std::memory_order_seq_cst);
  return ComputeFloorAcquire();
}

TxnNumber ShardedVisibility::NextNumber() const {
  return counter_.load(std::memory_order_seq_cst);
}

size_t ShardedVisibility::QueueSize() const { return QueueSizeApprox(); }

size_t ShardedVisibility::QueueSizeApprox() const {
  // pending = (assigned - gap_created) - (consumed - gap_consumed).
  // Load gap_consumed_ before the cursors (a jump bumps the cursor
  // first, so a consumed count we see is never missing its cursor
  // move), and the cursors before counter_ (a number is consumed only
  // after it was assigned, so consumed <= assigned). Remaining races
  // only under- or over-shoot transiently; exact at quiesce.
  const uint64_t gap_consumed =
      gap_consumed_.load(std::memory_order_acquire);
  uint64_t consumed = 0;
  for (uint64_t s = 0; s < shard_count_; ++s) {
    consumed +=
        MembersBelow(s, shards_[s].next.load(std::memory_order_acquire));
  }
  const uint64_t gap_created = gap_created_.load(std::memory_order_acquire);
  const uint64_t assigned = counter_.load(std::memory_order_acquire) - 1;
  const int64_t pending =
      static_cast<int64_t>(assigned) - static_cast<int64_t>(gap_created) -
      static_cast<int64_t>(consumed) + static_cast<int64_t>(gap_consumed);
  return pending > 0 ? static_cast<size_t>(pending) : 0;
}

}  // namespace mvcc
