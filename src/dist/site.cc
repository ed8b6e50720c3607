#include "dist/site.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mvcc {

Site::Site(int site_id, EventCounters* counters)
    : site_id_(site_id),
      store_(/*num_shards=*/16),
      vc_(NumberingMode::kSiteTagged),
      locks_(DeadlockPolicy::kWaitDie, counters, /*num_shards=*/16) {}

void Site::Preload(ObjectKey key, const Value& initial_value) {
  store_.GetOrCreate(key)->Install(Version{0, initial_value, 0});
}

Result<VersionRead> Site::Read(TxnId txn, ObjectKey key) {
  if (IsDown()) {
    return Status::Unavailable("site " + std::to_string(site_id_) +
                               " is down");
  }
  {
    std::lock_guard<std::mutex> guard(buffered_mu_);
    auto it = buffered_.find(txn);
    if (it != buffered_.end()) {
      auto own = it->second.writes.find(key);
      if (own != it->second.writes.end()) {
        return VersionRead{kPendingVersion, txn, own->second};
      }
    }
  }
  Status s = locks_.Acquire(txn, key, LockMode::kShared);
  if (!s.ok()) return s;
  VersionChain* chain = store_.Find(key);
  if (chain == nullptr) {
    return Status::NotFound("site " + std::to_string(site_id_) + " key " +
                            std::to_string(key));
  }
  return chain->ReadLatest();
}

Status Site::Write(TxnId txn, ObjectKey key, Value value) {
  if (IsDown()) {
    return Status::Unavailable("site " + std::to_string(site_id_) +
                               " is down");
  }
  Status s = locks_.Acquire(txn, key, LockMode::kExclusive);
  if (!s.ok()) return s;
  std::lock_guard<std::mutex> guard(buffered_mu_);
  Buffered& buf = buffered_[txn];
  auto [it, inserted] = buf.writes.try_emplace(key, std::move(value));
  if (inserted) {
    buf.order.push_back(key);
  } else {
    it->second = std::move(value);
  }
  return Status::OK();
}

Result<TxnNumber> Site::Prepare(TxnId txn, uint32_t tiebreak) {
  if (IsDown()) {
    return Status::Unavailable("site " + std::to_string(site_id_) +
                               " voted no: down");
  }
  // All local locks are held: this site's lock point has passed, the
  // local serial position is fixed — register now (Figure 4 discipline).
  // kSiteTagged numbering runs VersionControl's locked map core: the
  // Promote() below moves this entry to a non-dense global number during
  // 2PC agreement, which the dense sharded core cannot index.
  return vc_.Register(txn, tiebreak);
}

void Site::Commit(TxnId txn, TxnNumber proposed, TxnNumber global_tn) {
  vc_.Promote(proposed, global_tn);
  Buffered buf;
  {
    std::lock_guard<std::mutex> guard(buffered_mu_);
    auto it = buffered_.find(txn);
    if (it != buffered_.end()) {
      buf = std::move(it->second);
      buffered_.erase(it);
    }
  }
  for (ObjectKey key : buf.order) {
    store_.GetOrCreate(key)->Install(
        Version{global_tn, std::move(buf.writes[key]), txn});
  }
  locks_.ReleaseAll(txn);
  vc_.Complete(global_tn);
}

void Site::Abort(TxnId txn, TxnNumber proposed_or_zero) {
  {
    std::lock_guard<std::mutex> guard(buffered_mu_);
    buffered_.erase(txn);
  }
  locks_.ReleaseAll(txn);
  if (proposed_or_zero != kInvalidTxnNumber) vc_.Discard(proposed_or_zero);
}

Result<VersionRead> Site::SnapshotRead(TxnNumber sn, ObjectKey key) {
  if (IsDown()) {
    return Status::Unavailable("site " + std::to_string(site_id_) +
                               " is down");
  }
  vc_.AdvanceCounterPast(sn);
  vc_.WaitNoActiveAtOrBelow(sn);
  // Pin the snapshot against local garbage collection for the read.
  readers_.Enter(sn);
  Result<VersionRead> read = [&]() -> Result<VersionRead> {
    VersionChain* chain = store_.Find(key);
    if (chain == nullptr) {
      return Status::NotFound("site " + std::to_string(site_id_) +
                              " key " + std::to_string(key));
    }
    return chain->Read(sn);
  }();
  // Soundness post-check: any collection pass that could have removed
  // versions at or below sn raised gc_floor_ past sn BEFORE pruning.
  // Checking after the read (while still effectively pinned) therefore
  // catches every harmful interleaving; a pass starting after this check
  // sees our pin and keeps the snapshot.
  const bool too_old = gc_floor_.load(std::memory_order_acquire) > sn;
  readers_.Exit(sn);
  if (too_old) {
    return Status::Unavailable("snapshot " + std::to_string(sn) +
                               " too old at site " +
                               std::to_string(site_id_) +
                               " (garbage collected)");
  }
  return read;
}

Result<std::vector<std::pair<ObjectKey, VersionRead>>> Site::SnapshotScan(
    TxnNumber sn, ObjectKey lo, ObjectKey hi) {
  if (IsDown()) {
    return Status::Unavailable("site " + std::to_string(site_id_) +
                               " is down");
  }
  vc_.AdvanceCounterPast(sn);
  vc_.WaitNoActiveAtOrBelow(sn);
  readers_.Enter(sn);
  std::vector<std::pair<ObjectKey, VersionRead>> out;
  for (auto cur = store_.Scan(lo, hi); cur.Valid(); cur.Next()) {
    Result<VersionRead> read = cur.chain()->Read(sn);
    // NotFound = object born after the snapshot (or, if GC interfered,
    // the post-check below rejects the whole scan).
    if (read.ok()) out.emplace_back(cur.key(), std::move(*read));
  }
  const bool too_old = gc_floor_.load(std::memory_order_acquire) > sn;
  readers_.Exit(sn);
  if (too_old) {
    return Status::Unavailable("snapshot " + std::to_string(sn) +
                               " too old at site " +
                               std::to_string(site_id_) +
                               " (garbage collected)");
  }
  return out;
}

size_t Site::RunGc() {
  // One visibility-floor fold per pass (and it keeps the published
  // floor fresh for VisibilityFloor); identical to vtnc() on the locked
  // site core.
  VersionNumber watermark = vc_.RefreshFloor();
  if (auto pinned = readers_.MinActive()) {
    watermark = std::min(watermark, *pinned);
  }
  // Publish the floor BEFORE pruning so concurrent snapshot readers'
  // post-checks see it (see SnapshotRead).
  VersionNumber current = gc_floor_.load(std::memory_order_relaxed);
  while (current < watermark &&
         !gc_floor_.compare_exchange_weak(current, watermark,
                                          std::memory_order_release)) {
  }
  return store_.PruneAll(watermark);
}

}  // namespace mvcc
