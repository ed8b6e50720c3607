#include "storage/object_store.h"

#include <new>

#include "common/check.h"

namespace mvcc {

namespace {

size_t RoundUpPow2(size_t n) {
  if (n < 2) return 1;
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ObjectStore::ObjectStore(size_t num_shards)
    : shards_(RoundUpPow2(num_shards)),
      shard_mask_(shards_.size() - 1) {
  for (Shard& shard : shards_) {
    shard.table.store(Table::Make(kInitialTableCapacity),
                      std::memory_order_relaxed);
    shard.arena =
        VersionArena::Create(VersionArena::kDefaultSlabBytes, &releases_);
  }
}

ObjectStore::Table* ObjectStore::Table::Make(size_t capacity) {
  static_assert(alignof(Slot) <= alignof(Table),
                "trailing slots would be misaligned");
  void* mem = ::operator new(sizeof(Table) + capacity * sizeof(Slot));
  auto* table = new (mem) Table(capacity);
  Slot* s = table->slots();
  for (size_t i = 0; i < capacity; ++i) new (&s[i]) Slot();
  return table;
}

void ObjectStore::Table::Free(void* p) {
  auto* table = static_cast<Table*>(p);
  Slot* s = table->slots();
  for (size_t i = table->capacity; i > 0; --i) s[i - 1].~Slot();
  table->~Table();
  ::operator delete(p);
}

ObjectStore::~ObjectStore() {
  // Chains are owned by the store and reachable exactly once from the
  // live table (retired generations are non-owning and freed by the
  // epoch manager). No reader may hold the store here. Chains release
  // their arrays/payloads back to the shard arena in their destructors,
  // so the arena closes last.
  for (Shard& shard : shards_) {
    Table* table = shard.table.load(std::memory_order_relaxed);
    for (size_t i = 0; i < table->capacity; ++i) {
      if (table->slots()[i].key.load(std::memory_order_relaxed) != kEmptyKey) {
        delete table->slots()[i].chain.load(std::memory_order_relaxed);
      }
    }
    Table::Free(table);
    shard.arena->Close();
  }
}

void ObjectStore::Preload(uint64_t num_keys, const Value& initial_value) {
  for (uint64_t key = 0; key < num_keys; ++key) {
    VersionChain* chain = GetOrCreate(key);
    chain->Install(Version{/*number=*/0, initial_value, /*writer=*/0});
  }
}

uint64_t ObjectStore::HashKey(ObjectKey key) {
  // splitmix64 finalizer: sequential workload keys land on unclustered
  // probe positions.
  uint64_t h = key + 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

VersionChain* ObjectStore::Probe(const Table* table, ObjectKey key) {
  size_t i = HashKey(key) & table->mask;
  while (true) {
    const ObjectKey slot_key =
        table->slots()[i].key.load(std::memory_order_acquire);
    if (slot_key == key) {
      return table->slots()[i].chain.load(std::memory_order_relaxed);
    }
    if (slot_key == kEmptyKey) return nullptr;  // absence proven
    i = (i + 1) & table->mask;
  }
}

VersionChain* ObjectStore::Find(ObjectKey key) const {
  if (key == kEmptyKey) return nullptr;
  const Shard& shard = ShardFor(key);
  // Pin only the table generation: the chain itself lives as long as the
  // store, so the returned pointer stays valid after the guard drops.
  EpochGuard guard;
  const Table* table = shard.table.load(std::memory_order_acquire);
  return Probe(table, key);
}

void ObjectStore::InsertLocked(Shard& shard, ObjectKey key,
                               VersionChain* chain) {
  Table* table = shard.table.load(std::memory_order_relaxed);
  size_t i = HashKey(key) & table->mask;
  while (table->slots()[i].key.load(std::memory_order_relaxed) != kEmptyKey) {
    i = (i + 1) & table->mask;
  }
  // Wire the chain before publishing the key: a latch-free prober that
  // acquire-loads the key is guaranteed a fully-constructed chain.
  table->slots()[i].chain.store(chain, std::memory_order_relaxed);
  table->slots()[i].key.store(key, std::memory_order_release);
}

VersionChain* ObjectStore::GetOrCreate(ObjectKey key) {
  MVCC_CHECK(key != kEmptyKey);
  Shard& shard = ShardFor(key);
  {
    // Fast path: the key already exists — same latch-free probe as Find.
    EpochGuard guard;
    const Table* table = shard.table.load(std::memory_order_acquire);
    if (VersionChain* chain = Probe(table, key)) return chain;
  }
  bool created = false;
  VersionChain* chain = nullptr;
  {
    std::lock_guard<SpinLatch> guard(shard.latch);
    Table* table = shard.table.load(std::memory_order_relaxed);
    chain = Probe(table, key);
    if (chain == nullptr) {
      const size_t keys = shard.num_keys.load(std::memory_order_relaxed);
      if ((keys + 1) * 10 > table->capacity * 7) {
        // Load factor cap at 0.7 keeps every probe sequence short and
        // guarantees empty slots terminate latch-free probes. Build the
        // doubled table privately, publish with a pointer swap, retire
        // the generation concurrent probes may still hold.
        Table* grown = Table::Make(table->capacity * 2);
        for (size_t i = 0; i < table->capacity; ++i) {
          const ObjectKey k =
              table->slots()[i].key.load(std::memory_order_relaxed);
          if (k == kEmptyKey) continue;
          VersionChain* c =
              table->slots()[i].chain.load(std::memory_order_relaxed);
          size_t j = HashKey(k) & grown->mask;
          while (grown->slots()[j].key.load(std::memory_order_relaxed) !=
                 kEmptyKey) {
            j = (j + 1) & grown->mask;
          }
          grown->slots()[j].chain.store(c, std::memory_order_relaxed);
          grown->slots()[j].key.store(k, std::memory_order_relaxed);
        }
        shard.table.store(grown, std::memory_order_release);
        EpochManager::Global().Retire(table, &Table::Free);
        table = grown;
      }
      chain = new VersionChain(shard.arena, &versions_);
      InsertLocked(shard, key, chain);
      shard.num_keys.store(keys + 1, std::memory_order_relaxed);
      created = true;
    }
  }
  // Index the key after dropping the shard latch (the tree has its own
  // writer serialization). Ordering is safe: the chain is empty until
  // its creator installs a version at commit, and a scan that reaches
  // the entry before then reads NotFound and skips the key.
  if (created) index_.Insert(key, chain);
  return chain;
}

size_t ObjectStore::TotalVersions() const {
  // Clamp rather than assert: stripes are read at different instants, so
  // a Remove debiting one stripe while the racing Install's credit sits
  // unread in another can push the transient sum below zero. (The old
  // per-shard version debug-asserted agreement with TotalVersionsSlow
  // here, which fired on exactly that benign race when Remove ran
  // against a concurrent table grow; tests that want ground truth call
  // TotalVersionsSlow after quiescing.)
  const int64_t total = versions_.Sum();
  return total < 0 ? 0 : static_cast<size_t>(total);
}

size_t ObjectStore::TotalVersionsSlow() const {
  size_t total = 0;
  EpochGuard guard;
  for (const Shard& shard : shards_) {
    const Table* table = shard.table.load(std::memory_order_acquire);
    for (size_t i = 0; i < table->capacity; ++i) {
      if (table->slots()[i].key.load(std::memory_order_acquire) == kEmptyKey) {
        continue;
      }
      total += table->slots()[i].chain.load(std::memory_order_relaxed)->size();
    }
  }
  return total;
}

VersionArena::Stats ObjectStore::ArenaStats() const {
  VersionArena::Stats total;
  for (const Shard& shard : shards_) {
    const VersionArena::Stats s = shard.arena->GetStats();
    total.allocs += s.allocs;
    total.bytes_carved += s.bytes_carved;
    total.blocks_reused += s.blocks_reused;
    total.slabs_allocated += s.slabs_allocated;
    total.large_allocs += s.large_allocs;
    total.resident_bytes += s.resident_bytes;
    total.live_bytes += s.live_bytes;
    total.pending_bytes += s.pending_bytes;
    total.free_bytes += s.free_bytes;
  }
  return total;
}

void ObjectStore::MaybeAdvanceEpoch() {
  uint64_t due = next_advance_at_.load(std::memory_order_relaxed);
  const uint64_t released = releases_.load(std::memory_order_relaxed);
  if (released < due) return;
  // One committer per threshold crossing advances; the rest move on.
  if (!next_advance_at_.compare_exchange_strong(
          due, released + kReleasesPerAdvance, std::memory_order_relaxed)) {
    return;
  }
  EpochManager::Global().Advance();
}

size_t ObjectStore::NumKeys() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.num_keys.load(std::memory_order_relaxed);
  }
  return total;
}

size_t ObjectStore::PruneAll(VersionNumber watermark) {
  size_t removed = 0;
  EpochGuard guard;
  for (Shard& shard : shards_) {
    // No latch: chains are never deleted while the store lives, and each
    // chain serializes its own writers. Chains inserted after this table
    // load are younger than the watermark and have nothing to prune.
    const Table* table = shard.table.load(std::memory_order_acquire);
    for (size_t i = 0; i < table->capacity; ++i) {
      if (table->slots()[i].key.load(std::memory_order_acquire) == kEmptyKey) {
        continue;
      }
      removed +=
          table->slots()[i].chain.load(std::memory_order_relaxed)->Prune(
              watermark);
    }
  }
  return removed;
}

}  // namespace mvcc
