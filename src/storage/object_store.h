#ifndef MVCC_STORAGE_OBJECT_STORE_H_
#define MVCC_STORAGE_OBJECT_STORE_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/counters.h"
#include "common/epoch.h"
#include "common/ids.h"
#include "common/latch.h"
#include "common/result.h"
#include "storage/btree.h"
#include "storage/version_arena.h"
#include "storage/version_chain.h"

namespace mvcc {

// Sharded in-memory table mapping object keys to version chains. The store
// is deliberately protocol-agnostic: it knows nothing about locks,
// timestamps, or visibility — that is the whole point of the paper's
// modular decomposition.
//
// Point lookup (Find) is lock-free: each shard publishes an
// open-addressing table of (key, chain) slots behind an atomic pointer.
// Keys are only ever inserted, never deleted (garbage collection removes
// versions, not objects), so a probe that reaches an empty slot has
// proven absence and a slot, once published, is immutable — readers CAS
// nothing, store nothing, and take no latch. Inserts (GetOrCreate) keep
// a per-shard latch for the slow path; a table that outgrows its load
// factor is replaced by a pointer swap and the old one retired through
// epoch-based reclamation, so concurrent latch-free probes stay safe.
class ObjectStore {
 public:
  explicit ObjectStore(size_t num_shards = 64);
  ~ObjectStore();
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // Creates keys [0, num_keys) each with one initial version (number 0,
  // writer T0) holding `initial_value`.
  void Preload(uint64_t num_keys, const Value& initial_value);

  // Returns the chain for `key`, or nullptr if the key does not exist.
  // Lock-free and wait-free: one published-table load plus a bounded
  // probe sequence. The returned chain lives as long as the store.
  VersionChain* Find(ObjectKey key) const;

  // Returns the chain for `key`, creating an empty chain if absent.
  VersionChain* GetOrCreate(ObjectKey key);

  // Total committed versions retained across all chains (GC accounting).
  // One relaxed striped sum: chains debit/credit the store's counter
  // inside Install/Remove/Prune, so nothing walks the chains. Under
  // concurrent mutation the sum is approximate by design — each stripe
  // is read at a different instant, so in-flight deltas (an installer
  // between its counter bump and its publish, a Remove racing a table
  // grow) make it transiently disagree with TotalVersionsSlow. Callers
  // needing exact agreement must quiesce first; this method never
  // cross-checks on its own (the old debug assert here fired on exactly
  // those benign races).
  size_t TotalVersions() const;

  // The O(keys) scan TotalVersions used to be; kept for the debug
  // cross-check and for tests that want ground truth.
  size_t TotalVersionsSlow() const;

  // Number of distinct keys.
  size_t NumKeys() const;

  // Aggregated arena statistics across all shards (bench, GC and
  // kStats reporting: allocation rate, block reuse, and where the
  // version memory sits — live, in its grace period, or free).
  VersionArena::Stats ArenaStats() const;

  // Advances the reclamation epoch once the store's arenas have
  // released kReleasesPerAdvance blocks since the last advance, so the
  // blocks pruning frees leave their grace period at a pace set by this
  // store's own release volume (not a process-wide count, which would
  // couple unrelated stores and replays). Call with no chain or arena
  // latch held: Advance issues a membarrier and runs EBR deleters.
  void MaybeAdvanceEpoch();

  // Applies Prune(watermark) to every chain; returns versions discarded.
  size_t PruneAll(VersionNumber watermark);

  // Streaming ordered cursor over the existing keys in [lo, hi],
  // ascending, with each key's chain in the leaf entry (snapshot scans,
  // checkpoints). Latch-free: the cursor pins an epoch for its whole
  // lifetime and takes no locks, so it must be short-lived relative to
  // memory pressure (a live pin parks reclamation) and must not be held
  // across blocking waits. See BPlusTree::ScanCursor for the guarantees
  // under concurrent inserts.
  BPlusTree::ScanCursor Scan(ObjectKey lo, ObjectKey hi) const {
    return index_.Scan(lo, hi);
  }

 private:
  // Reserved sentinel marking an empty slot. Stores reject it as a key
  // (the workload key domain never reaches 2^64 - 1).
  static constexpr ObjectKey kEmptyKey =
      std::numeric_limits<ObjectKey>::max();

  // One open-addressing slot. An insert wires the chain pointer first
  // (plain store — the slot is unreachable until the key publishes),
  // then release-stores the key; a reader that acquire-loads the key
  // therefore sees a fully-constructed chain. Slots never empty out.
  struct Slot {
    std::atomic<ObjectKey> key{kEmptyKey};
    std::atomic<VersionChain*> chain{nullptr};
  };

  // One published generation of a shard's index. Replaced wholesale on
  // growth; old generations are retired through EBR because latch-free
  // probes may still hold them. Tables hold non-owning chain pointers —
  // chain ownership stays with the shard. Header and slots share one
  // allocation (trailing array) so a probe is table -> slot, not
  // table -> slot-array -> slot: one less dependent cache miss on the
  // latch-free read path.
  struct Table {
    const size_t capacity;  // power of two
    const size_t mask;

    Slot* slots() { return reinterpret_cast<Slot*>(this + 1); }
    const Slot* slots() const {
      return reinterpret_cast<const Slot*>(this + 1);
    }

    static Table* Make(size_t capacity);
    // Destroys and deallocates; shaped as an EBR deleter.
    static void Free(void* p);

   private:
    explicit Table(size_t cap) : capacity(cap), mask(cap - 1) {}
    ~Table() = default;
  };

  struct Shard {
    mutable SpinLatch latch;             // insert slow path only
    std::atomic<Table*> table{nullptr};  // published index generation
    std::atomic<size_t> num_keys{0};
    // Slab arena feeding this shard's chains (arrays and payloads).
    // Per-shard so allocation contends no wider than the shard's own
    // writers do; closed after the chains release their storage in
    // ~ObjectStore.
    VersionArena* arena = nullptr;
  };

  // Shard count is rounded up to a power of two at construction so the
  // per-operation shard pick is a mask, not a 64-bit division — the
  // divide was measurable on the latch-free read path, where the fixed
  // costs are a handful of nanoseconds total.
  Shard& ShardFor(ObjectKey key) const {
    return shards_[key & shard_mask_];
  }

  static uint64_t HashKey(ObjectKey key);

  // Probes `table` for `key`; nullptr if absent.
  static VersionChain* Probe(const Table* table, ObjectKey key);

  // Inserts under the shard latch; caller verified absence.
  void InsertLocked(Shard& shard, ObjectKey key, VersionChain* chain);

  static constexpr size_t kInitialTableCapacity = 16;
  // A released block is reusable two advances after its release, so the
  // grace backlog stays near 2-3x this many blocks per store.
  static constexpr uint64_t kReleasesPerAdvance = 256;

  mutable std::vector<Shard> shards_;
  size_t shard_mask_;
  // Net committed versions across every chain, striped by thread (not by
  // shard: with more threads than shards the per-shard cells themselves
  // ping-ponged between writers hammering the same hot shard).
  StripedCounter versions_;
  // Blocks released by every shard arena, and the count at which
  // MaybeAdvanceEpoch next advances.
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> next_advance_at_{kReleasesPerAdvance};
  // Ordered index over the same keys, each leaf entry carrying the
  // key's chain, so a snapshot scan is index walk -> chain read with no
  // per-key hash re-probe. Keys are only ever added, so it needs no
  // tombstones. A key created after a scan's snapshot has only versions
  // above sn, so the chain read reports NotFound and the scan skips it:
  // snapshot scans are phantom-free with no locking (docs/correctness.md).
  BPlusTree index_;
};

}  // namespace mvcc

#endif  // MVCC_STORAGE_OBJECT_STORE_H_
