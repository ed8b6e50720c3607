// VersionArena unit tests plus the arena-backed VersionChain
// model-equivalence property test: across randomized install / read /
// prune / remove sequences — including out-of-order installs, empty and
// oversized payloads, and epoch advances that keep released blocks
// flowing back into reuse — a chain carving its storage from an arena
// must be observationally identical to a heap-backed reference model.
// Seeds
// sweep wider in CI via MVCC_ARENA_SEEDS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/random.h"
#include "storage/version_arena.h"
#include "storage/version_chain.h"

namespace mvcc {
namespace {

uint64_t SweepSeeds(uint64_t default_count) {
  const char* env = std::getenv("MVCC_ARENA_SEEDS");
  if (env == nullptr || *env == '\0') return default_count;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n == 0 ? default_count : n;
}

// Drains grace periods so everything released so far becomes reusable
// (each Advance moves one epoch when no reader straddles the previous).
void DrainEbr() {
  EpochManager::Global().Advance();
  EpochManager::Global().Advance();
  EpochManager::Global().Advance();
}

TEST(VersionArenaTest, ReleasedBlocksAreReusedAfterTheGracePeriod) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  // Fill several slabs worth of blocks, then release them all: they
  // wait out the grace period, then serve new allocations of the same
  // size without the arena taking another slab.
  std::vector<void*> blocks;
  constexpr size_t kBlock = 256;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena->Allocate(kBlock));
  VersionArena::Stats s = arena->GetStats();
  EXPECT_GE(s.slabs_allocated, 2u);  // 64 * 256B cannot fit one 4K slab
  EXPECT_EQ(s.live_bytes, 64 * kBlock);
  EXPECT_EQ(s.resident_bytes, s.slabs_allocated * 4096);
  const std::set<void*> first(blocks.begin(), blocks.end());
  EXPECT_EQ(first.size(), blocks.size());  // distinct blocks
  for (void* p : blocks) {
    std::memset(p, 0xab, kBlock);  // blocks must be writable
    arena->Release(p, kBlock);
  }
  blocks.clear();
  s = arena->GetStats();
  EXPECT_EQ(s.live_bytes, 0u);
  EXPECT_EQ(s.pending_bytes + s.free_bytes, 64 * kBlock);

  DrainEbr();
  const uint64_t slabs_before = s.slabs_allocated;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena->Allocate(kBlock));
  s = arena->GetStats();
  EXPECT_EQ(s.blocks_reused, 64u);
  EXPECT_EQ(s.slabs_allocated, slabs_before);
  EXPECT_EQ(s.free_bytes, 0u);
  EXPECT_EQ(s.allocs, 128u);
  for (void* p : blocks) EXPECT_EQ(first.count(p), 1u) << "not a reused block";
  for (void* p : blocks) arena->Release(p, kBlock);
  arena->Close();
}

TEST(VersionArenaTest, SizeClassesReuseOnlyTheirOwnBlocks) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  void* small = arena->Allocate(40);  // 48-byte class
  void* large = arena->Allocate(200);  // 208-byte class
  arena->Release(small, 40);
  arena->Release(large, 200);
  DrainEbr();
  // A 208-byte request must not be served by the 48-byte block, and a
  // same-class request of a different raw size reuses its class's block.
  EXPECT_EQ(arena->Allocate(199), large);
  EXPECT_EQ(arena->Allocate(33), small);
  arena->Release(large, 199);
  arena->Release(small, 33);
  arena->Close();
}

TEST(VersionArenaTest, NoReuseBeforeTwoEpochAdvances) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  void* p = arena->Allocate(64);
  arena->Release(p, 64);
  // One advance is half a grace period: the next allocation of the
  // block's class must carve fresh memory.
  EpochManager::Global().Advance();
  void* q = arena->Allocate(64);
  EXPECT_NE(q, p);
  arena->Release(q, 64);
  DrainEbr();
  // Both grace periods are over now: both blocks come back.
  void* a = arena->Allocate(64);
  void* b = arena->Allocate(64);
  EXPECT_EQ(std::set<void*>({a, b}), std::set<void*>({p, q}));
  arena->Release(a, 64);
  arena->Release(b, 64);
  arena->Close();
}

TEST(VersionArenaTest, OversizedBlocksTakeTheHeapPath) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  const size_t big = arena->LargeThreshold() + 1;
  void* p = arena->Allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xcd, big);
  arena->Release(p, big);
  const VersionArena::Stats s = arena->GetStats();
  EXPECT_EQ(s.large_allocs, 1u);
  // Heap blocks never touch the slab accounting.
  EXPECT_EQ(s.slabs_allocated, 0u);
  EXPECT_EQ(s.live_bytes + s.pending_bytes + s.free_bytes, 0u);
  // Past its grace period the next arena call hands the heap block back
  // to the heap (ASan checks that free).
  DrainEbr();
  void* small = arena->Allocate(1);
  EXPECT_EQ(arena->GetStats().large_allocs, 1u);
  arena->Release(small, 1);
  arena->Close();
}

TEST(VersionArenaTest, ZeroByteAllocationIsNull) {
  VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
  EXPECT_EQ(arena->Allocate(0), nullptr);
  arena->Release(nullptr, 0);  // must be a no-op
  arena->Close();
}

// ---------------------------------------------------------------------
// Model equivalence: arena-backed chain vs heap-backed reference.
// ---------------------------------------------------------------------

// Reference model with the full VersionChain surface, including Remove.
class ChainModel {
 public:
  void Install(VersionNumber n, const Value& v) { versions_[n] = v; }

  std::optional<std::pair<VersionNumber, Value>> Read(
      TxnNumber at_most) const {
    auto it = versions_.upper_bound(at_most);
    if (it == versions_.begin()) return std::nullopt;
    --it;
    return std::make_pair(it->first, it->second);
  }

  std::optional<std::pair<VersionNumber, Value>> ReadLatest() const {
    if (versions_.empty()) return std::nullopt;
    auto it = std::prev(versions_.end());
    return std::make_pair(it->first, it->second);
  }

  bool Remove(VersionNumber n) { return versions_.erase(n) > 0; }

  size_t Prune(VersionNumber watermark) {
    auto keep = versions_.upper_bound(watermark);
    if (keep == versions_.begin()) return 0;
    --keep;  // newest version <= watermark survives
    size_t removed = 0;
    for (auto it = versions_.begin(); it != keep;) {
      it = versions_.erase(it);
      ++removed;
    }
    return removed;
  }

  size_t size() const { return versions_.size(); }

 private:
  std::map<VersionNumber, Value> versions_;
};

// Payload generator: mixes empty values, short strings, and blobs big
// enough to take the arena's heap path (slab_bytes/8 = 512 for the 4K
// slabs below), so every storage class is exercised.
Value PayloadFor(Random& rng, VersionNumber n) {
  const uint64_t kind = rng.Uniform(10);
  if (kind == 0) return Value();
  if (kind == 1) return Value(600 + rng.Uniform(600), 'x');
  return "v" + std::to_string(n);
}

TEST(ArenaChainEquivalence, MatchesHeapModelAcrossSeeds) {
  const uint64_t seeds = SweepSeeds(6);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(0x9e3779b9 * seed + 1);
    // Tiny slabs plus epoch advances on every step: released arrays
    // and payloads come back out of their grace period and are re-carved
    // constantly while the chain is live — the allocator-churn case the
    // block reuse must keep correct.
    VersionArena* arena = VersionArena::Create(/*slab_bytes=*/4096);
    {
      VersionChain chain(arena);
      ChainModel model;
      std::set<VersionNumber> used;

      for (int step = 0; step < 4000; ++step) {
        if (step % 4 == 0) EpochManager::Global().Advance();
        const double roll = rng.NextDouble();
        if (roll < 0.40) {
          // Install. Half in ascending order (append fast path), half
          // at a random number (out-of-order republish path).
          VersionNumber n;
          if (rng.Uniform(2) == 0 && !used.empty()) {
            n = rng.Uniform(100000);
          } else {
            n = used.empty() ? 1 : *used.rbegin() + 1 + rng.Uniform(3);
          }
          while (used.count(n)) ++n;
          used.insert(n);
          const Value v = PayloadFor(rng, n);
          chain.Install(Version{n, v, 1});
          model.Install(n, v);
        } else if (roll < 0.80) {
          const TxnNumber at = rng.Uniform(100000);
          auto expected = model.Read(at);
          auto actual = chain.Read(at);
          if (expected.has_value()) {
            ASSERT_TRUE(actual.ok()) << "step " << step;
            ASSERT_EQ(actual->version, expected->first) << "step " << step;
            ASSERT_EQ(actual->value, expected->second) << "step " << step;
          } else {
            ASSERT_TRUE(actual.status().IsNotFound()) << "step " << step;
          }
        } else if (roll < 0.88) {
          auto expected = model.ReadLatest();
          auto actual = chain.ReadLatest();
          if (expected.has_value()) {
            ASSERT_TRUE(actual.ok()) << "step " << step;
            ASSERT_EQ(actual->version, expected->first) << "step " << step;
            ASSERT_EQ(actual->value, expected->second) << "step " << step;
            ASSERT_EQ(chain.LatestNumber(), expected->first);
          } else {
            ASSERT_TRUE(actual.status().IsNotFound()) << "step " << step;
          }
        } else if (roll < 0.95) {
          const VersionNumber watermark = rng.Uniform(100000);
          ASSERT_EQ(chain.Prune(watermark), model.Prune(watermark))
              << "step " << step;
        } else {
          // Remove: half the time a version that exists, half a miss.
          VersionNumber n = rng.Uniform(100000);
          if (rng.Uniform(2) == 0 && !used.empty()) {
            auto it = used.lower_bound(n);
            if (it == used.end()) it = used.begin();
            n = *it;
          }
          ASSERT_EQ(chain.Remove(n), model.Remove(n)) << "step " << step;
          used.erase(n);
        }
        ASSERT_EQ(chain.size(), model.size()) << "step " << step;
      }
    }
    arena->Close();
  }
}

}  // namespace
}  // namespace mvcc
