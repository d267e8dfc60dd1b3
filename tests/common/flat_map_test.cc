#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"

namespace prompt {
namespace {

TEST(FlatMapTest, InsertAndFind) {
  FlatMap<int> map;
  map.GetOrInsert(1) = 10;
  map.GetOrInsert(2) = 20;
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_EQ(*map.Find(2), 20);
  EXPECT_EQ(map.Find(3), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, GetOrInsertReportsInsertion) {
  FlatMap<int> map;
  bool inserted = false;
  map.GetOrInsert(5, &inserted);
  EXPECT_TRUE(inserted);
  map.GetOrInsert(5, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, DefaultConstructsValue) {
  FlatMap<uint64_t> map;
  EXPECT_EQ(map.GetOrInsert(9), 0u);
  ++map.GetOrInsert(9);
  EXPECT_EQ(*map.Find(9), 1u);
}

TEST(FlatMapTest, GrowsBeyondInitialCapacity) {
  FlatMap<uint64_t> map(4);
  for (uint64_t k = 0; k < 10000; ++k) map.GetOrInsert(k) = k * 2;
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k * 2);
  }
}

TEST(FlatMapTest, ClearRetainsUsability) {
  FlatMap<int> map;
  for (uint64_t k = 0; k < 100; ++k) map.GetOrInsert(k) = 1;
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  map.GetOrInsert(5) = 7;
  EXPECT_EQ(*map.Find(5), 7);
}

TEST(FlatMapTest, ForEachVisitsAllEntriesOnce) {
  FlatMap<uint64_t> map;
  for (uint64_t k = 100; k < 200; ++k) map.GetOrInsert(k) = k;
  uint64_t visits = 0, key_sum = 0;
  map.ForEach([&](uint64_t k, uint64_t v) {
    ++visits;
    key_sum += k;
    EXPECT_EQ(k, v);
  });
  EXPECT_EQ(visits, 100u);
  EXPECT_EQ(key_sum, (100 + 199) * 100 / 2);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomOps) {
  FlatMap<int> map;
  std::unordered_map<uint64_t, int> reference;
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    uint64_t key = rng.NextBounded(5000);
    int delta = static_cast<int>(rng.NextBounded(10));
    map.GetOrInsert(key) += delta;
    reference[key] += delta;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_NE(map.Find(k), nullptr);
    EXPECT_EQ(*map.Find(k), v);
  }
}

TEST(FlatMapTest, EraseRemovesAndReportsPresence) {
  FlatMap<int> map;
  map.GetOrInsert(1) = 10;
  map.GetOrInsert(2) = 20;
  EXPECT_TRUE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_FALSE(map.Erase(1));  // already gone
  EXPECT_FALSE(map.Erase(7));  // never present
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(2), 20);
}

TEST(FlatMapTest, EraseDoesNotBreakProbeChains) {
  // Three keys colliding into one probe chain; erasing the middle one must
  // leave the later chain members findable (tombstone, not empty).
  FlatMap<int> map(4);
  std::vector<uint64_t> chain;
  // Find keys that land on the same initial slot.
  const size_t cap = map.capacity();
  const size_t want = HashKey(1) & (cap - 1);
  for (uint64_t k = 1; chain.size() < 3 && k < 100000; ++k) {
    if ((HashKey(k) & (cap - 1)) == want) chain.push_back(k);
  }
  ASSERT_EQ(chain.size(), 3u);
  for (uint64_t k : chain) map.GetOrInsert(k) = static_cast<int>(k);
  ASSERT_EQ(map.capacity(), cap) << "grew during setup; collisions invalid";
  map.Erase(chain[1]);
  EXPECT_NE(map.Find(chain[0]), nullptr);
  EXPECT_NE(map.Find(chain[2]), nullptr);
  EXPECT_EQ(map.Find(chain[1]), nullptr);
}

TEST(FlatMapTest, ReinsertAfterEraseReclaimsTombstone) {
  FlatMap<int> map(8);
  map.GetOrInsert(42) = 1;
  EXPECT_TRUE(map.Erase(42));
  EXPECT_EQ(map.tombstones(), 1u);
  map.GetOrInsert(42) = 2;  // must reclaim the tombstone, not shadow it
  EXPECT_EQ(map.tombstones(), 0u);
  EXPECT_EQ(*map.Find(42), 2);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, ChurnOnlyWorkloadStaysBounded) {
  // Insert+erase a fresh key each step: live size stays 1, but every erase
  // leaves a tombstone. Unaccounted tombstones would either degrade Find to
  // a full-table scan (chains never hit an empty slot) or grow the table
  // without bound; tombstone-aware rehash keeps capacity at its floor.
  FlatMap<int> map(8);
  const size_t initial_cap = map.capacity();
  for (uint64_t k = 0; k < 200000; ++k) {
    map.GetOrInsert(k) = static_cast<int>(k);
    EXPECT_TRUE(map.Erase(k));
  }
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), initial_cap) << "churn must not grow the table";
  EXPECT_LT(map.tombstones(), map.capacity());
  // Still a working map.
  map.GetOrInsert(7) = 7;
  EXPECT_EQ(*map.Find(7), 7);
}

TEST(FlatMapTest, MixedChurnMatchesReference) {
  FlatMap<int> map;
  std::unordered_map<uint64_t, int> reference;
  Rng rng(123);
  for (int i = 0; i < 100000; ++i) {
    uint64_t key = rng.NextBounded(2000);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(map.Erase(key), reference.erase(key) > 0) << "key " << key;
    } else {
      int delta = static_cast<int>(rng.NextBounded(10));
      map.GetOrInsert(key) += delta;
      reference[key] += delta;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [k, v] : reference) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), v);
  }
}

TEST(FlatMapTest, ClearResetsTombstones) {
  FlatMap<int> map;
  for (uint64_t k = 0; k < 50; ++k) map.GetOrInsert(k) = 1;
  for (uint64_t k = 0; k < 50; ++k) map.Erase(k);
  EXPECT_GT(map.tombstones(), 0u);
  map.Clear();
  EXPECT_EQ(map.tombstones(), 0u);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMapTest, HandlesAdversarialKeys) {
  // Keys differing only in high bits; linear probing must still separate.
  FlatMap<int> map;
  for (uint64_t k = 0; k < 64; ++k) map.GetOrInsert(k << 58) = static_cast<int>(k);
  for (uint64_t k = 0; k < 64; ++k) {
    ASSERT_NE(map.Find(k << 58), nullptr);
    EXPECT_EQ(*map.Find(k << 58), static_cast<int>(k));
  }
}

// The accumulators report key_state_bytes() from capacity_bytes(): it must
// grow with the slot array, cover every slot, and survive Clear().
TEST(FlatMapTest, CapacityBytesTracksStorage) {
  FlatMap<uint64_t> map;
  const size_t before = map.capacity_bytes();
  for (uint64_t k = 0; k < 10000; ++k) map.GetOrInsert(k) = k;
  EXPECT_GT(map.capacity_bytes(), before);
  EXPECT_GE(map.capacity_bytes(),
            map.capacity() * (sizeof(FlatMap<uint64_t>::Slot) + 1));
  const size_t grown = map.capacity_bytes();
  map.Clear();
  EXPECT_EQ(map.capacity_bytes(), grown);
}

}  // namespace
}  // namespace prompt
