// The shared rank order against the comparison sort it replaces: items by
// rank descending, ties by key ascending or descending, equal (rank, key)
// items in index order.
#include "core/rank_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace prompt {
namespace {

struct Item {
  uint64_t rank = 0;
  uint64_t key = 0;
};

std::vector<uint32_t> ReferenceOrder(const std::vector<Item>& items,
                                     KeyTies ties) {
  std::vector<uint32_t> order(items.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (items[a].rank != items[b].rank) return items[a].rank > items[b].rank;
    return ties == KeyTies::kAscending ? items[a].key < items[b].key
                                       : items[a].key > items[b].key;
  });
  return order;
}

std::vector<uint32_t> Ordered(const std::vector<Item>& items, KeyTies ties,
                              RankOrderScratch* scratch) {
  const std::span<const RankedItem> order = OrderByRank(
      static_cast<uint32_t>(items.size()),
      [&](uint32_t i) { return items[i].rank; },
      [&](uint32_t i) { return items[i].key; }, ties, scratch);
  std::vector<uint32_t> indices;
  for (const RankedItem& item : order) indices.push_back(item.index);
  return indices;
}

enum class RankShape { kAllEqual, kManyTies, kSkewed, kAboveCountingBound };
enum class KeyShape { kSmallInts, kSharedHighBits, kNearZeroAndMax, kRandom };

const char* Name(RankShape s) {
  switch (s) {
    case RankShape::kAllEqual: return "all_equal";
    case RankShape::kManyTies: return "many_ties";
    case RankShape::kSkewed: return "skewed";
    case RankShape::kAboveCountingBound: return "above_counting_bound";
  }
  return "?";
}

const char* Name(KeyShape s) {
  switch (s) {
    case KeyShape::kSmallInts: return "small_ints";
    case KeyShape::kSharedHighBits: return "shared_high_bits";
    case KeyShape::kNearZeroAndMax: return "near_0_and_max";
    case KeyShape::kRandom: return "random";
  }
  return "?";
}

// Keys may repeat (small integers over a short range, near 0 and
// UINT64_MAX), which also exercises the index-order rule for equal
// (rank, key) items.
std::vector<Item> RandomItems(Rng& rng, size_t n, RankShape ranks,
                              KeyShape keys) {
  const uint64_t high = rng.Next() & 0xFFFFFFF000000000ULL;
  std::vector<Item> items(n);
  for (Item& item : items) {
    switch (ranks) {
      case RankShape::kAllEqual: item.rank = 5; break;
      case RankShape::kManyTies: item.rank = rng.NextBounded(4); break;
      case RankShape::kSkewed:
        item.rank =
            1 + rng.NextBounded(1 + rng.NextBounded(1 + rng.NextBounded(5000)));
        break;
      case RankShape::kAboveCountingBound:
        // Half far above any bound linear in n (with ties among them), half
        // just below and around 2n + 64.
        item.rank = rng.NextBounded(2) == 0
                        ? (uint64_t{1} << 40) + rng.NextBounded(8) * 1000003
                        : rng.NextBounded(3 * n + 100);
        break;
    }
    switch (keys) {
      case KeyShape::kSmallInts: item.key = rng.NextBounded(2 * n + 1); break;
      case KeyShape::kSharedHighBits:
        item.key =
            high | rng.NextBounded(uint64_t{1} << (8 + rng.NextBounded(28)));
        break;
      case KeyShape::kNearZeroAndMax:
        item.key = rng.NextBounded(2) == 0 ? rng.NextBounded(64)
                                           : UINT64_MAX - rng.NextBounded(64);
        break;
      case KeyShape::kRandom: item.key = rng.Next(); break;
    }
  }
  return items;
}

TEST(RankOrderTest, MatchesStableComparisonSort) {
  Rng rng(20261018);
  RankOrderScratch scratch;  // shared: every call must leave it reusable
  int cases = 0;
  for (const RankShape ranks :
       {RankShape::kAllEqual, RankShape::kManyTies, RankShape::kSkewed,
        RankShape::kAboveCountingBound}) {
    for (const KeyShape keys :
         {KeyShape::kSmallInts, KeyShape::kSharedHighBits,
          KeyShape::kNearZeroAndMax, KeyShape::kRandom}) {
      for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{16},
                             size_t{17}, size_t{300}, size_t{5000}}) {
        for (const KeyTies ties : {KeyTies::kAscending, KeyTies::kDescending}) {
          const std::vector<Item> items = RandomItems(rng, n, ranks, keys);
          ASSERT_EQ(Ordered(items, ties, &scratch), ReferenceOrder(items, ties))
              << Name(ranks) << " ranks, " << Name(keys) << " keys, n=" << n
              << (ties == KeyTies::kAscending ? ", ascending" : ", descending");
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 4 * 7 * 2);
}

TEST(RankOrderTest, InsertionSortBoundaryInBothDirections) {
  // One equal-rank run of exactly 16 (insertion sort) and of 17 (one radix
  // pass), with distinct keys that differ only in their low bits or only
  // in their top bit.
  RankOrderScratch scratch;
  for (const uint32_t n : {16u, 17u}) {
    for (const uint64_t base : {uint64_t{0}, UINT64_MAX - 40}) {
      std::vector<Item> items;
      for (uint32_t i = 0; i + 1 < n; ++i) {
        items.push_back(Item{3, base + (i * 7) % (n - 1)});
      }
      items.push_back(Item{3, uint64_t{1} << 63});
      ASSERT_EQ(items.size(), n);
      for (const KeyTies ties : {KeyTies::kAscending, KeyTies::kDescending}) {
        EXPECT_EQ(Ordered(items, ties, &scratch), ReferenceOrder(items, ties))
            << "n=" << n << ", base=" << base;
      }
    }
  }
}

TEST(RankOrderTest, FlippedTieKeysAreReturned) {
  RankOrderScratch scratch;
  const std::vector<Item> items = {{2, 10}, {7, 3}, {2, 11}, {7, 0}};
  const std::span<const RankedItem> asc = OrderByRank(
      4, [&](uint32_t i) { return items[i].rank; },
      [&](uint32_t i) { return items[i].key; }, KeyTies::kAscending, &scratch);
  ASSERT_EQ(asc.size(), 4u);
  EXPECT_EQ(asc[0].index, 3u);
  EXPECT_EQ(asc[0].tie, 0u);
  EXPECT_EQ(asc[3].index, 2u);
  const std::span<const RankedItem> desc = OrderByRank(
      4, [&](uint32_t i) { return items[i].rank; },
      [&](uint32_t i) { return items[i].key; }, KeyTies::kDescending,
      &scratch);
  ASSERT_EQ(desc.size(), 4u);
  EXPECT_EQ(desc[0].index, 1u);
  EXPECT_EQ(desc[0].tie, ~uint64_t{3});
  EXPECT_EQ(desc[3].index, 0u);
}

}  // namespace
}  // namespace prompt
