#include "ingest/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <vector>

namespace prompt {
namespace {

std::vector<SortedKeyRun> MakeRun(
    std::initializer_list<std::pair<KeyId, uint64_t>> entries) {
  std::vector<SortedKeyRun> run;
  for (const auto& [key, count] : entries) {
    run.push_back(SortedKeyRun{key, count});
  }
  return run;
}

std::vector<std::span<const SortedKeyRun>> Spans(
    const std::vector<std::vector<SortedKeyRun>>& shards) {
  std::vector<std::span<const SortedKeyRun>> spans;
  for (const auto& s : shards) spans.emplace_back(s);
  return spans;
}

TEST(LoserTreeMergeTest, EmptyInputs) {
  EXPECT_TRUE(MergeShardRuns({}).empty());
  std::vector<std::vector<SortedKeyRun>> shards(3);
  EXPECT_TRUE(MergeShardRuns(Spans(shards)).empty());
}

TEST(LoserTreeMergeTest, SingleShardPassesThrough) {
  std::vector<std::vector<SortedKeyRun>> shards;
  shards.push_back(MakeRun({{1, 50}, {2, 30}, {3, 10}}));
  auto merged = MergeShardRuns(Spans(shards));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 1u);
  EXPECT_EQ(merged[2].count, 10u);
}

TEST(LoserTreeMergeTest, InterleavesDescendingByCount) {
  std::vector<std::vector<SortedKeyRun>> shards;
  shards.push_back(MakeRun({{1, 100}, {3, 40}, {5, 5}}));
  shards.push_back(MakeRun({{2, 70}, {4, 40}, {6, 1}}));
  auto merged = MergeShardRuns(Spans(shards));
  ASSERT_EQ(merged.size(), 6u);
  std::vector<KeyId> keys;
  for (const auto& r : merged) keys.push_back(r.key);
  // Equal counts (40) tie-break by ascending key: 3 before 4.
  EXPECT_EQ(keys, (std::vector<KeyId>{1, 2, 3, 4, 5, 6}));
}

TEST(LoserTreeMergeTest, ReportsSourceShard) {
  std::vector<std::vector<SortedKeyRun>> shards;
  shards.push_back(MakeRun({{1, 9}}));
  shards.push_back(MakeRun({{2, 8}}));
  shards.push_back(MakeRun({{3, 7}}));
  LoserTree tree(Spans(shards));
  SortedKeyRun run;
  uint32_t source = 99;
  ASSERT_TRUE(tree.Next(&run, &source));
  EXPECT_EQ(run.key, 1u);
  EXPECT_EQ(source, 0u);
  ASSERT_TRUE(tree.Next(&run, &source));
  EXPECT_EQ(source, 1u);
  ASSERT_TRUE(tree.Next(&run, &source));
  EXPECT_EQ(source, 2u);
  EXPECT_FALSE(tree.Next(&run, &source));
}

TEST(LoserTreeMergeTest, HandlesNonPowerOfTwoAndEmptyShards) {
  std::vector<std::vector<SortedKeyRun>> shards(5);
  shards[1] = MakeRun({{10, 3}});
  shards[3] = MakeRun({{11, 4}, {12, 2}});
  auto merged = MergeShardRuns(Spans(shards));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 11u);
  EXPECT_EQ(merged[1].key, 10u);
  EXPECT_EQ(merged[2].key, 12u);
}

// Merge determinism and exactness over randomized shardings: for any shard
// count, splitting a key population across shards (disjoint keys, as hash
// routing guarantees) and merging yields (a) exactly the original per-key
// counts and (b) globally sorted order when the inputs are sorted — the
// merge never degrades the input's sortedness.
TEST(LoserTreeMergeTest, RandomizedDisjointShardingIsExactAndSorted) {
  std::mt19937_64 rng(1234);
  for (uint32_t num_shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    // Build a key population with random counts.
    std::map<KeyId, uint64_t> truth;
    for (KeyId k = 0; k < 500; ++k) {
      truth[k] = 1 + rng() % 1000;
    }
    // Route each key to a shard, then sort each shard's run list the way
    // Seal() emits it (count desc, key asc).
    std::vector<std::vector<SortedKeyRun>> shards(num_shards);
    for (const auto& [key, count] : truth) {
      shards[key % num_shards].push_back(
          SortedKeyRun{key, count});
    }
    for (auto& s : shards) {
      std::sort(s.begin(), s.end(),
                [](const SortedKeyRun& a, const SortedKeyRun& b) {
                  return RunBefore(a, b);
                });
    }
    auto merged = MergeShardRuns(Spans(shards));
    ASSERT_EQ(merged.size(), truth.size()) << "shards=" << num_shards;
    for (size_t i = 1; i < merged.size(); ++i) {
      EXPECT_FALSE(RunBefore(merged[i], merged[i - 1]))
          << "out of order at " << i << " with shards=" << num_shards;
    }
    std::map<KeyId, uint64_t> got;
    for (const auto& r : merged) got[r.key] += r.count;
    EXPECT_EQ(got, truth) << "shards=" << num_shards;

    // Determinism: a second merge of the same inputs is identical.
    auto merged2 = MergeShardRuns(Spans(shards));
    ASSERT_EQ(merged2.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged2[i].key, merged[i].key);
      EXPECT_EQ(merged2[i].count, merged[i].count);
    }
  }
}

}  // namespace
}  // namespace prompt
