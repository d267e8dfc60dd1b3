#include "core/reduce_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "stats/metrics.h"

namespace prompt {
namespace {

std::vector<uint64_t> BucketSizes(const std::vector<KeyCluster>& clusters,
                                  const std::vector<uint32_t>& assignment,
                                  uint32_t r) {
  std::vector<uint64_t> sizes(r, 0);
  for (size_t i = 0; i < clusters.size(); ++i) {
    sizes[assignment[i]] += clusters[i].size;
  }
  return sizes;
}

TEST(HashReduceAllocatorTest, DeterministicPerKey) {
  HashReduceAllocator alloc;
  std::vector<KeyCluster> a = {{1, 10, false}, {2, 5, true}};
  std::vector<KeyCluster> b = {{2, 99, true}, {1, 1, false}};
  auto assign_a = alloc.Assign(a, 7);
  auto assign_b = alloc.Assign(b, 7);
  EXPECT_EQ(assign_a[0], assign_b[1]);  // key 1
  EXPECT_EQ(assign_a[1], assign_b[0]);  // key 2
}

TEST(HashReduceAllocatorTest, AllBucketsInRange) {
  HashReduceAllocator alloc;
  std::vector<KeyCluster> clusters;
  for (uint64_t k = 0; k < 1000; ++k) clusters.push_back({k, 1, false});
  auto assignment = alloc.Assign(clusters, 9);
  for (uint32_t b : assignment) EXPECT_LT(b, 9u);
}

TEST(PromptReduceAllocatorTest, SplitKeysFollowTheSharedHash) {
  // Split keys must land on the same bucket as HashReduceAllocator would
  // choose, so independent Map tasks agree without coordination.
  PromptReduceAllocator prompt_alloc;
  HashReduceAllocator hash_alloc;
  std::vector<KeyCluster> clusters;
  for (uint64_t k = 0; k < 200; ++k) clusters.push_back({k, k + 1, true});
  auto a = prompt_alloc.Assign(clusters, 8);
  auto b = hash_alloc.Assign(clusters, 8);
  EXPECT_EQ(a, b);
}

TEST(PromptReduceAllocatorTest, TwoMapTasksAgreeOnSplitKeys) {
  PromptReduceAllocator alloc;
  // Same split key appears in two different task outputs with different
  // cluster sizes and neighbors.
  std::vector<KeyCluster> task1 = {{7, 100, true}, {1, 50, false}};
  std::vector<KeyCluster> task2 = {{3, 10, false}, {7, 2, true}, {9, 5, false}};
  auto a1 = alloc.Assign(task1, 4);
  auto a2 = alloc.Assign(task2, 4);
  EXPECT_EQ(a1[0], a2[1]);  // key 7 agrees
}

TEST(PromptReduceAllocatorTest, NonSplitClustersBalanceBuckets) {
  PromptReduceAllocator prompt_alloc;
  HashReduceAllocator hash_alloc;
  // Skewed non-split cluster sizes, many more clusters than buckets so a
  // smart allocator has room to balance.
  Rng rng(3);
  ZipfSampler zipf(2000, 1.0);
  std::map<uint64_t, uint64_t> sizes;
  for (int i = 0; i < 40000; ++i) ++sizes[zipf.Sample(rng)];
  std::vector<KeyCluster> clusters;
  for (const auto& [k, s] : sizes) clusters.push_back({k, s, false});

  const uint32_t r = 8;
  auto prompt_assign = prompt_alloc.Assign(clusters, r);
  auto hash_assign = hash_alloc.Assign(clusters, r);
  double prompt_bsi =
      BucketSizeImbalance(BucketSizes(clusters, prompt_assign, r));
  double hash_bsi = BucketSizeImbalance(BucketSizes(clusters, hash_assign, r));
  EXPECT_LT(prompt_bsi, hash_bsi * 0.5)
      << "Worst-Fit should at least halve hashing's bucket imbalance";
}

TEST(PromptReduceAllocatorTest, BucketRetirementBalancesClusterCounts) {
  PromptReduceAllocator alloc;
  std::vector<KeyCluster> clusters;
  for (uint64_t k = 0; k < 16; ++k) clusters.push_back({k, 10, false});
  auto assignment = alloc.Assign(clusters, 4);
  std::vector<int> counts(4, 0);
  for (uint32_t b : assignment) ++counts[b];
  for (int c : counts) EXPECT_EQ(c, 4);  // 16 equal clusters over 4 buckets
}

TEST(PromptReduceAllocatorTest, EmptyInput) {
  PromptReduceAllocator alloc;
  auto assignment = alloc.Assign({}, 4);
  EXPECT_TRUE(assignment.empty());
}

TEST(PromptReduceAllocatorTest, SingleBucketTakesAll) {
  PromptReduceAllocator alloc;
  std::vector<KeyCluster> clusters = {{1, 5, false}, {2, 3, true}};
  auto assignment = alloc.Assign(clusters, 1);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 0u);
}

TEST(PromptReduceAllocatorTest, LargestClustersGoFirstToEmptiestBuckets) {
  PromptReduceAllocator alloc;
  // One huge, three small, r=2. Worst-Fit puts the huge cluster alone
  // first; bucket retirement (Alg. 3 lines 7-9) then alternates buckets, so
  // exactly one small cluster joins the huge one after the candidate reset.
  std::vector<KeyCluster> clusters = {
      {1, 1000, false}, {2, 10, false}, {3, 10, false}, {4, 10, false}};
  auto assignment = alloc.Assign(clusters, 2);
  auto sizes = BucketSizes(clusters, assignment, 2);
  EXPECT_EQ(std::max(sizes[0], sizes[1]), 1010u);
  EXPECT_EQ(std::min(sizes[0], sizes[1]), 20u);
  EXPECT_NE(assignment[0], assignment[1]);  // first small avoids the huge one
}

// Sweep: with many equal clusters, Worst-Fit yields near-perfect balance for
// any bucket count.
class ReduceAllocSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReduceAllocSweepTest, EqualClustersSpreadEvenly) {
  const uint32_t r = GetParam();
  PromptReduceAllocator alloc;
  std::vector<KeyCluster> clusters;
  for (uint64_t k = 0; k < 40 * r; ++k) clusters.push_back({k, 7, false});
  auto assignment = alloc.Assign(clusters, r);
  auto sizes = BucketSizes(clusters, assignment, r);
  EXPECT_DOUBLE_EQ(BucketSizeImbalance(sizes), 0.0);
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, ReduceAllocSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

// Alg. 3 in its direct form, the reference PromptReduceAllocator must match
// pick for pick: split keys hashed, the non-split clusters comparison-sorted
// by (size desc, key asc), then Worst-Fit scanning every still-available
// bucket for the first largest room.
std::vector<uint32_t> ReferenceAssign(const std::vector<KeyCluster>& clusters,
                                      uint32_t num_buckets) {
  HashReduceAllocator hash;
  const std::vector<uint32_t> hashed = hash.Assign(clusters, num_buckets);
  std::vector<uint32_t> assignment(clusters.size());
  uint64_t total = 0;
  for (const KeyCluster& c : clusters) total += c.size;
  const double bucket_size =
      static_cast<double>(total) / static_cast<double>(num_buckets);
  std::vector<double> used(num_buckets, 0.0);
  std::vector<size_t> non_split;
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].split) {
      assignment[i] = hashed[i];
      used[hashed[i]] += static_cast<double>(clusters[i].size);
    } else {
      non_split.push_back(i);
    }
  }
  std::sort(non_split.begin(), non_split.end(), [&](size_t a, size_t b) {
    return clusters[a].size != clusters[b].size
               ? clusters[a].size > clusters[b].size
               : clusters[a].key < clusters[b].key;
  });
  std::vector<char> available(num_buckets, 1);
  uint32_t available_count = num_buckets;
  for (size_t i : non_split) {
    if (available_count == 0) {
      std::fill(available.begin(), available.end(), 1);
      available_count = num_buckets;
    }
    uint32_t best = 0;
    double best_room = -1e300;
    for (uint32_t b = 0; b < num_buckets; ++b) {
      if (!available[b]) continue;
      const double room = bucket_size - used[b];
      if (room > best_room) {
        best_room = room;
        best = b;
      }
    }
    assignment[i] = best;
    used[best] += static_cast<double>(clusters[i].size);
    available[best] = 0;
    --available_count;
  }
  return assignment;
}

enum class KeyShape { kSmallInts, kSharedHighBytes, kBelow2To22, kRandom };
enum class SizeShape { kAllEqual, kManyTies, kSkewed, kAboveCountingRange };

const char* Name(KeyShape s) {
  switch (s) {
    case KeyShape::kSmallInts: return "small_ints";
    case KeyShape::kSharedHighBytes: return "shared_high_bytes";
    case KeyShape::kBelow2To22: return "below_2^22";
    case KeyShape::kRandom: return "random";
  }
  return "?";
}

const char* Name(SizeShape s) {
  switch (s) {
    case SizeShape::kAllEqual: return "all_equal";
    case SizeShape::kManyTies: return "many_ties";
    case SizeShape::kSkewed: return "skewed";
    case SizeShape::kAboveCountingRange: return "above_counting_range";
  }
  return "?";
}

// `n` clusters with distinct keys (one Map task never emits a key twice).
// `split_per_mille` of them are split.
std::vector<KeyCluster> RandomClusters(Rng& rng, size_t n, KeyShape keys,
                                       SizeShape sizes,
                                       uint64_t split_per_mille) {
  std::set<KeyId> seen;
  std::vector<KeyCluster> clusters;
  const uint64_t high = rng.Next() & 0xFFFFFF0000000000ULL;
  while (clusters.size() < n) {
    KeyId key = 0;
    switch (keys) {
      case KeyShape::kSmallInts: key = rng.NextBounded(2 * n + 1); break;
      case KeyShape::kSharedHighBytes:
        key = high | rng.NextBounded(uint64_t{1} << (8 + rng.NextBounded(24)));
        break;
      case KeyShape::kBelow2To22: key = rng.NextBounded(uint64_t{1} << 22); break;
      case KeyShape::kRandom: key = rng.Next(); break;
    }
    if (!seen.insert(key).second) continue;
    uint64_t size = 0;
    switch (sizes) {
      case SizeShape::kAllEqual: size = 7; break;
      case SizeShape::kManyTies: size = rng.NextBounded(4); break;
      case SizeShape::kSkewed:
        size = 1 + rng.NextBounded(1 + rng.NextBounded(1 + rng.NextBounded(5000)));
        break;
      case SizeShape::kAboveCountingRange:
        // Half far above any bound linear in the cluster count (with ties
        // among them), half small.
        size = rng.NextBounded(2) == 0
                   ? (uint64_t{1} << 40) + rng.NextBounded(8) * 1000003
                   : rng.NextBounded(3 * n + 100);
        break;
    }
    clusters.push_back(
        KeyCluster{key, size, rng.NextBounded(1000) < split_per_mille});
  }
  return clusters;
}

TEST(PromptReduceAllocatorTest, MatchesReferenceOnRandomClusterSets) {
  PromptReduceAllocator alloc;
  Rng rng(20240517);
  int cases = 0;
  for (const KeyShape keys : {KeyShape::kSmallInts, KeyShape::kSharedHighBytes,
                              KeyShape::kBelow2To22, KeyShape::kRandom}) {
    for (const SizeShape sizes :
         {SizeShape::kAllEqual, SizeShape::kManyTies, SizeShape::kSkewed,
          SizeShape::kAboveCountingRange}) {
      for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                             size_t{300}, size_t{4000}}) {
        for (const uint64_t split_per_mille : {0u, 100u, 600u, 1000u}) {
          const std::vector<KeyCluster> clusters =
              RandomClusters(rng, n, keys, sizes, split_per_mille);
          const uint32_t r = 1 + static_cast<uint32_t>(rng.NextBounded(16));
          ASSERT_EQ(alloc.Assign(clusters, r), ReferenceAssign(clusters, r))
              << Name(keys) << " keys, " << Name(sizes) << " sizes, n=" << n
              << ", split=" << split_per_mille << "/1000, r=" << r;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 4 * 6 * 4);
}

TEST(PromptReduceAllocatorTest, MatchesReferenceForEveryBucketCount) {
  PromptReduceAllocator alloc;
  Rng rng(77);
  for (uint32_t r = 1; r <= 16; ++r) {
    const std::vector<KeyCluster> clusters =
        RandomClusters(rng, 2500, KeyShape::kSmallInts, SizeShape::kSkewed, 100);
    EXPECT_EQ(alloc.Assign(clusters, r), ReferenceAssign(clusters, r))
        << "r=" << r;
  }
}

TEST(PromptReduceAllocatorTest, AssignmentFollowsItsClusterUnderShuffle) {
  // Placement depends on each cluster's (key, size, split), never on its
  // position in the Map task's output.
  PromptReduceAllocator alloc;
  Rng rng(5150);
  for (const SizeShape sizes :
       {SizeShape::kAllEqual, SizeShape::kManyTies, SizeShape::kSkewed,
        SizeShape::kAboveCountingRange}) {
    const std::vector<KeyCluster> clusters =
        RandomClusters(rng, 1500, KeyShape::kBelow2To22, sizes, 150);
    const uint32_t r = 2 + static_cast<uint32_t>(rng.NextBounded(10));
    const std::vector<uint32_t> base = alloc.Assign(clusters, r);
    std::vector<size_t> perm(clusters.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    std::vector<KeyCluster> shuffled(clusters.size());
    for (size_t i = 0; i < perm.size(); ++i) shuffled[i] = clusters[perm[i]];
    const std::vector<uint32_t> moved = alloc.Assign(shuffled, r);
    for (size_t i = 0; i < perm.size(); ++i) {
      ASSERT_EQ(moved[i], base[perm[i]]) << Name(sizes) << " cluster " << i;
    }
  }
}

}  // namespace
}  // namespace prompt
