#include "core/reduce_allocator.h"

#include <algorithm>
#include <span>

#include "common/hash.h"
#include "core/rank_order.h"

namespace prompt {

namespace {
// Seed shared by every Map task so split keys collide onto the same bucket
// without coordination.
constexpr uint64_t kReduceHashSeed = 0x5eedf00dULL;

uint32_t BucketOf(KeyId key, uint32_t num_buckets) {
  return static_cast<uint32_t>(HashKey(key, kReduceHashSeed) % num_buckets);
}

}  // namespace

std::vector<uint32_t> HashReduceAllocator::Assign(
    const std::vector<KeyCluster>& clusters, uint32_t num_buckets) {
  std::vector<uint32_t> assignment(clusters.size());
  for (size_t i = 0; i < clusters.size(); ++i) {
    assignment[i] = BucketOf(clusters[i].key, num_buckets);
  }
  return assignment;
}

std::vector<uint32_t> PromptReduceAllocator::Assign(
    const std::vector<KeyCluster>& clusters, uint32_t num_buckets) {
  std::vector<uint32_t> assignment(clusters.size());
  if (num_buckets == 0) return assignment;

  // Expected even share per bucket (Alg. 3 line 1).
  uint64_t total = 0;
  for (const KeyCluster& c : clusters) total += c.size;
  const double bucket_size =
      static_cast<double>(total) / static_cast<double>(num_buckets);

  // Lines 2-3: split keys must follow the global hash; they consume capacity.
  std::vector<double> used(num_buckets, 0.0);
  std::vector<uint32_t> non_split;
  non_split.reserve(clusters.size());
  for (size_t i = 0; i < clusters.size(); ++i) {
    const KeyCluster& c = clusters[i];
    if (c.split) {
      const uint32_t b = BucketOf(c.key, num_buckets);
      assignment[i] = b;
      used[b] += static_cast<double>(c.size);
    } else {
      non_split.push_back(static_cast<uint32_t>(i));
    }
  }

  // Line 4 orders the non-split clusters by decreasing size, equal sizes by
  // increasing key, with the shared comparison-free rank order.
  RankOrderScratch scratch;
  const std::span<const RankedItem> order = OrderByRank(
      static_cast<uint32_t>(non_split.size()),
      [&](uint32_t i) { return clusters[non_split[i]].size; },
      [&](uint32_t i) { return clusters[non_split[i]].key; },
      KeyTies::kAscending, &scratch);

  // Lines 5-12: Worst-Fit with bucket retirement. Each chosen bucket leaves
  // the candidate set until all buckets received a cluster, which also
  // balances the number of clusters per bucket. A pick changes only the
  // chosen bucket's load, so one round of num_buckets picks takes the
  // buckets in order of their room at the round's start, largest first and
  // the lower index on ties (the first maximum a scan finds).
  std::vector<uint32_t> round(num_buckets);
  std::vector<double> room(num_buckets);
  for (size_t first = 0; first < order.size(); first += num_buckets) {
    for (uint32_t b = 0; b < num_buckets; ++b) {
      room[b] = bucket_size - used[b];
      uint32_t j = b;
      for (; j > 0 && room[round[j - 1]] < room[b]; --j) round[j] = round[j - 1];
      round[j] = b;
    }
    const size_t last = std::min(order.size(), first + num_buckets);
    for (size_t i = first; i < last; ++i) {
      const uint32_t b = round[i - first];
      const uint32_t c = non_split[order[i].index];
      assignment[c] = b;
      used[b] += static_cast<double>(clusters[c].size);
    }
  }
  return assignment;
}

}  // namespace prompt
