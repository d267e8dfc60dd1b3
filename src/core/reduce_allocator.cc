#include "core/reduce_allocator.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"

namespace prompt {

namespace {
// Seed shared by every Map task so split keys collide onto the same bucket
// without coordination.
constexpr uint64_t kReduceHashSeed = 0x5eedf00dULL;

uint32_t BucketOf(KeyId key, uint32_t num_buckets) {
  return static_cast<uint32_t>(HashKey(key, kReduceHashSeed) % num_buckets);
}

/// A non-split cluster in placement order.
struct Ranked {
  KeyId key;
  uint32_t index;  ///< position in the Assign input
};

constexpr size_t kInsertionSortMax = 16;

void InsertionSortByKey(Ranked* first, Ranked* last) {
  for (Ranked* i = first + 1; i < last; ++i) {
    const Ranked v = *i;
    Ranked* j = i;
    for (; j > first && v.key < (j - 1)->key; --j) *j = *(j - 1);
    *j = v;
  }
}

constexpr int kMaxDigitBits = 11;

/// MSD radix sort of [first, last) by key; `scratch` holds last - first
/// entries. Each pass distributes on the digit that ends at the highest bit
/// in which the range's keys differ, so keys sharing their high bytes (small
/// integers, dictionary ids) cost no pass over constant bits. The digit is
/// 8 to 11 bits wide, about log2 of the range length, so sub-ranges come
/// out a few keys long. Keys of a sub-range agree on every bit the pass
/// read, so each level narrows the varying bits.
void SortByKey(Ranked* first, Ranked* last, Ranked* scratch) {
  const size_t n = static_cast<size_t>(last - first);
  if (n <= kInsertionSortMax) {
    InsertionSortByKey(first, last);
    return;
  }
  uint64_t differ = 0;
  for (const Ranked* p = first + 1; p < last; ++p) differ |= p->key ^ first->key;
  if (differ == 0) return;
  const int varying = std::bit_width(differ);
  const int bits = std::min(
      varying, std::clamp(static_cast<int>(std::bit_width(n)), 8, kMaxDigitBits));
  const int shift = varying - bits;
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const size_t digits = size_t{1} << bits;
  uint32_t begin[(1 << kMaxDigitBits) + 1];
  std::fill(begin, begin + digits + 1, 0u);
  for (const Ranked* p = first; p < last; ++p) {
    ++begin[((p->key >> shift) & mask) + 1];
  }
  for (size_t d = 0; d < digits; ++d) begin[d + 1] += begin[d];
  for (const Ranked* p = first; p < last; ++p) {
    scratch[begin[(p->key >> shift) & mask]++] = *p;
  }
  std::copy(scratch, scratch + n, first);
  // begin[d] now holds the end of digit d's sub-range.
  uint32_t from = 0;
  for (size_t d = 0; d < digits; ++d) {
    const uint32_t to = begin[d];
    if (to - from > kInsertionSortMax) {
      SortByKey(first + from, first + to, scratch);
    } else if (to - from > 1) {
      InsertionSortByKey(first + from, first + to);
    }
    from = to;
  }
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
  size_t non_split = 0;
  uint64_t max_size = 0;
  for (size_t i = 0; i < clusters.size(); ++i) {
    const KeyCluster& c = clusters[i];
    if (c.split) {
      const uint32_t b = BucketOf(c.key, num_buckets);
      assignment[i] = b;
      used[b] += static_cast<double>(c.size);
    } else {
      ++non_split;
      max_size = std::max(max_size, c.size);
    }
  }

  // Line 4 orders the non-split clusters by decreasing size, equal sizes by
  // increasing key. Sizes below a bound linear in the cluster count are
  // counting-sorted, so the order costs no comparisons; the few clusters at
  // or above it are comparison-sorted and go first.
  const uint64_t counted_sizes =
      std::min<uint64_t>(max_size + 1, 2 * clusters.size() + 64);
  std::vector<uint32_t> size_count(counted_sizes, 0);
  std::vector<uint32_t> large;
  for (size_t i = 0; i < clusters.size(); ++i) {
    const KeyCluster& c = clusters[i];
    if (c.split) continue;
    if (c.size < counted_sizes) {
      ++size_count[c.size];
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(large.begin(), large.end(), [&](uint32_t a, uint32_t b) {
    return clusters[a].size != clusters[b].size
               ? clusters[a].size > clusters[b].size
               : clusters[a].key < clusters[b].key;
  });
  std::vector<Ranked> order(non_split);
  for (size_t i = 0; i < large.size(); ++i) {
    order[i] = Ranked{clusters[large[i]].key, large[i]};
  }
  // size_count[s] becomes the start of size s's run (smaller sizes later),
  // and the scatter below advances it to the run's end.
  uint32_t run_start = static_cast<uint32_t>(non_split);
  for (uint64_t s = 0; s < counted_sizes; ++s) {
    run_start -= size_count[s];
    size_count[s] = run_start;
  }
  for (size_t i = 0; i < clusters.size(); ++i) {
    const KeyCluster& c = clusters[i];
    if (!c.split && c.size < counted_sizes) {
      order[size_count[c.size]++] = Ranked{c.key, static_cast<uint32_t>(i)};
    }
  }
  // Each equal-size run now spans [previous size's end, size_count[s]).
  std::vector<Ranked> scratch(non_split);
  uint32_t run_begin = static_cast<uint32_t>(large.size());
  for (uint64_t s = counted_sizes; s-- > 0;) {
    const uint32_t end = size_count[s];
    if (end - run_begin > 1) {
      SortByKey(order.data() + run_begin, order.data() + end, scratch.data());
    }
    run_begin = end;
  }

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
      assignment[order[i].index] = b;
      used[b] += static_cast<double>(clusters[order[i].index].size);
    }
  }
  return assignment;
}

}  // namespace prompt
