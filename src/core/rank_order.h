// The one order that ranks a batch's keys in src/core/: the Alg. 1 seals
// (frequency desc, key desc) and Alg. 3's Worst-Fit input (size desc,
// key asc). Both are (rank desc, key) over items whose keys are distinct,
// so the order is total.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace prompt {

/// Which way items of equal rank are ordered by key.
enum class KeyTies { kAscending, kDescending };

/// One ordered item: the caller's index and the key its ties were broken
/// by, bit-flipped for descending ties (so every run sorts ascending). Read
/// the caller's own data through `index`.
struct RankedItem {
  uint64_t tie = 0;
  uint32_t index = 0;
};

/// The buffers of OrderByRank(). A caller that orders every batch keeps
/// one, so their capacity survives across batches.
struct RankOrderScratch {
  /// An item at or above the counting bound, comparison-sorted.
  struct Large {
    uint64_t rank = 0;
    RankedItem item;
  };

  std::vector<RankedItem> order;     ///< the last result
  std::vector<RankedItem> radix;     ///< MSD radix sort buffer
  std::vector<uint32_t> rank_start;  ///< counting-sort table, per rank
  std::vector<Large> large;

  size_t capacity_bytes() const {
    return (order.capacity() + radix.capacity()) * sizeof(RankedItem) +
           rank_start.capacity() * sizeof(uint32_t) +
           large.capacity() * sizeof(Large);
  }
};

namespace rank_order_internal {
/// Orders scratch->large and copies it to the front of scratch->order.
void PlaceLarge(RankOrderScratch* scratch);
/// Sorts by tie every run of equal counted rank. scratch->rank_start[r]
/// holds the end of rank r's run; rank counted_ranks - 1's run starts at
/// `first`.
void SortRuns(RankOrderScratch* scratch, uint64_t counted_ranks,
              uint32_t first);
}  // namespace rank_order_internal

/// \brief Orders items 0..n-1 by rank_of(i) descending, equal ranks by
/// key_of(i) in the `ties` direction, and returns them (a view of
/// scratch->order, valid until the next call with the same scratch). Equal
/// (rank, key) items keep index order.
///
/// No comparisons on the common path: a stable counting sort on rank over
/// the ranks below min(max rank + 1, 2n + 64); the few items at or above
/// that bound are comparison-sorted and go first. Each equal-rank run is
/// then ordered by key with an MSD radix sort whose digit ends at the run's
/// highest varying bit, and insertion sort on sub-ranges of at most 16.
template <typename RankOf, typename KeyOf>
std::span<const RankedItem> OrderByRank(uint32_t n, RankOf&& rank_of,
                                        KeyOf&& key_of, KeyTies ties,
                                        RankOrderScratch* scratch) {
  const uint64_t flip = ties == KeyTies::kDescending ? ~uint64_t{0} : 0;
  uint64_t max_rank = 0;
  for (uint32_t i = 0; i < n; ++i) {
    max_rank = std::max<uint64_t>(max_rank, rank_of(i));
  }
  const uint64_t counted_ranks =
      std::min<uint64_t>(max_rank + 1, 2 * uint64_t{n} + 64);
  std::vector<uint32_t>& start = scratch->rank_start;
  start.assign(counted_ranks, 0);
  scratch->large.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t rank = rank_of(i);
    if (rank < counted_ranks) {
      ++start[rank];
    } else {
      scratch->large.push_back({rank, RankedItem{key_of(i) ^ flip, i}});
    }
  }
  scratch->order.resize(n);
  rank_order_internal::PlaceLarge(scratch);
  // start[r] becomes the start of rank r's run (lower ranks later), and the
  // scatter below advances it to the run's end.
  uint32_t run_start = n;
  for (uint64_t r = 0; r < counted_ranks; ++r) {
    run_start -= start[r];
    start[r] = run_start;
  }
  RankedItem* order = scratch->order.data();
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t rank = rank_of(i);
    if (rank < counted_ranks) {
      order[start[rank]++] = RankedItem{key_of(i) ^ flip, i};
    }
  }
  rank_order_internal::SortRuns(
      scratch, counted_ranks, static_cast<uint32_t>(scratch->large.size()));
  return scratch->order;
}

}  // namespace prompt
