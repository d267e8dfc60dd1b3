#include "core/rank_order.h"

#include <bit>

namespace prompt::rank_order_internal {

namespace {

constexpr size_t kInsertionSortMax = 16;

void InsertionSortByTie(RankedItem* first, RankedItem* last) {
  for (RankedItem* i = first + 1; i < last; ++i) {
    const RankedItem v = *i;
    RankedItem* j = i;
    for (; j > first && v.tie < (j - 1)->tie; --j) *j = *(j - 1);
    *j = v;
  }
}

constexpr int kMaxDigitBits = 11;

/// MSD radix sort of [first, last) by tie; `scratch` holds last - first
/// entries. Each pass distributes on the digit that ends at the highest bit
/// in which the range's ties differ, so ties sharing their high bytes (small
/// integers, dictionary ids, flipped small integers) cost no pass over
/// constant bits. The digit is 8 to 11 bits wide, about log2 of the range
/// length, so sub-ranges come out a few items long. Items of a sub-range
/// agree on every bit the pass read, so each level narrows the varying bits.
/// Stable: the scatter keeps input order within a digit.
void SortByTie(RankedItem* first, RankedItem* last, RankedItem* scratch) {
  const size_t n = static_cast<size_t>(last - first);
  if (n <= kInsertionSortMax) {
    InsertionSortByTie(first, last);
    return;
  }
  uint64_t differ = 0;
  for (const RankedItem* p = first + 1; p < last; ++p) {
    differ |= p->tie ^ first->tie;
  }
  if (differ == 0) return;
  const int varying = std::bit_width(differ);
  const int bits = std::min(
      varying, std::clamp(static_cast<int>(std::bit_width(n)), 8, kMaxDigitBits));
  const int shift = varying - bits;
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const size_t digits = size_t{1} << bits;
  uint32_t begin[(1 << kMaxDigitBits) + 1];
  std::fill(begin, begin + digits + 1, 0u);
  for (const RankedItem* p = first; p < last; ++p) {
    ++begin[((p->tie >> shift) & mask) + 1];
  }
  for (size_t d = 0; d < digits; ++d) begin[d + 1] += begin[d];
  for (const RankedItem* p = first; p < last; ++p) {
    scratch[begin[(p->tie >> shift) & mask]++] = *p;
  }
  std::copy(scratch, scratch + n, first);
  // begin[d] now holds the end of digit d's sub-range.
  uint32_t from = 0;
  for (size_t d = 0; d < digits; ++d) {
    const uint32_t to = begin[d];
    if (to - from > kInsertionSortMax) {
      SortByTie(first + from, first + to, scratch);
    } else if (to - from > 1) {
      InsertionSortByTie(first + from, first + to);
    }
    from = to;
  }
}

}  // namespace

void PlaceLarge(RankOrderScratch* scratch) {
  std::vector<RankOrderScratch::Large>& large = scratch->large;
  std::sort(large.begin(), large.end(),
            [](const RankOrderScratch::Large& a,
               const RankOrderScratch::Large& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              if (a.item.tie != b.item.tie) return a.item.tie < b.item.tie;
              return a.item.index < b.item.index;
            });
  for (size_t i = 0; i < large.size(); ++i) {
    scratch->order[i] = large[i].item;
  }
}

void SortRuns(RankOrderScratch* scratch, uint64_t counted_ranks,
              uint32_t first) {
  const std::vector<uint32_t>& end = scratch->rank_start;
  if (scratch->radix.size() < scratch->order.size()) {
    scratch->radix.clear();
    scratch->radix.resize(scratch->order.size());
  }
  RankedItem* order = scratch->order.data();
  uint32_t run_begin = first;
  for (uint64_t r = counted_ranks; r-- > 0;) {
    if (end[r] - run_begin > 1) {
      SortByTie(order + run_begin, order + end[r], scratch->radix.data());
    }
    run_begin = end[r];
  }
}

}  // namespace prompt::rank_order_internal
