// The seal step shared by the flat and sketch accumulators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "model/tuple.h"

namespace prompt {

/// Stable counting-sort scatter that ends the hash-table accumulators'
/// Seal(): log[i] goes to out[cursor(slot[i])++]. With each slot's cursor
/// starting at the first position of its range, every slot's tuples end up
/// contiguous and in arrival order. Most runs are short, so most writes
/// miss; prefetching the destination a few tuples ahead overlaps them.
template <typename CursorOf>
void ScatterBySlot(std::span<const Tuple> log, std::span<const uint32_t> slot,
                   CursorOf&& cursor, Tuple* out) {
  constexpr size_t kAhead = 16;
  const size_t n = log.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) __builtin_prefetch(out + cursor(slot[i + kAhead]), 1);
    out[cursor(slot[i])++] = log[i];
  }
}

}  // namespace prompt
