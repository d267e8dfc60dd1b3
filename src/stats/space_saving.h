// Space-Saving heavy-hitter sketch (Metwally et al.) — the bounded-memory,
// approximate alternative to Prompt's exact per-key statistics (the flat
// accumulator's hash table and per-key counts).
// Gedik's partitioning functions [18] use lossy counting in the same role;
// the paper's position (§2.2.4) is that micro-batching makes *exact*
// per-batch statistics affordable. Under the heavy-hitter ingest mode
// (DESIGN.md §17) this sketch graduates to the hot path: it decides which
// keys earn exact accumulator state, so memory stays O(capacity) instead of
// O(distinct keys) on 10M-key streams.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "model/tuple.h"

namespace prompt {

/// \brief Fixed-capacity top-k frequency tracker.
///
/// Holds at most `capacity` counters. A hit increments its counter; a miss
/// evicts the minimum counter and inherits its count + 1 (the classical
/// Space-Saving overestimate). Per tracked key the classical bound holds:
/// `count - error <= true frequency <= count`.
class SpaceSaving {
 public:
  struct Entry {
    KeyId key = 0;
    uint64_t count = 0;  ///< estimated frequency (over-estimate)
    uint64_t error = 0;  ///< max over-estimation carried from eviction
  };

  explicit SpaceSaving(size_t capacity) : capacity_(capacity), index_(capacity) {
    PROMPT_CHECK(capacity >= 1);
    heap_.reserve(capacity);
  }
  PROMPT_DISALLOW_COPY_AND_ASSIGN(SpaceSaving);

  /// Observes `weight` occurrences of `key`.
  void Add(KeyId key, uint64_t weight = 1) {
    total_ += weight;
    uint32_t* slot = index_.Find(key);
    if (slot != nullptr) {
      heap_[*slot].count += weight;
      SiftDown(*slot);
      return;
    }
    if (heap_.size() < capacity_) {
      heap_.push_back(Entry{key, weight, 0});
      index_.GetOrInsert(key) = static_cast<uint32_t>(heap_.size() - 1);
      SiftUp(static_cast<uint32_t>(heap_.size() - 1));
      return;
    }
    // Evict the minimum: the newcomer inherits min+weight with error = min.
    // The index erase leaves a FlatMap tombstone which the map itself
    // accounts for and compacts, so a churn-only workload (every Add a miss)
    // keeps the index O(capacity).
    Entry& min = heap_[0];
    index_.Erase(min.key);
    min = Entry{key, min.count + weight, min.count};
    index_.GetOrInsert(key) = 0;
    SiftDown(0);
  }

  /// Estimated count for a key (0 when not tracked).
  uint64_t Estimate(KeyId key) const {
    const uint32_t* slot = index_.Find(key);
    return slot == nullptr ? 0 : heap_[*slot].count;
  }

  /// Guaranteed lower bound on a key's true count (0 when not tracked).
  uint64_t LowerBound(KeyId key) const {
    const uint32_t* slot = index_.Find(key);
    return slot == nullptr ? 0 : heap_[*slot].count - heap_[*slot].error;
  }

  /// True when the key currently holds a counter.
  bool Tracks(KeyId key) const { return index_.Find(key) != nullptr; }

  /// Smallest tracked count — the ceiling on any untracked key's frequency.
  uint64_t MinCount() const { return heap_.empty() ? 0 : heap_[0].count; }

  /// Raw tracked entries in heap (unspecified) order — for telemetry that
  /// only aggregates; use TopEntries() when order matters.
  const std::vector<Entry>& entries() const { return heap_; }

  /// Entries sorted by decreasing estimated count.
  std::vector<Entry> TopEntries() const;

  /// Guaranteed heavy hitters: entries whose lower bound (count - error)
  /// exceeds phi * total observations.
  std::vector<Entry> HeavyHitters(double phi) const;

  /// Drops a key's counter, freeing its slot (heavy-hitter mode removes a
  /// key from the sketch once it is promoted to exact tracking). Returns
  /// whether the key was tracked.
  bool Remove(KeyId key) {
    uint32_t* slot = index_.Find(key);
    if (slot == nullptr) return false;
    const uint32_t i = *slot;
    const uint32_t last = static_cast<uint32_t>(heap_.size() - 1);
    index_.Erase(key);
    if (i != last) {
      heap_[i] = heap_[last];
      index_.GetOrInsert(heap_[i].key) = i;
      heap_.pop_back();
      // The relocated element is a former leaf: SiftDown restores order
      // below i; if it did not move, it may still beat i's parent (the
      // removed element's descendants were all >= that parent, but the
      // relocated element came from elsewhere), so SiftUp finishes the job.
      SiftDown(i);
      SiftUp(i);
    } else {
      heap_.pop_back();
    }
    return true;
  }

  /// Folds `other` into this sketch. Intended for sharded ingest where the
  /// two sketches observed *disjoint* key sets (hash-routed shards): the
  /// union is then exact up to each input's own error. Keys present in both
  /// sum counts and errors (still a valid over-estimate); when the union
  /// exceeds capacity only the top `capacity` entries by count survive.
  void Merge(const SpaceSaving& other);

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total() const { return total_; }

  /// Bytes of backing storage (counter heap + key index).
  size_t capacity_bytes() const {
    return heap_.capacity() * sizeof(Entry) + index_.capacity_bytes();
  }

  void Clear() {
    heap_.clear();
    index_.Clear();
    total_ = 0;
  }

 private:
  void Swap(uint32_t a, uint32_t b) {
    std::swap(heap_[a], heap_[b]);
    index_.GetOrInsert(heap_[a].key) = a;
    index_.GetOrInsert(heap_[b].key) = b;
  }

  // Min-heap on count.
  void SiftUp(uint32_t i) {
    while (i > 0) {
      uint32_t parent = (i - 1) / 2;
      if (heap_[parent].count <= heap_[i].count) break;
      Swap(parent, i);
      i = parent;
    }
  }

  void SiftDown(uint32_t i) {
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    while (true) {
      uint32_t smallest = i;
      uint32_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && heap_[l].count < heap_[smallest].count) smallest = l;
      if (r < n && heap_[r].count < heap_[smallest].count) smallest = r;
      if (smallest == i) break;
      Swap(smallest, i);
      i = smallest;
    }
  }

  void RebuildIndex() {
    index_.Clear();
    for (uint32_t i = 0; i < heap_.size(); ++i) {
      index_.GetOrInsert(heap_[i].key) = i;
    }
  }

  size_t capacity_;
  std::vector<Entry> heap_;  // min-heap by count
  FlatMap<uint32_t> index_;  // key -> heap slot
  uint64_t total_ = 0;
};

}  // namespace prompt
