// The exact implementation of Alg. 1 (paper §4.1): a hash table over an
// append-only tuple log, with the key order materialized once at seal.
// Callers should obtain it via MakeAccumulator() (accumulator_api.h) rather
// than naming this class.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "core/accumulator_api.h"
#include "core/key_budget.h"
#include "core/rank_order.h"

namespace prompt {

/// \brief The exact accumulator behind `key_mode = exact`.
///
/// Order contract: Seal() emits keys in descending (freq_updated, key)
/// order — the larger key first on count ties — where freq_updated is each
/// key's last *budgeted* frequency under Alg. 1's per-key budget
/// (core/key_budget.h), while every run carries the key's exact count and
/// its tuples in arrival order. This is the order the paper's tree of
/// counts yields when walked from its largest entry; it is pinned by
/// fingerprints recorded from a literal transcription of Alg. 1 (hash-table
/// chains + an AVL tree of counts), in
/// tests/core/accumulator_differential_test.cc.
///
/// The rank is fully determined by the budget state machine, which is plain
/// integer arithmetic, so no ordering structure is kept per tuple: OnTuple
/// runs the state machine in a few ALU ops and appends the tuple and its
/// key's slot to two logs. Seal() orders the keys once with the shared rank
/// order (core/rank_order.h) — a counting sort on freq_updated, then a
/// radix sort by key inside each equal-frequency run; keys are distinct, so
/// the order is total — lays the runs out in first-arrival order of their
/// keys, and scatters the log into them (ScatterBySlot).
class FlatAccumulator final : public Accumulator {
 public:
  explicit FlatAccumulator(AccumulatorOptions options = {})
      : options_(options), table_(1024) {}
  PROMPT_DISALLOW_COPY_AND_ASSIGN(FlatAccumulator);

  const char* name() const override;
  void Begin(TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  AccumulatedBatch Seal() override;
  AccumulatedBatch SealWithPostSort() override;
  void Reset() override;

  uint64_t num_tuples() const override { return num_tuples_; }
  uint64_t num_keys() const override { return states_.size(); }
  uint64_t ordering_updates() const override { return ordering_updates_; }
  size_t capacity_bytes() const override;

  /// Key-proportional state: hash table + per-key records + seal order
  /// buffers (the tuple arrays are O(tuples) and excluded).
  size_t key_state_bytes() const override {
    return table_.capacity_bytes() + states_.capacity() * sizeof(KeyState) +
           rank_scratch_.capacity_bytes();
  }

  const AccumulatorOptions& options() const override { return options_; }
  void set_options(const AccumulatorOptions& o) override { options_ = o; }

 private:
  /// Per-key state, dense (index-addressed by the hash table's value);
  /// `key` is carried here so Seal() never touches the hash table.
  struct KeyState : KeyBudget {
    KeyId key = 0;
    /// Seal(): where the key's next tuple goes in sealed_.
    uint64_t cursor = 0;
  };
  static_assert(sizeof(KeyState) == 56, "per-key record size changed");

  /// Places every key's run, in first-arrival order, and points each key's
  /// scatter cursor at the start of its run.
  void PlaceRuns();
  /// The key's placed run; read it before the scatter advances the cursor.
  static SortedKeyRun RunOf(const KeyState& ks) {
    return SortedKeyRun{ks.key, ks.freq_current, ks.cursor};
  }
  /// Scatters the tuple log into the placed runs.
  AccumulatedBatch MakeBatch(std::vector<SortedKeyRun> keys);

  AccumulatorOptions options_;
  FlatMap<uint32_t> table_;  ///< key -> index into states_
  std::vector<KeyState> states_;
  /// Arrival-order tuple log and, per tuple, its key's index in states_.
  std::vector<Tuple> log_;
  std::vector<uint32_t> log_slot_;
  /// Seal() output: the log regrouped into contiguous key runs.
  std::vector<Tuple> sealed_;
  /// Seal() order buffers; member so their capacity survives across batches.
  RankOrderScratch rank_scratch_;
  BudgetRule rule_;
  uint64_t num_tuples_ = 0;
  uint64_t ordering_updates_ = 0;
};

}  // namespace prompt
