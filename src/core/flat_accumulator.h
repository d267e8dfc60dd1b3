// Flat implementation of Alg. 1 (paper §4.1): robin-hood hashing over an
// append-only tuple log, with the CountTree replaced by one counting-sort
// order at seal. Callers should obtain it via MakeAccumulator()
// (accumulator_api.h) rather than naming this class.
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/robin_hood_map.h"
#include "core/accumulator_api.h"
#include "core/rank_order.h"

namespace prompt {

/// \brief The fast-path accumulator. Produces output bit-identical to
/// LegacyChainAccumulator — same key order, counts, and per-key tuple
/// sequences — without maintaining an ordering structure per tuple.
///
/// Key insight: the legacy CountTree orders keys ascending by
/// (count, key), and its reverse in-order seal therefore emits descending
/// (freq_updated, key) — larger key first on count ties — where
/// freq_updated is each key's last *budgeted* frequency. That final rank is
/// fully determined by the per-key budget state machine (f_step / t_next),
/// which is plain integer arithmetic independent of the tree. So this
/// implementation runs the identical state machine per tuple — updating a
/// key's freq_updated costs a few ALU ops instead of an O(log K) AVL
/// erase+insert — and materializes the order once at Seal() with the shared
/// rank order (core/rank_order.h): a counting sort on freq_updated, then a
/// radix sort by key inside each equal-frequency run. Keys are distinct, so
/// (freq_updated desc, key desc) is a total order.
/// OnTuple appends each tuple and its key's slot to two logs. Seal() lays the
/// runs out in first-arrival order of their keys and scatters the log into
/// them (ScatterBySlot), so each key's tuples are contiguous and in arrival
/// order.
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
  /// Per-key state, dense (index-addressed by the hash table's value). Same
  /// budget fields and transitions as the legacy KeyState; `key` is carried
  /// here so Seal() never touches the hash table.
  struct KeyState {
    uint64_t freq_current = 0;
    uint64_t freq_updated = 0;
    uint64_t f_step = 1;
    TimeMicros t_next = 0;
    KeyId key = 0;
    uint32_t budget_left = 0;
    /// Seal(): where the key's next tuple goes in sealed_.
    uint64_t cursor = 0;
  };

  void RankUpdate(KeyState& ks, TimeMicros now);
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
  RobinHoodMap<uint32_t> table_;  ///< key -> index into states_
  std::vector<KeyState> states_;
  /// Arrival-order tuple log and, per tuple, its key's index in states_.
  std::vector<Tuple> log_;
  std::vector<uint32_t> log_slot_;
  /// Seal() output: the log regrouped into contiguous key runs.
  std::vector<Tuple> sealed_;
  /// Seal() order buffers; member so their capacity survives across batches.
  RankOrderScratch rank_scratch_;
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  uint64_t num_tuples_ = 0;
  uint64_t initial_f_step_ = 1;
  uint64_t ordering_updates_ = 0;
};

}  // namespace prompt
