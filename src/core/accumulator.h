// Frequency-aware micro-batch buffering (paper §4.1, Algorithm 1) — the
// legacy chain implementation. New callers should obtain an Accumulator via
// MakeAccumulator() (core/accumulator_api.h) instead of naming this class.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "core/accumulator_api.h"
#include "stats/count_tree.h"

namespace prompt {

/// \brief Algorithm 1 as a literal transcription: buffers a batch interval's
/// tuples in an HTable of per-key chains while progressively maintaining a
/// CountTree (AVL of approximate frequencies) under a per-key update budget.
///
/// The HTable value tracks the exact current frequency (Freq_Current), the
/// frequency last reflected into the tree (Freq_Updated), the remaining
/// budget, and the adaptive frequency/time steps. An incoming tuple triggers
/// a tree reposition when it satisfies its key's f.step or t.step; otherwise
/// the tuple is only chained. Seal() walks the tree in descending order —
/// the quasi-sorted partitioner input — with no separate sorting pass, and
/// copies each key's chain into the contiguous sealed layout as it goes.
///
/// Kept as the reference for differential testing against the flat
/// implementation; the budget state machine here is the specification the
/// flat accumulator replicates bit-for-bit.
class LegacyChainAccumulator final : public Accumulator {
 public:
  explicit LegacyChainAccumulator(AccumulatorOptions options = {})
      : options_(options), table_(1024) {}
  PROMPT_DISALLOW_COPY_AND_ASSIGN(LegacyChainAccumulator);

  const char* name() const override;
  void Begin(TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  AccumulatedBatch Seal() override;
  AccumulatedBatch SealWithPostSort() override;
  void Reset() override;

  uint64_t num_tuples() const override { return num_tuples_; }
  uint64_t num_keys() const override { return table_.size(); }

  /// Total CountTree repositionings in the current batch (test/ablation
  /// observability: bounded by num_keys * budget).
  uint64_t ordering_updates() const override { return tree_updates_; }

  size_t capacity_bytes() const override;

  /// Key-proportional state: HTable + CountTree (the arena, chain column
  /// and sealed copy are O(tuples) and excluded).
  size_t key_state_bytes() const override {
    return table_.capacity_bytes() + tree_.capacity_bytes();
  }

  const AccumulatorOptions& options() const override { return options_; }
  void set_options(const AccumulatorOptions& o) override { options_ = o; }

 private:
  /// Terminates a key's chain in next_.
  static constexpr uint32_t kChainEnd = 0xffffffffu;

  struct KeyState {
    uint64_t freq_current = 0;
    uint64_t freq_updated = 0;
    uint32_t budget_left = 0;
    uint64_t f_step = 1;
    TimeMicros t_next = 0;
    uint32_t head = kChainEnd;
    uint32_t tail = kChainEnd;
  };

  void TreeUpdate(KeyId key, KeyState& ks, TimeMicros now);
  /// Copies the key's chain to the end of sealed_ and returns its run.
  SortedKeyRun AppendRun(KeyId key, const KeyState& ks);

  AccumulatorOptions options_;
  FlatMap<KeyState> table_;
  CountTree tree_;
  std::vector<Tuple> arena_;
  std::vector<uint32_t> next_;
  /// Seal() output: each key's chain copied out as one contiguous run.
  std::vector<Tuple> sealed_;
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  uint64_t num_tuples_ = 0;
  uint64_t initial_f_step_ = 1;
  uint64_t tree_updates_ = 0;
};

}  // namespace prompt
