// Heavy-hitter (sketch-bounded) implementation of Alg. 1 buffering
// (DESIGN.md §17). Exact per-key state is the memory wall at DEBS scale
// (~8M distinct keys): the HTable, per-key records, and ordering structures
// all grow O(K). This accumulator keeps that state only for the keys that
// matter to Alg. 2 — the head a Space-Saving sketch confirms as heavy — and
// lets the tail flow through hash-partitioned buckets with no per-key state
// at all, so key-proportional memory is O(sketch capacity).
// Callers should obtain it via MakeAccumulator() (accumulator_api.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/macros.h"
#include "core/accumulator_api.h"
#include "core/key_budget.h"
#include "stats/hyperloglog.h"
#include "stats/space_saving.h"

namespace prompt {

/// \brief The bounded-memory accumulator behind `key_mode = sketch`.
///
/// Per tuple, exactly one of two paths runs:
///   head — the key already holds exact state (it was promoted): log the
///   tuple, bump the exact count, run the same budget rule as the flat
///   accumulator (core/key_budget.h);
///   tail — feed the Space-Saving sketch and, if the key's estimate now
///   clears the promotion threshold max(8, 4 * N_est / K_avg) (about four
///   times the mean key frequency) and a counter slot is free, promote it:
///   it leaves the sketch and gets an exact record seeded with the sketch
///   estimate as its rank base. Otherwise the tuple goes to tail bucket
///   hash(key) % tail_buckets — a bare tuple count, no per-key bookkeeping.
/// Seal() lays out the promoted keys' runs, then the buckets in bucket
/// order, and scatters the tuple log into them (ScatterBySlot).
///
/// Consequences downstream documents must honor:
///   - A promoted key's run count covers only its post-promotion tuples; the
///     pre-promotion occurrences sit in its tail bucket. The key therefore
///     spans a head block and a tail block, which per-block fragment
///     summaries already surface as a split key.
///   - All tuples of a never-promoted key land in one bucket (same hash on
///     every shard), so placing a bucket on one block splits no tail key.
///   - Seal ordering ranks promoted keys by rank_base + freq_updated (the
///     sketch's estimate of the full-batch frequency), while run counts stay
///     exact — Alg. 2 consumes counts as take-amounts, so they must match
///     the runs tuple-for-tuple.
class SketchAccumulator final : public Accumulator {
 public:
  explicit SketchAccumulator(AccumulatorOptions options = {});
  PROMPT_DISALLOW_COPY_AND_ASSIGN(SketchAccumulator);

  const char* name() const override;
  void Begin(TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  AccumulatedBatch Seal() override;
  AccumulatedBatch SealWithPostSort() override;
  void Reset() override;

  uint64_t num_tuples() const override { return num_tuples_; }
  /// Keys with exact state (promoted head keys) — tail keys are uncounted
  /// by design; stats().distinct_estimate carries the HLL cardinality.
  uint64_t num_keys() const override { return states_.size(); }
  uint64_t ordering_updates() const override { return ordering_updates_; }
  size_t capacity_bytes() const override;
  size_t key_state_bytes() const override;

  const AccumulatorOptions& options() const override { return options_; }
  void set_options(const AccumulatorOptions& o) override { options_ = o; }

  /// The live sketch (read-only): SketchPartitioner and the pipeline's seal
  /// barrier consume it instead of building a private copy.
  const SpaceSaving& sketch() const { return *sketch_; }

  /// Folds another shard's sketch/HLL into this one (seal-barrier merge;
  /// hash-routed shards see disjoint keys).
  void MergeSketchFrom(const SketchAccumulator& other);

  /// Sketch telemetry for the current batch (also embedded in the sealed
  /// batch via AccumulatedBatch::stats()).
  SketchBatchStats ComputeStats() const;

 private:
  /// Exact state for a promoted key. rank_base carries the sketch estimate
  /// at promotion so seal ordering reflects full-batch frequency while
  /// counts stay exact.
  struct KeyState : KeyBudget {
    uint64_t rank_base = 0;
    KeyId key = 0;
    /// Seal(): where the key's next tuple goes in sealed_.
    uint64_t cursor = 0;
  };
  static_assert(sizeof(KeyState) == 64, "per-key record size changed");

  /// Gives `key` exact state; returns its tuple slot.
  uint32_t Promote(KeyId key, uint64_t estimate, TimeMicros now);
  /// Lays out the promoted keys' runs in promotion order, then the tail
  /// buckets, and points every scatter cursor at its range's start.
  void PlaceRuns();
  /// The key's placed run; read it before the scatter advances the cursor.
  static SortedKeyRun RunOf(const KeyState& ks) {
    return SortedKeyRun{ks.key, ks.freq_current, ks.cursor};
  }
  /// Scatters the tuple log into the placed ranges; `keys` is the run order.
  AccumulatedBatch MakeBatch(std::vector<SortedKeyRun> keys);

  AccumulatorOptions options_;
  std::unique_ptr<SpaceSaving> sketch_;
  HyperLogLog hll_;
  FlatMap<uint32_t> table_;  ///< promoted key -> index into states_
  std::vector<KeyState> states_;
  std::vector<TailBucket> tail_buckets_;
  /// Arrival-order tuple log and, per tuple, its slot: tail bucket b is slot
  /// b, promoted key i (states_[i]) is slot tail_buckets_.size() + i.
  std::vector<Tuple> log_;
  std::vector<uint32_t> log_slot_;
  /// Seal() output: runs, then tail buckets, each contiguous.
  std::vector<Tuple> sealed_;
  BudgetRule rule_;
  uint64_t num_tuples_ = 0;
  uint64_t head_tuples_ = 0;
  uint64_t tail_tuples_ = 0;
  /// This batch's promotion threshold, fixed at Begin().
  uint64_t promote_threshold_ = 0;
  uint64_t ordering_updates_ = 0;
};

}  // namespace prompt
