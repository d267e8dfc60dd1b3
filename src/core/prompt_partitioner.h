// Prompt's load-balanced batch partitioning (paper §4.2, Algorithm 2):
// a heuristic for Balanced Bin Packing with Fragmentable Items (B-BPFI).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/accumulator_api.h"
#include "core/partitioner.h"

namespace prompt {

/// \brief One key-to-block placement of a partition plan. `skip`/`take`
/// select a slice of the key's run of buffered tuples, so a fragmented key
/// consumes its run in disjoint slices across blocks.
struct PlanPlacement {
  uint32_t key_index = 0;  ///< index into AccumulatedBatch::keys()
  uint64_t skip = 0;
  uint64_t take = 0;
};

/// \brief Keys-to-blocks assignment produced by the B-BPFI heuristic.
struct PartitionPlan {
  std::vector<std::vector<PlanPlacement>> blocks;
  /// Sketch mode only: block assignment of each tail bucket (index-aligned
  /// with AccumulatedBatch::tail()). A bucket is unsplittable — all of a
  /// tail key's tuples share its bucket, so whole-bucket placement is what
  /// keeps never-promoted keys split-free with zero per-key state.
  std::vector<uint32_t> tail_bucket_block;
  uint64_t split_keys = 0;     ///< keys fragmented over 2+ blocks
  uint64_t fragments = 0;      ///< total placements after per-block merging
};

/// \brief Options of the Prompt batching-phase partitioner.
struct PromptPartitionerOptions {
  AccumulatorOptions accumulator;
  /// Use the exact post-sort at seal instead of the maintained quasi-sorted
  /// order (the Fig. 14a "Post-Sort" ablation).
  bool post_sort = false;
};

/// \brief Runs Algorithm 2 on a sealed batch: split keys larger than
/// S_cut = P_size / P_cardinality round-robin, zigzag-assign the remaining
/// keys (Best-Fit-Decreasing effect without size bookkeeping), then place
/// residuals with Best-Fit preferring key locality.
///
/// Exposed separately from the BatchPartitioner wrapper so tests and the
/// Fig. 6 ablation can exercise the plan construction in isolation.
PartitionPlan BuildPromptPlan(const AccumulatedBatch& batch,
                              uint32_t num_blocks);

/// \brief Copies each placement's slice of its key's run (and each tail
/// bucket) into DataBlocks per the plan, and computes each block's fragment
/// summary (same-key placements within a block merge into one fragment)
/// with its split flags.
PartitionedBatch MaterializePlan(const AccumulatedBatch& batch,
                                 const PartitionPlan& plan,
                                 uint32_t num_blocks);

/// \brief The full Prompt batching-phase pipeline: frequency-aware buffering
/// (Alg. 1) + B-BPFI heuristic (Alg. 2).
class PromptPartitioner final : public BatchPartitioner {
 public:
  explicit PromptPartitioner(PromptPartitionerOptions options = {})
      : options_(options),
        accumulator_(
            MakeAccumulator(AccumulatorKind::kFlat, options.accumulator)) {}

  const char* name() const override {
    return options_.post_sort ? "Prompt+PostSort" : "Prompt";
  }

  void Begin(uint32_t num_blocks, TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  PartitionedBatch Seal(uint64_t batch_id) override;

  /// Runs Alg. 2 directly on the sharded ingest pipeline's merged
  /// quasi-sorted batch, skipping this instance's accumulator. Returns false
  /// under the post-sort ablation (which must re-sort inside Seal()).
  bool SealAccumulated(const AccumulatedBatch& accumulated, uint64_t batch_id,
                       PartitionedBatch* out) override;

  /// Accumulator observability (ordering updates etc.) for tests/ablations.
  const Accumulator& accumulator() const { return *accumulator_; }

  /// Updates rate estimates fed into the next Begin (receiver EWMAs).
  void UpdateEstimates(uint64_t estimated_tuples, uint64_t avg_keys) override;

 private:
  PromptPartitionerOptions options_;
  std::unique_ptr<Accumulator> accumulator_;
  uint32_t num_blocks_ = 1;
  TimeMicros batch_end_ = 0;
};

}  // namespace prompt
