// Classical bin-packing heuristics adapted to B-BPFI, used in the paper's
// Fig. 6 trade-off discussion: First-Fit-Decreasing [33] and the
// fragmentation-minimization strategy of [24]/[29]. Both run on the sealed
// quasi-sorted batch like Prompt, so the three plans are directly comparable.
#pragma once

#include <memory>

#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"

namespace prompt {

/// \brief First-Fit-Decreasing with fragmentation: each key goes to the
/// first block with room; a key that fits nowhere entirely is split across
/// blocks in order. Packs tightly but fragments many keys and ignores
/// cardinality balance (Fig. 6a).
PartitionPlan BuildFfdPlan(const AccumulatedBatch& batch, uint32_t num_blocks);

/// \brief Fragmentation minimization (Next-Fit-Decreasing style): blocks are
/// filled one at a time to capacity, splitting only the key that straddles a
/// block boundary — at most num_blocks - 1 fragmented keys, but cardinality
/// is heavily imbalanced because small keys pile into the last blocks
/// (Fig. 6b).
PartitionPlan BuildFragMinPlan(const AccumulatedBatch& batch,
                               uint32_t num_blocks);

/// \brief BatchPartitioner adapters so the Fig. 6 baselines can run in the
/// full pipeline (they share Prompt's Alg. 1 buffering, differing only in
/// the seal-time plan).
class BpfiBaselinePartitioner final : public BatchPartitioner {
 public:
  enum class Kind { kFfd, kFragMin };

  explicit BpfiBaselinePartitioner(Kind kind, AccumulatorOptions options = {})
      : kind_(kind),
        accumulator_(MakeAccumulator(AccumulatorKind::kFlat, options)) {}

  const char* name() const override {
    return kind_ == Kind::kFfd ? "FFD" : "FragMin";
  }

  void Begin(uint32_t num_blocks, TimeMicros start, TimeMicros end) override {
    num_blocks_ = num_blocks;
    batch_end_ = end;
    accumulator_->Begin(start, end);
  }
  void OnTuple(const Tuple& t) override { accumulator_->OnTuple(t); }
  PartitionedBatch Seal(uint64_t batch_id) override;

 private:
  Kind kind_;
  std::unique_ptr<Accumulator> accumulator_;
  uint32_t num_blocks_ = 1;
  TimeMicros batch_end_ = 0;
};

}  // namespace prompt
