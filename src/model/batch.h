// PartitionedBatch: the sealed output of the batching phase.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/flat_map.h"
#include "model/block.h"
#include "model/sketch_stats.h"

namespace prompt {

/// \brief A sealed micro-batch: data blocks ready for the Map stage, plus
/// batching-phase bookkeeping consumed by the scheduler and the elasticity
/// controller.
struct PartitionedBatch {
  uint64_t batch_id = 0;
  /// Heartbeat that closed this batch (end of its batch interval).
  TimeMicros seal_time = 0;
  /// Total tuples across all blocks (the data-rate statistic of Alg. 4).
  uint64_t num_tuples = 0;
  /// Distinct keys in the batch (the data-distribution statistic of Alg. 4).
  uint64_t num_keys = 0;
  /// Wall time the partitioner spent producing the blocks. With Early Batch
  /// Release this is overlapped with the tail of the batch interval, so the
  /// scheduler only counts the part exceeding the slack.
  TimeMicros partition_cost = 0;
  /// Heavy-hitter mode telemetry (sketch_mode == false for exact batches).
  /// In sketch mode, blocks' fragment tables cover head keys plus the
  /// tail-resident remnants of promoted keys; tail-only keys carry no
  /// per-key summary — that is the memory bound the mode exists for — so
  /// block cardinality() under-counts them (num_keys carries the HLL
  /// estimate instead).
  SketchBatchStats sketch;
  std::vector<DataBlock> blocks;

  /// Marks keys appearing in more than one block as split, completing each
  /// block's reference table. Returns the number of split keys and, when
  /// `fragment_keys` is given, stores the number of distinct keys with a
  /// fragment row (every key of the batch once each block's table is
  /// complete, as after DataBlock::Finalize()).
  uint64_t ComputeSplitFlags(uint64_t* fragment_keys = nullptr) {
    // Sized by the fragments the table will hold: in sketch mode num_keys
    // is the HLL estimate of every distinct key, most of which have no
    // fragment row.
    uint64_t fragments = 0;
    for (const DataBlock& b : blocks) fragments += b.fragments().size();
    FlatMap<uint32_t> appearances(fragments + 8);
    for (const DataBlock& b : blocks) {
      for (const KeyFragment& f : b.fragments()) ++appearances.GetOrInsert(f.key);
    }
    uint64_t split = 0;
    for (DataBlock& b : blocks) {
      for (KeyFragment& f : b.mutable_fragments()) {
        const uint32_t* n = appearances.Find(f.key);
        if (n != nullptr && *n > 1) {
          f.split = true;
        }
      }
    }
    appearances.ForEach([&split](KeyId, uint32_t n) {
      if (n > 1) ++split;
    });
    if (fragment_keys != nullptr) *fragment_keys = appearances.size();
    return split;
  }
};

}  // namespace prompt
