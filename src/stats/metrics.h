// Partitioning-quality metrics of the paper's cost model (§3.3, Eqns. 2-6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/batch.h"

namespace prompt {

/// \brief Weights of the combined Micro-batch Partitioning-Imbalance metric
/// (Eqn. 6). They must sum to 1; the paper uses 1/3 each. p1=1 degenerates to
/// shuffle-like behaviour (size only), p3=1 to hash-like (locality only).
struct MpiWeights {
  double p1 = 1.0 / 3.0;  ///< weight of Block Size-Imbalance (BSI)
  double p2 = 1.0 / 3.0;  ///< weight of Block Cardinality-Imbalance (BCI)
  double p3 = 1.0 / 3.0;  ///< weight of Key Split Ratio (KSR)
};

/// \brief Quality measurements for one partitioned micro-batch.
struct PartitionMetrics {
  /// BSI (Eqn. 2): max block size - average block size, in tuples.
  double bsi = 0;
  /// BCI (Eqn. 4): max block cardinality - average block cardinality.
  double bci = 0;
  /// KSR (Eqn. 5): total key fragments / distinct keys; 1.0 = no splitting.
  double ksr = 1;
  /// MPI (Eqn. 6) over *normalized* components so the three terms are
  /// commensurate: BSI/avg_size, BCI/avg_cardinality, KSR-1.
  double mpi = 0;

  uint64_t max_block_size = 0;
  double avg_block_size = 0;
  uint64_t max_block_cardinality = 0;
  double avg_block_cardinality = 0;
  uint64_t total_fragments = 0;
  uint64_t distinct_keys = 0;
  uint64_t split_keys = 0;
};

/// \brief Computes BSI/BCI/KSR/MPI for a partitioned batch. Blocks must have
/// their fragment summaries populated (DataBlock::Finalize or a plan-driven
/// partitioner).
PartitionMetrics ComputeBlockMetrics(const PartitionedBatch& batch,
                                     const MpiWeights& weights = {});

/// \brief BSI over Reduce buckets (Eqn. 3): max bucket size - average.
double BucketSizeImbalance(std::span<const uint64_t> bucket_sizes);

/// \brief Per-shard accounting of one batch interval in the parallel ingest
/// pipeline (src/ingest/). Filled by the shard workers and the router.
struct ShardIngestStats {
  uint64_t tuples = 0;           ///< tuples routed to this shard
  uint64_t keys = 0;             ///< distinct keys the shard accumulated
  uint64_t ring_high_water = 0;  ///< max observed ring occupancy (sampled)
  uint64_t ring_capacity = 0;
  TimeMicros seal_latency = 0;   ///< worker-side accumulator Seal() time
  TimeMicros copy_latency = 0;   ///< worker-side copy into the merged batch
};

/// \brief One batch interval's ingest-side observability: per-shard loads,
/// the seal-barrier stall and the k-way merge cost — the quantities that
/// bound how far sharding can scale the batching phase.
struct IngestMetrics {
  std::vector<ShardIngestStats> shards;
  uint64_t total_tuples = 0;
  /// Router wall time spent routing this batch (BeginBatch -> seal request).
  TimeMicros ingest_wall = 0;
  /// Seal request -> every shard sealed (the barrier of the cut-off).
  TimeMicros seal_barrier_latency = 0;
  /// Loser-tree merge + the workers' copies into the merged batch, after
  /// the barrier.
  TimeMicros merge_latency = 0;

  /// Router-observed ingest rate over the batch (0 when unmeasurable).
  double TuplesPerSec() const {
    return ingest_wall > 0 ? static_cast<double>(total_tuples) /
                                 (static_cast<double>(ingest_wall) / 1e6)
                           : 0.0;
  }
};

/// \brief Max-over-average shard load (1.0 = perfectly even routing): the
/// ingest analogue of BSI, reported per batch by the pipeline.
double ShardLoadImbalance(const IngestMetrics& m);

/// \brief Highest ring occupancy across shards as a fraction of capacity —
/// the early-warning signal for ingest back-pressure.
double MaxRingOccupancyFrac(const IngestMetrics& m);

/// \brief max/avg summary used in several experiment tables.
struct SizeSpread {
  uint64_t max = 0;
  uint64_t min = 0;
  double avg = 0;
  double stddev = 0;
};
SizeSpread ComputeSpread(std::span<const uint64_t> sizes);

}  // namespace prompt
