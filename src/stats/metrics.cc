#include "stats/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/flat_map.h"

namespace prompt {

PartitionMetrics ComputeBlockMetrics(const PartitionedBatch& batch,
                                     const MpiWeights& weights) {
  PartitionMetrics m;
  const size_t p = batch.blocks.size();
  if (p == 0) return m;

  uint64_t total_size = 0;
  uint64_t total_cardinality = 0;
  // Sized by fragment rows, not num_keys, which in sketch mode is the HLL
  // estimate of every distinct key (DESIGN.md §17).
  for (const DataBlock& b : batch.blocks) total_cardinality += b.cardinality();
  FlatMap<uint32_t> key_blocks(total_cardinality + 8);
  for (const DataBlock& b : batch.blocks) {
    total_size += b.size();
    m.max_block_size = std::max(m.max_block_size, b.size());
    m.max_block_cardinality = std::max(m.max_block_cardinality, b.cardinality());
    for (const KeyFragment& f : b.fragments()) {
      ++key_blocks.GetOrInsert(f.key);
      ++m.total_fragments;
    }
  }
  m.distinct_keys = key_blocks.size();
  key_blocks.ForEach([&m](KeyId, uint32_t n) {
    if (n > 1) ++m.split_keys;
  });

  m.avg_block_size = static_cast<double>(total_size) / static_cast<double>(p);
  m.avg_block_cardinality =
      static_cast<double>(total_cardinality) / static_cast<double>(p);
  m.bsi = static_cast<double>(m.max_block_size) - m.avg_block_size;
  m.bci = static_cast<double>(m.max_block_cardinality) - m.avg_block_cardinality;
  m.ksr = m.distinct_keys == 0
              ? 1.0
              : static_cast<double>(m.total_fragments) /
                    static_cast<double>(m.distinct_keys);

  const double bsi_norm = m.avg_block_size > 0 ? m.bsi / m.avg_block_size : 0;
  const double bci_norm =
      m.avg_block_cardinality > 0 ? m.bci / m.avg_block_cardinality : 0;
  m.mpi = weights.p1 * bsi_norm + weights.p2 * bci_norm +
          weights.p3 * (m.ksr - 1.0);
  return m;
}

double ShardLoadImbalance(const IngestMetrics& m) {
  if (m.shards.empty() || m.total_tuples == 0) return 1.0;
  uint64_t max = 0;
  for (const ShardIngestStats& s : m.shards) max = std::max(max, s.tuples);
  const double avg = static_cast<double>(m.total_tuples) /
                     static_cast<double>(m.shards.size());
  return avg > 0 ? static_cast<double>(max) / avg : 1.0;
}

double MaxRingOccupancyFrac(const IngestMetrics& m) {
  double worst = 0;
  for (const ShardIngestStats& s : m.shards) {
    if (s.ring_capacity == 0) continue;
    worst = std::max(worst, static_cast<double>(s.ring_high_water) /
                                static_cast<double>(s.ring_capacity));
  }
  return worst;
}

double BucketSizeImbalance(std::span<const uint64_t> bucket_sizes) {
  if (bucket_sizes.empty()) return 0;
  uint64_t max = 0;
  uint64_t total = 0;
  for (uint64_t s : bucket_sizes) {
    max = std::max(max, s);
    total += s;
  }
  return static_cast<double>(max) -
         static_cast<double>(total) / static_cast<double>(bucket_sizes.size());
}

SizeSpread ComputeSpread(std::span<const uint64_t> sizes) {
  SizeSpread s;
  if (sizes.empty()) return s;
  s.min = sizes[0];
  uint64_t total = 0;
  for (uint64_t v : sizes) {
    s.max = std::max(s.max, v);
    s.min = std::min(s.min, v);
    total += v;
  }
  s.avg = static_cast<double>(total) / static_cast<double>(sizes.size());
  double var = 0;
  for (uint64_t v : sizes) {
    double d = static_cast<double>(v) - s.avg;
    var += d * d;
  }
  s.stddev = std::sqrt(var / static_cast<double>(sizes.size()));
  return s;
}

}  // namespace prompt
