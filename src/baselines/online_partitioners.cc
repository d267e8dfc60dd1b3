#include "baselines/online_partitioners.h"

#include <algorithm>

#include "common/hash.h"

namespace prompt {

void OnlinePartitionerBase::Begin(uint32_t num_blocks, TimeMicros start,
                                  TimeMicros end) {
  PROMPT_CHECK(num_blocks >= 1);
  PROMPT_CHECK(end > start);
  num_blocks_ = num_blocks;
  batch_start_ = start;
  batch_end_ = end;
  num_tuples_ = 0;
  blocks_.clear();
  blocks_.reserve(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) blocks_.emplace_back(b);
  OnBegin();
}

void OnlinePartitionerBase::OnTuple(const Tuple& t) {
  ++num_tuples_;
  uint32_t b = ChooseBlock(t);
  PROMPT_CHECK(b < num_blocks_);
  blocks_[b].Append(t);
}

PartitionedBatch OnlinePartitionerBase::Seal(uint64_t batch_id) {
  PartitionedBatch out;
  out.batch_id = batch_id;
  out.seal_time = batch_end_;
  out.num_tuples = num_tuples_;
  out.blocks = std::move(blocks_);
  blocks_.clear();
  for (DataBlock& b : out.blocks) b.Finalize();
  out.ComputeSplitFlags(&out.num_keys);
  // Online techniques amortize their decision per tuple; there is no
  // seal-time partitioning step, so the batching-phase cost is ~0.
  out.partition_cost = 0;
  return out;
}

uint32_t TimeBasedPartitioner::ChooseBlock(const Tuple& t) {
  const TimeMicros span = batch_end_ - batch_start_;
  TimeMicros offset = std::clamp<TimeMicros>(t.ts - batch_start_, 0, span - 1);
  return static_cast<uint32_t>(
      (static_cast<__int128>(offset) * num_blocks_) / span);
}

uint32_t ShufflePartitioner::ChooseBlock(const Tuple&) {
  return static_cast<uint32_t>(cursor_++ % num_blocks_);
}

uint32_t HashPartitioner::ChooseBlock(const Tuple& t) {
  return static_cast<uint32_t>(HashKey(t.key) % num_blocks_);
}

void KeySplitPartitioner::OnBegin() {
  block_sizes_.assign(num_blocks_, 0);
}

uint32_t KeySplitPartitioner::ChooseBlock(const Tuple& t) {
  // d-choices: the tuple goes to the least-loaded of its candidate blocks.
  uint32_t best = 0;
  uint64_t best_size = UINT64_MAX;
  const uint32_t d = std::min(candidates_, num_blocks_);
  for (uint32_t c = 0; c < d; ++c) {
    uint32_t b = static_cast<uint32_t>(HashKey(t.key, c + 1) % num_blocks_);
    if (block_sizes_[b] < best_size) {
      best_size = block_sizes_[b];
      best = b;
    }
  }
  ++block_sizes_[best];
  return best;
}

void CamPartitioner::OnBegin() {
  block_sizes_.assign(num_blocks_, 0);
  block_cardinalities_.assign(num_blocks_, 0);
  presence_.clear();
  for (uint32_t b = 0; b < num_blocks_; ++b) presence_.emplace_back(256);
  distinct_keys_.Clear();
}

uint32_t CamPartitioner::ChooseBlock(const Tuple& t) {
  // Combined cost per candidate: its current tuple load plus, when the key
  // would be new to the block, the expected per-key aggregation surcharge
  // (estimated as the running average tuples-per-key). Minimizing this
  // trades size imbalance against cardinality imbalance, per [25].
  distinct_keys_.GetOrInsert(t.key);
  const uint32_t d = std::min(candidates_, num_blocks_);
  const double avg_cluster =
      distinct_keys_.size() > 0
          ? static_cast<double>(num_tuples_) /
                static_cast<double>(distinct_keys_.size())
          : 1.0;
  uint32_t best = 0;
  double best_cost = 1e300;
  for (uint32_t c = 0; c < d; ++c) {
    uint32_t b = static_cast<uint32_t>(HashKey(t.key, c + 101) % num_blocks_);
    const bool present = presence_[b].Contains(t.key);
    double cost = static_cast<double>(block_sizes_[b]) +
                  (present ? 0.0 : avg_cluster);
    if (cost < best_cost) {
      best_cost = cost;
      best = b;
    }
  }
  ++block_sizes_[best];
  bool inserted = false;
  presence_[best].GetOrInsert(t.key, &inserted);
  if (inserted) ++block_cardinalities_[best];
  return best;
}

}  // namespace prompt
