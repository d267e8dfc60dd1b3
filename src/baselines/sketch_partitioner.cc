#include "baselines/sketch_partitioner.h"

#include "common/hash.h"

namespace prompt {

void SketchPartitioner::Begin(uint32_t num_blocks, TimeMicros /*start*/,
                              TimeMicros end) {
  PROMPT_CHECK(num_blocks >= 1);
  num_blocks_ = num_blocks;
  batch_end_ = end;
  buffer_.clear();
  sketch_.Clear();
}

void SketchPartitioner::OnTuple(const Tuple& t) {
  buffer_.push_back(t);
  sketch_.Add(t.key);
}

PartitionedBatch SketchPartitioner::Seal(uint64_t batch_id) {
  Stopwatch watch;
  PartitionedBatch out;
  out.batch_id = batch_id;
  out.seal_time = batch_end_;
  out.num_tuples = buffer_.size();
  out.blocks.reserve(num_blocks_);
  for (uint32_t b = 0; b < num_blocks_; ++b) out.blocks.emplace_back(b);

  // Heavy = estimated share above 1 / (heavy_fraction * blocks): such keys
  // would overflow a block on their own, so they round-robin. A single block
  // can't split anything — skip detection entirely rather than let the
  // degenerate threshold (total / heavy_fraction) label keys "heavy" with
  // nowhere to spread them.
  FlatMap<uint32_t> heavy_cursor(sketch_.capacity());
  if (num_blocks_ > 1) {
    const double threshold =
        static_cast<double>(sketch_.total()) /
        (options_.heavy_fraction * static_cast<double>(num_blocks_));
    for (const auto& e : sketch_.TopEntries()) {
      if (static_cast<double>(e.count) > threshold) {
        // Resume the round-robin where the previous batch stopped: seeding
        // from the key hash every batch would land each heavy key's first
        // (largest) fragment on the same block batch after batch,
        // concentrating load on the hash-favored blocks across the run.
        uint32_t* prev = cursor_.Find(e.key);
        heavy_cursor.GetOrInsert(e.key) =
            prev != nullptr ? *prev % num_blocks_
                            : HashKey(e.key) % num_blocks_;
      }
    }
  }

  for (const Tuple& t : buffer_) {
    uint32_t* cursor = heavy_cursor.Find(t.key);
    uint32_t block;
    if (cursor != nullptr) {
      block = *cursor;
      *cursor = (*cursor + 1) % num_blocks_;  // spread the heavy key
    } else {
      block = static_cast<uint32_t>(HashKey(t.key) % num_blocks_);
    }
    out.blocks[block].Append(t);
  }
  // Carry the advanced cursors into the next batch; replacing the map also
  // drops keys that stopped being heavy, so it stays bounded by the sketch
  // capacity instead of accreting every heavy key the run ever saw.
  cursor_ = std::move(heavy_cursor);
  for (DataBlock& b : out.blocks) b.Finalize();
  out.ComputeSplitFlags(&out.num_keys);
  out.partition_cost = watch.ElapsedMicros();
  return out;
}

}  // namespace prompt
