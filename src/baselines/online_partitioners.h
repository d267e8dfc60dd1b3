// The per-tuple (online) partitioning techniques the paper compares against
// (§2.2): Time-based, Shuffle, Hash, key-splitting PK-d [35][36], and the
// cardinality-aware cAM [25].
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "core/partitioner.h"

namespace prompt {

/// \brief Shared scaffolding for techniques that place every tuple into a
/// block at arrival time. Subclasses implement ChooseBlock(); Seal()
/// finalizes fragment summaries and split flags, and counts the batch's
/// distinct keys from them.
class OnlinePartitionerBase : public BatchPartitioner {
 public:
  void Begin(uint32_t num_blocks, TimeMicros start, TimeMicros end) override;
  void OnTuple(const Tuple& t) override;
  PartitionedBatch Seal(uint64_t batch_id) override;

 protected:
  /// Picks the destination block for tuple t; called once per tuple.
  virtual uint32_t ChooseBlock(const Tuple& t) = 0;
  /// Hook for subclasses to reset per-batch state.
  virtual void OnBegin() {}

  uint32_t num_blocks_ = 1;
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  std::vector<DataBlock> blocks_;
  uint64_t num_tuples_ = 0;
};

/// \brief §2.2.1: block = position of the tuple's arrival time within the
/// batch interval (Spark Streaming's default block-interval batching).
/// Sensitive to variable data rates and gives no key-placement guarantees.
class TimeBasedPartitioner final : public OnlinePartitionerBase {
 public:
  const char* name() const override { return "TimeBased"; }

 protected:
  uint32_t ChooseBlock(const Tuple& t) override;
};

/// \brief §2.2.2: round-robin by arrival order. Equal block sizes, no key
/// locality (worst-case Reduce-side aggregation overhead).
class ShufflePartitioner final : public OnlinePartitionerBase {
 public:
  const char* name() const override { return "Shuffle"; }

 protected:
  uint32_t ChooseBlock(const Tuple& t) override;
  void OnBegin() override { cursor_ = 0; }

 private:
  uint64_t cursor_ = 0;
};

/// \brief §2.2.3: block = hash(key) % p (key grouping). Perfect key locality,
/// but skewed keys produce unequal block sizes.
class HashPartitioner final : public OnlinePartitionerBase {
 public:
  const char* name() const override { return "Hash"; }

 protected:
  uint32_t ChooseBlock(const Tuple& t) override;
};

/// \brief §2.2.4 key-splitting: d candidate blocks per key (d independent
/// hashes); each tuple goes to the least-loaded candidate. PK-2 [36] uses
/// d = 2, PK-5 [35] d = 5. Skewed keys split over at most d blocks while
/// sizes stay balanced.
class KeySplitPartitioner final : public OnlinePartitionerBase {
 public:
  explicit KeySplitPartitioner(uint32_t candidates)
      : candidates_(candidates),
        name_(candidates == 2 ? "PK2"
                              : (candidates == 5 ? "PK5" : "PKd")) {}

  const char* name() const override { return name_; }
  uint32_t candidates() const { return candidates_; }

 protected:
  uint32_t ChooseBlock(const Tuple& t) override;
  void OnBegin() override;

 private:
  uint32_t candidates_;
  const char* name_;
  std::vector<uint64_t> block_sizes_;
};

/// \brief cAM [25] (Katsipoulakis et al., "A holistic view of stream
/// partitioning costs"): like key-splitting, but the candidate choice
/// minimizes a combined cost of tuple-count imbalance *and* the aggregation
/// overhead of introducing the key to a block that does not yet hold it.
/// The candidate count is a workload-tuned parameter (the paper sweeps it
/// and reports the best run).
class CamPartitioner final : public OnlinePartitionerBase {
 public:
  explicit CamPartitioner(uint32_t candidates = 4) : candidates_(candidates) {}

  const char* name() const override { return "cAM"; }
  uint32_t candidates() const { return candidates_; }

 protected:
  uint32_t ChooseBlock(const Tuple& t) override;
  void OnBegin() override;

 private:
  uint32_t candidates_;
  std::vector<uint64_t> block_sizes_;
  std::vector<uint64_t> block_cardinalities_;
  // presence[b] answers "does block b already hold key k".
  std::vector<FlatMap<char>> presence_;
  // Distinct keys so far, the current tuple's included: the cost reads the
  // running average tuples per key.
  FlatMap<char> distinct_keys_{1024};
};

}  // namespace prompt
