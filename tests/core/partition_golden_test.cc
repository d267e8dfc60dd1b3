// Cross-version guard for the batching phase: CRC-32C fingerprints of every
// block that Alg. 2 materializes — tuple bytes in block order plus the
// block's fragment table — over fixed inputs, for each accumulator kind and
// for the sharded pipeline's merged batch. The expected values are committed
// constants, so a change to which tuples land in which block, in what order,
// or to any fragment row fails here even when every implementation in the
// binary agrees with every other (which is all the differential tests can
// see).
//
// The inputs use integer arithmetic only (Rng::NextBounded, integer
// timestamps, integer-valued doubles) so that no libm result feeds a
// constant and the fingerprints are the same on every host.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "ingest/pipeline.h"
#include "store/crc32c.h"
#include "testing/fingerprint.h"

namespace prompt {
namespace {

using testing::BlocksFingerprint;
using testing::ExpectRecordedFingerprints;
using testing::RunsFingerprint;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

struct Input {
  std::string name;
  std::vector<Tuple> tuples;
};

// `n` tuples with keys from `key_of(rng)`, timestamps spread evenly over the
// interval and small integer values.
template <typename KeyFn>
std::vector<Tuple> Generate(uint64_t n, uint64_t seed, KeyFn key_of) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    t.ts = kStart + static_cast<TimeMicros>(i) * (kEnd - kStart) /
                        static_cast<TimeMicros>(n);
    t.key = key_of(rng);
    t.value = static_cast<double>(rng.NextBounded(1000));
    tuples.push_back(t);
  }
  return tuples;
}

std::vector<Input> Inputs() {
  std::vector<Input> in;
  in.push_back({"empty", {}});
  in.push_back({"single_key", Generate(3000, 1, [](Rng&) { return 17; })});
  // 90% of tuples on 4 hot keys, the rest over 50 others.
  in.push_back({"duplicate_heavy", Generate(20000, 2, [](Rng& r) {
                  return r.NextBounded(10) < 9 ? r.NextBounded(4)
                                               : 100 + r.NextBounded(50);
                })});
  in.push_back({"uniform",
                Generate(20000, 3, [](Rng& r) { return r.NextBounded(3000); })});
  // Nested uniform bounds give a heavy head and a long tail.
  in.push_back({"skewed", Generate(20000, 4, [](Rng& r) {
                  return r.NextBounded(1 + r.NextBounded(1 + r.NextBounded(4000)));
                })});
  return in;
}

AccumulatorOptions OptionsFor(const Input& in) {
  AccumulatorOptions opts;
  opts.estimated_tuples = std::max<uint64_t>(1, in.tuples.size());
  opts.avg_keys = 1000;
  // Small enough that the skewed inputs promote a head while the uniform
  // one stays almost entirely in the tail buckets.
  opts.sketch.capacity = 64;
  opts.sketch.tail_buckets = 16;
  return opts;
}

PartitionedBatch Partition(const AccumulatedBatch& batch, uint32_t blocks) {
  return MaterializePlan(batch, BuildPromptPlan(batch, blocks), blocks);
}

// A merged batch in full: the run list with each run's tuples, the tail
// bucket sizes, and the blocks Alg. 2 cuts from it (which is where tail
// tuples become observable, in placement order).
uint32_t MergedFingerprint(const AccumulatedBatch& merged) {
  uint32_t crc = RunsFingerprint(merged);
  for (const TailBucket& bucket : merged.tail()) {
    crc = Crc32c(&bucket.tuples, sizeof(bucket.tuples), crc);
  }
  return BlocksFingerprint(Partition(merged, 4), crc);
}

std::map<std::string, uint32_t> ComputeAll() {
  std::map<std::string, uint32_t> out;
  for (const Input& in : Inputs()) {
    const AccumulatorOptions opts = OptionsFor(in);
    for (const AccumulatorKind kind :
         {AccumulatorKind::kFlat, AccumulatorKind::kSketch}) {
      auto acc = MakeAccumulator(kind, opts);
      acc->Begin(kStart, kEnd);
      for (const Tuple& t : in.tuples) acc->OnTuple(t);
      const AccumulatedBatch sealed = acc->Seal();
      for (const uint32_t blocks : {1u, 4u, 16u}) {
        out[in.name + "/" + AccumulatorKindName(kind) + "/blocks=" +
            std::to_string(blocks)] =
            BlocksFingerprint(Partition(sealed, blocks));
      }
    }
    for (const KeyMode mode : {KeyMode::kExact, KeyMode::kSketch}) {
      for (uint32_t shards = 1; shards <= 4; ++shards) {
        IngestOptions io;
        io.shards = shards;
        io.key_mode = mode;
        io.accumulator_options = opts;
        ParallelIngestPipeline pipeline(io);
        pipeline.BeginBatch(kStart, kEnd);
        for (const Tuple& t : in.tuples) pipeline.Ingest(t);
        out[in.name + "/pipeline_" + KeyModeName(mode) + "/shards=" +
            std::to_string(shards)] = MergedFingerprint(pipeline.SealBatch());
      }
    }
  }
  return out;
}

// Recorded from the chain-based sealed layout; the contiguous layout must
// reproduce every one of them.
const std::map<std::string, uint32_t>& Golden() {
  static const std::map<std::string, uint32_t> golden = {
      {"duplicate_heavy/flat/blocks=1", 0xe986ac57u},
      {"duplicate_heavy/flat/blocks=16", 0xb618df9du},
      {"duplicate_heavy/flat/blocks=4", 0xa7e9aa6bu},
      {"duplicate_heavy/pipeline_exact/shards=1", 0xdff84f30u},
      {"duplicate_heavy/pipeline_exact/shards=2", 0x40aed41eu},
      {"duplicate_heavy/pipeline_exact/shards=3", 0xbb797378u},
      {"duplicate_heavy/pipeline_exact/shards=4", 0xdf8ee505u},
      {"duplicate_heavy/pipeline_sketch/shards=1", 0xc060617bu},
      {"duplicate_heavy/pipeline_sketch/shards=2", 0x9abb3685u},
      {"duplicate_heavy/pipeline_sketch/shards=3", 0xb689f0ecu},
      {"duplicate_heavy/pipeline_sketch/shards=4", 0x8bcff11bu},
      {"duplicate_heavy/sketch/blocks=1", 0xd48cf2d3u},
      {"duplicate_heavy/sketch/blocks=16", 0x1280da17u},
      {"duplicate_heavy/sketch/blocks=4", 0xaa5e9480u},
      {"empty/flat/blocks=1", 0x42709aeau},
      {"empty/flat/blocks=16", 0xb872b190u},
      {"empty/flat/blocks=4", 0x3c8eb67u},
      {"empty/pipeline_exact/shards=1", 0x3c8eb67u},
      {"empty/pipeline_exact/shards=2", 0x3c8eb67u},
      {"empty/pipeline_exact/shards=3", 0x3c8eb67u},
      {"empty/pipeline_exact/shards=4", 0x3c8eb67u},
      {"empty/pipeline_sketch/shards=1", 0x74357830u},
      {"empty/pipeline_sketch/shards=2", 0x74357830u},
      {"empty/pipeline_sketch/shards=3", 0x74357830u},
      {"empty/pipeline_sketch/shards=4", 0x74357830u},
      {"empty/sketch/blocks=1", 0x42709aeau},
      {"empty/sketch/blocks=16", 0xb872b190u},
      {"empty/sketch/blocks=4", 0x3c8eb67u},
      {"single_key/flat/blocks=1", 0x6ab815b5u},
      {"single_key/flat/blocks=16", 0x511e3113u},
      {"single_key/flat/blocks=4", 0x2a1ee266u},
      {"single_key/pipeline_exact/shards=1", 0x38a8170eu},
      {"single_key/pipeline_exact/shards=2", 0x38a8170eu},
      {"single_key/pipeline_exact/shards=3", 0x38a8170eu},
      {"single_key/pipeline_exact/shards=4", 0x38a8170eu},
      {"single_key/pipeline_sketch/shards=1", 0x734b19dbu},
      {"single_key/pipeline_sketch/shards=2", 0x734b19dbu},
      {"single_key/pipeline_sketch/shards=3", 0x734b19dbu},
      {"single_key/pipeline_sketch/shards=4", 0x734b19dbu},
      {"single_key/sketch/blocks=1", 0x1bd918b6u},
      {"single_key/sketch/blocks=16", 0x592ce5dfu},
      {"single_key/sketch/blocks=4", 0x70cb495cu},
      {"skewed/flat/blocks=1", 0xf8d0d566u},
      {"skewed/flat/blocks=16", 0x1bdff37eu},
      {"skewed/flat/blocks=4", 0x6a28071du},
      {"skewed/pipeline_exact/shards=1", 0x120a0b90u},
      {"skewed/pipeline_exact/shards=2", 0xd5d59698u},
      {"skewed/pipeline_exact/shards=3", 0xb608ff28u},
      {"skewed/pipeline_exact/shards=4", 0xbb19ae28u},
      {"skewed/pipeline_sketch/shards=1", 0xc66a727u},
      {"skewed/pipeline_sketch/shards=2", 0x9e549a27u},
      {"skewed/pipeline_sketch/shards=3", 0xae42d80du},
      {"skewed/pipeline_sketch/shards=4", 0xd5b1633du},
      {"skewed/sketch/blocks=1", 0x56aeebdeu},
      {"skewed/sketch/blocks=16", 0x28e3ef3u},
      {"skewed/sketch/blocks=4", 0x35e66e5du},
      {"uniform/flat/blocks=1", 0xca834b9du},
      {"uniform/flat/blocks=16", 0x5d355386u},
      {"uniform/flat/blocks=4", 0x2a4bb1au},
      {"uniform/pipeline_exact/shards=1", 0xabc4fa7fu},
      {"uniform/pipeline_exact/shards=2", 0x5b49c1b9u},
      {"uniform/pipeline_exact/shards=3", 0x43407b36u},
      {"uniform/pipeline_exact/shards=4", 0x1e811ca3u},
      {"uniform/pipeline_sketch/shards=1", 0xbf6d5da3u},
      {"uniform/pipeline_sketch/shards=2", 0x8310965u},
      {"uniform/pipeline_sketch/shards=3", 0x533f65cu},
      {"uniform/pipeline_sketch/shards=4", 0xcf0b031cu},
      {"uniform/sketch/blocks=1", 0x5c1a9dfu},
      {"uniform/sketch/blocks=16", 0x5be48fd7u},
      {"uniform/sketch/blocks=4", 0x9b5fad71u},
  };
  return golden;
}

TEST(PartitionGoldenTest, BlocksMatchRecordedFingerprints) {
  ExpectRecordedFingerprints(ComputeAll(), Golden());
}

}  // namespace
}  // namespace prompt
