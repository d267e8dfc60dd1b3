// Cross-version guard for the processing phase: CRC-32C fingerprints of what
// BatchExecutor::Execute reports per Reduce bucket (tuples and clusters) and
// of its batch output sorted by (key, value), over fixed batches from the
// Prompt, Hash, PK2 and sketch-mode batching phases. The expected values are
// committed constants, so a change to which bucket Alg. 3 (or the hash
// shuffle) picks for any cluster, or to any per-key aggregate, fails here.
// The output's entry order is not part of the contract and is sorted away.
//
// Every execution mode must reproduce the same constants: kSimulated, and
// kReal on pools of 1, 2 and 4 threads (the threaded cases are the ones the
// TSan job runs).
//
// The inputs use integer arithmetic only (Rng::NextBounded, integer
// timestamps, integer-valued doubles) so that no libm result feeds a
// constant and the fingerprints are the same on every host.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "engine/execution.h"
#include "store/crc32c.h"

namespace prompt {
namespace {

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);
constexpr uint32_t kBlocks = 8;

/// A Map that emits a key other than its tuple's: every cluster of its
/// output must go through the Reduce-side merge.
class RekeyMap final : public MapFunction {
 public:
  void Map(const Tuple& t, std::vector<KV>* out) const override {
    out->push_back(KV{t.key % 37, t.value});
  }
};

struct Input {
  std::string name;
  std::vector<Tuple> tuples;
};

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
  in.push_back({"uniform",
                Generate(12000, 11, [](Rng& r) { return r.NextBounded(2500); })});
  // Nested uniform bounds give a heavy head and a long tail.
  in.push_back({"skewed", Generate(12000, 12, [](Rng& r) {
                  return r.NextBounded(1 + r.NextBounded(1 + r.NextBounded(4000)));
                })});
  return in;
}

PartitionedBatch PartitionWith(PartitionerType type, const Input& in) {
  auto partitioner = CreatePartitioner(type);
  partitioner->Begin(kBlocks, kStart, kEnd);
  for (const Tuple& t : in.tuples) partitioner->OnTuple(t);
  return partitioner->Seal(0);
}

// Sketch key mode: a sketch accumulator small enough that the skewed input
// promotes a head and leaves the rest in tail buckets, cut by Alg. 2.
PartitionedBatch PartitionSketchMode(const Input& in) {
  AccumulatorOptions opts;
  opts.estimated_tuples = std::max<uint64_t>(1, in.tuples.size());
  opts.avg_keys = 1000;
  opts.sketch.capacity = 64;
  opts.sketch.tail_buckets = 16;
  auto acc = MakeAccumulator(AccumulatorKind::kSketch, opts);
  acc->Begin(kStart, kEnd);
  for (const Tuple& t : in.tuples) acc->OnTuple(t);
  const AccumulatedBatch sealed = acc->Seal();
  return MaterializePlan(sealed, BuildPromptPlan(sealed, kBlocks), kBlocks);
}

struct Job {
  std::string name;
  JobSpec spec;
};

std::vector<Job> Jobs() {
  std::vector<Job> jobs;
  jobs.push_back({"count", JobSpec::WordCount()});
  JobSpec max_job;
  max_job.map = std::make_shared<ValueMap>();
  max_job.reduce = std::make_shared<MaxReduce>();
  jobs.push_back({"max", max_job});
  JobSpec rekey_job;
  rekey_job.map = std::make_shared<RekeyMap>();
  rekey_job.reduce = std::make_shared<SumReduce>();
  jobs.push_back({"rekey", rekey_job});
  return jobs;
}

uint32_t Fingerprint(const BatchExecution& exec) {
  uint32_t crc = 0;
  const uint64_t sizes[3] = {exec.bucket_tuples.size(),
                             exec.bucket_clusters.size(), exec.output.size()};
  crc = Crc32c(sizes, sizeof(sizes), crc);
  crc = Crc32c(exec.bucket_tuples.data(),
               exec.bucket_tuples.size() * sizeof(uint64_t), crc);
  crc = Crc32c(exec.bucket_clusters.data(),
               exec.bucket_clusters.size() * sizeof(uint64_t), crc);
  // A key-changing Map may leave one key in several buckets; sorting by
  // the value bits too keeps the sequence total.
  struct Row {
    uint64_t key;
    uint64_t value_bits;
  };
  std::vector<Row> rows;
  rows.reserve(exec.output.size());
  for (const KV& kv : exec.output) {
    Row row{kv.key, 0};
    std::memcpy(&row.value_bits, &kv.value, sizeof(kv.value));
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.key != b.key ? a.key < b.key : a.value_bits < b.value_bits;
  });
  return Crc32c(rows.data(), rows.size() * sizeof(Row), crc);
}

/// Fingerprints of every (input, technique, job, reduce count) case, run in
/// `mode` on a pool of `threads` threads (0 = no pool).
std::map<std::string, uint32_t> ComputeAll(ExecutionMode mode,
                                           uint32_t threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  PromptReduceAllocator prompt_alloc;
  HashReduceAllocator hash_alloc;
  std::map<std::string, uint32_t> out;
  for (const Input& in : Inputs()) {
    struct Technique {
      std::string name;
      PartitionedBatch batch;
      ReduceAllocator* allocator;
    };
    std::vector<Technique> techniques;
    techniques.push_back({"Prompt", PartitionWith(PartitionerType::kPrompt, in),
                          &prompt_alloc});
    techniques.push_back(
        {"Hash", PartitionWith(PartitionerType::kHash, in), &hash_alloc});
    techniques.push_back(
        {"PK2", PartitionWith(PartitionerType::kPk2, in), &prompt_alloc});
    techniques.push_back({"sketch", PartitionSketchMode(in), &prompt_alloc});
    for (const Technique& tech : techniques) {
      for (const Job& job : Jobs()) {
        BatchExecutor executor(job.spec, CostModel(), tech.allocator, mode);
        for (const uint32_t reduce_tasks : {3u, 8u}) {
          const BatchExecution exec =
              executor.Execute(tech.batch, reduce_tasks, 4, pool.get());
          out[in.name + "/" + tech.name + "/" + job.name + "/r=" +
              std::to_string(reduce_tasks)] = Fingerprint(exec);
        }
      }
    }
  }
  return out;
}

// Recorded by the executor that merged every cluster into per-bucket hash
// tables (before Reduce tasks merged only split keys).
const std::map<std::string, uint32_t>& Golden() {
  static const std::map<std::string, uint32_t> golden = {
      {"empty/Hash/count/r=3", 0xc985b977u},
      {"empty/Hash/count/r=8", 0xea691292u},
      {"empty/Hash/max/r=3", 0xc985b977u},
      {"empty/Hash/max/r=8", 0xea691292u},
      {"empty/Hash/rekey/r=3", 0xc985b977u},
      {"empty/Hash/rekey/r=8", 0xea691292u},
      {"empty/PK2/count/r=3", 0xc985b977u},
      {"empty/PK2/count/r=8", 0xea691292u},
      {"empty/PK2/max/r=3", 0xc985b977u},
      {"empty/PK2/max/r=8", 0xea691292u},
      {"empty/PK2/rekey/r=3", 0xc985b977u},
      {"empty/PK2/rekey/r=8", 0xea691292u},
      {"empty/Prompt/count/r=3", 0xc985b977u},
      {"empty/Prompt/count/r=8", 0xea691292u},
      {"empty/Prompt/max/r=3", 0xc985b977u},
      {"empty/Prompt/max/r=8", 0xea691292u},
      {"empty/Prompt/rekey/r=3", 0xc985b977u},
      {"empty/Prompt/rekey/r=8", 0xea691292u},
      {"empty/sketch/count/r=3", 0xc985b977u},
      {"empty/sketch/count/r=8", 0xea691292u},
      {"empty/sketch/max/r=3", 0xc985b977u},
      {"empty/sketch/max/r=8", 0xea691292u},
      {"empty/sketch/rekey/r=3", 0xc985b977u},
      {"empty/sketch/rekey/r=8", 0xea691292u},
      {"skewed/Hash/count/r=3", 0xce248462u},
      {"skewed/Hash/count/r=8", 0x5d0892cbu},
      {"skewed/Hash/max/r=3", 0x7fc8f40du},
      {"skewed/Hash/max/r=8", 0xece4e2a4u},
      {"skewed/Hash/rekey/r=3", 0x23a629f3u},
      {"skewed/Hash/rekey/r=8", 0x2698f403u},
      {"skewed/PK2/count/r=3", 0xe8e6998eu},
      {"skewed/PK2/count/r=8", 0xbdb75ce1u},
      {"skewed/PK2/max/r=3", 0x590ae9e1u},
      {"skewed/PK2/max/r=8", 0xc5b2c8eu},
      {"skewed/PK2/rekey/r=3", 0xcbb6c5deu},
      {"skewed/PK2/rekey/r=8", 0xc785d323u},
      {"skewed/Prompt/count/r=3", 0x94b7c19bu},
      {"skewed/Prompt/count/r=8", 0x9df3a12au},
      {"skewed/Prompt/max/r=3", 0x255bb1f4u},
      {"skewed/Prompt/max/r=8", 0x2c1fd145u},
      {"skewed/Prompt/rekey/r=3", 0x2a23f01fu},
      {"skewed/Prompt/rekey/r=8", 0x153fa674u},
      {"skewed/sketch/count/r=3", 0xf14754edu},
      {"skewed/sketch/count/r=8", 0x94048ac4u},
      {"skewed/sketch/max/r=3", 0x40ab2482u},
      {"skewed/sketch/max/r=8", 0x25e8faabu},
      {"skewed/sketch/rekey/r=3", 0x2841c699u},
      {"skewed/sketch/rekey/r=8", 0x8b95badu},
      {"uniform/Hash/count/r=3", 0x15f2100cu},
      {"uniform/Hash/count/r=8", 0x14f8303fu},
      {"uniform/Hash/max/r=3", 0xc48915f2u},
      {"uniform/Hash/max/r=8", 0xc58335c1u},
      {"uniform/Hash/rekey/r=3", 0xa0b9e22au},
      {"uniform/Hash/rekey/r=8", 0x41a08863u},
      {"uniform/PK2/count/r=3", 0xc06db59fu},
      {"uniform/PK2/count/r=8", 0x245107f5u},
      {"uniform/PK2/max/r=3", 0x1116b061u},
      {"uniform/PK2/max/r=8", 0xf52a020bu},
      {"uniform/PK2/rekey/r=3", 0x69d07f33u},
      {"uniform/PK2/rekey/r=8", 0x2494e452u},
      {"uniform/Prompt/count/r=3", 0x2ea07baeu},
      {"uniform/Prompt/count/r=8", 0x774c5a7au},
      {"uniform/Prompt/max/r=3", 0xffdb7e50u},
      {"uniform/Prompt/max/r=8", 0xa6375f84u},
      {"uniform/Prompt/rekey/r=3", 0x73dc858fu},
      {"uniform/Prompt/rekey/r=8", 0x9103a9a3u},
      {"uniform/sketch/count/r=3", 0x69952304u},
      {"uniform/sketch/count/r=8", 0x251229fcu},
      {"uniform/sketch/max/r=3", 0xb8ee26fau},
      {"uniform/sketch/max/r=8", 0xf4692c02u},
      {"uniform/sketch/rekey/r=3", 0x8fabe36fu},
      {"uniform/sketch/rekey/r=8", 0x4489eaa1u},
  };
  return golden;
}

void ExpectGolden(ExecutionMode mode, uint32_t threads) {
  const std::map<std::string, uint32_t> actual = ComputeAll(mode, threads);
  const std::map<std::string, uint32_t>& golden = Golden();
  bool all_match = actual.size() == golden.size();
  for (const auto& [name, crc] : actual) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no recorded fingerprint for " << name;
      all_match = false;
    } else if (it->second != crc) {
      ADD_FAILURE() << name << ": fingerprint 0x" << std::hex << crc
                    << ", recorded 0x" << it->second;
      all_match = false;
    }
  }
  if (!all_match) {
    std::ostringstream table;
    for (const auto& [name, crc] : actual) {
      table << "      {\"" << name << "\", 0x" << std::hex << crc << "u},\n";
    }
    ADD_FAILURE() << "actual fingerprints:\n" << table.str();
  }
}

TEST(ProcessingGoldenTest, SimulatedMatchesRecordedFingerprints) {
  ExpectGolden(ExecutionMode::kSimulated, 0);
}

TEST(ProcessingGoldenTest, RealModeOneThreadMatchesRecordedFingerprints) {
  ExpectGolden(ExecutionMode::kReal, 1);
}

TEST(ProcessingGoldenTest, RealModeTwoThreadsMatchesRecordedFingerprints) {
  ExpectGolden(ExecutionMode::kReal, 2);
}

TEST(ProcessingGoldenTest, RealModeFourThreadsMatchesRecordedFingerprints) {
  ExpectGolden(ExecutionMode::kReal, 4);
}

}  // namespace
}  // namespace prompt
