// Frozen output of Alg. 1's batch buffering: CRC-32C fingerprints of the
// sealed key runs (key, count, tuples in run order) for both seal variants
// and of the Alg. 2 partitions built from the seal, over fixed workloads and
// option sweeps. The constants were recorded from the literal chain
// transcription of Alg. 1 (HTable chains + an AVL CountTree under the
// per-key budget), so they pin the order contract — (freq_updated desc,
// key desc) under the budget, exact counts, arrival order inside a run —
// without keeping a second implementation to compare against.
//
// The workloads draw keys through ZipfSampler, so a host whose libm differs
// in the last bit could draw other streams; the partition golden test uses
// integer-only inputs for that reason.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "testing/fingerprint.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::BlocksFingerprint;
using testing::ExpectRecordedFingerprints;
using testing::RunsFingerprint;
using testing::ZipfTuples;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

std::vector<Tuple> DuplicateHeavy(uint64_t n, uint64_t seed) {
  // 90% of tuples hit 4 hot keys; the rest spread over a small tail.
  Rng rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  const double step = static_cast<double>(kEnd) / static_cast<double>(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    t.ts = kStart + static_cast<TimeMicros>(step * static_cast<double>(i));
    t.key = rng.NextBounded(10) < 9 ? rng.NextBounded(4)
                                    : 100 + rng.NextBounded(50);
    t.value = static_cast<double>(i);
    tuples.push_back(t);
  }
  return tuples;
}

std::vector<Tuple> SingleKey(uint64_t n) {
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    tuples.push_back(Tuple{kStart + static_cast<TimeMicros>(i), 17,
                           static_cast<double>(i)});
  }
  return tuples;
}

struct Workload {
  std::string name;
  std::vector<Tuple> tuples;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back({"empty", {}});
  w.push_back({"single_key", SingleKey(5000)});
  w.push_back({"duplicate_heavy", DuplicateHeavy(30000, 3)});
  w.push_back({"uniform", ZipfTuples(40000, 5000, 0.0, kStart, kEnd, 11)});
  w.push_back({"zipf_0.5", ZipfTuples(40000, 5000, 0.5, kStart, kEnd, 12)});
  w.push_back({"zipf_1.0", ZipfTuples(40000, 5000, 1.0, kStart, kEnd, 13)});
  w.push_back({"zipf_1.4", ZipfTuples(40000, 5000, 1.4, kStart, kEnd, 14)});
  return w;
}

// Every case's fingerprint, keyed "<workload>/<case>".
using Fingerprints = std::map<std::string, uint32_t>;

// A sealed batch plus the accumulator that owns its tuple storage: the
// AccumulatedBatch's tuple span is non-owning, so the producer must outlive
// every read of the batch.
struct SealedRun {
  std::unique_ptr<Accumulator> acc;
  AccumulatedBatch batch;
};

SealedRun RunSeal(const std::vector<Tuple>& tuples, AccumulatorOptions opts,
                  bool post_sort) {
  SealedRun run;
  run.acc = MakeAccumulator(AccumulatorKind::kFlat, opts);
  run.acc->Begin(kStart, kEnd);
  for (const Tuple& t : tuples) run.acc->OnTuple(t);
  run.batch = post_sort ? run.acc->SealWithPostSort() : run.acc->Seal();
  return run;
}

TEST(AccumulatorDifferentialTest, SealIsBitIdenticalAcrossWorkloads) {
  static const Fingerprints recorded = {
      {"duplicate_heavy/budget=0", 0x27082f2u},
      {"duplicate_heavy/budget=16", 0x4327acccu},
      {"duplicate_heavy/budget=4", 0x874a1ac2u},
      {"empty/budget=0", 0x0u},
      {"empty/budget=16", 0x0u},
      {"empty/budget=4", 0x0u},
      {"single_key/budget=0", 0x4b206007u},
      {"single_key/budget=16", 0x4b206007u},
      {"single_key/budget=4", 0x4b206007u},
      {"uniform/budget=0", 0x548fb039u},
      {"uniform/budget=16", 0xf5343cd8u},
      {"uniform/budget=4", 0x597b4bfbu},
      {"zipf_0.5/budget=0", 0x2d7c6408u},
      {"zipf_0.5/budget=16", 0x41a027ecu},
      {"zipf_0.5/budget=4", 0x9a259d9eu},
      {"zipf_1.0/budget=0", 0x17cb6495u},
      {"zipf_1.0/budget=16", 0x928e843bu},
      {"zipf_1.0/budget=4", 0xc47ac02eu},
      {"zipf_1.4/budget=0", 0x3203be59u},
      {"zipf_1.4/budget=16", 0x53a88debu},
      {"zipf_1.4/budget=4", 0xe5234e9eu},
  };
  Fingerprints actual;
  for (const Workload& w : Workloads()) {
    for (uint32_t budget : {0u, 4u, 16u}) {
      AccumulatorOptions opts;
      opts.budget = budget;
      actual[w.name + "/budget=" + std::to_string(budget)] =
          RunsFingerprint(RunSeal(w.tuples, opts, /*post=*/false).batch);
    }
  }
  ExpectRecordedFingerprints(actual, recorded);
}

TEST(AccumulatorDifferentialTest, PostSortSealIsBitIdentical) {
  static const Fingerprints recorded = {
      {"duplicate_heavy/post_sort", 0xf4162b98u},
      {"empty/post_sort", 0x0u},
      {"single_key/post_sort", 0x4b206007u},
      {"uniform/post_sort", 0x2cfd1a47u},
      {"zipf_0.5/post_sort", 0xbe3b2850u},
      {"zipf_1.0/post_sort", 0xff1f4edu},
      {"zipf_1.4/post_sort", 0x43c68b3u},
  };
  Fingerprints actual;
  for (const Workload& w : Workloads()) {
    actual[w.name + "/post_sort"] =
        RunsFingerprint(RunSeal(w.tuples, {}, /*post=*/true).batch);
  }
  ExpectRecordedFingerprints(actual, recorded);
}

// The downstream gate: Alg. 2 plans built from the sealed batch must
// materialize the recorded partitions at several block counts.
TEST(AccumulatorDifferentialTest, SealedPartitionsAreBitIdentical) {
  static const Fingerprints recorded = {
      {"duplicate_heavy/blocks=1", 0x9f8310e4u},
      {"duplicate_heavy/blocks=16", 0x835f4cd5u},
      {"duplicate_heavy/blocks=4", 0x3e3293d4u},
      {"empty/blocks=1", 0x42709aeau},
      {"empty/blocks=16", 0xb872b190u},
      {"empty/blocks=4", 0x3c8eb67u},
      {"single_key/blocks=1", 0x484b802fu},
      {"single_key/blocks=16", 0x1f2c2eabu},
      {"single_key/blocks=4", 0x398982d1u},
      {"uniform/blocks=1", 0xdc9dec9u},
      {"uniform/blocks=16", 0xabe7c851u},
      {"uniform/blocks=4", 0xbaa8a6b5u},
      {"zipf_0.5/blocks=1", 0x7118b12eu},
      {"zipf_0.5/blocks=16", 0xdf74eb8u},
      {"zipf_0.5/blocks=4", 0xa92d72e2u},
      {"zipf_1.0/blocks=1", 0x8598fe87u},
      {"zipf_1.0/blocks=16", 0xb01ea88cu},
      {"zipf_1.0/blocks=4", 0x22a3d66bu},
      {"zipf_1.4/blocks=1", 0x942c3c48u},
      {"zipf_1.4/blocks=16", 0x644a399au},
      {"zipf_1.4/blocks=4", 0xa40cf5f0u},
  };
  Fingerprints actual;
  for (const Workload& w : Workloads()) {
    const SealedRun run = RunSeal(w.tuples, {}, /*post=*/false);
    for (uint32_t blocks : {1u, 4u, 16u}) {
      actual[w.name + "/blocks=" + std::to_string(blocks)] =
          BlocksFingerprint(MaterializePlan(
              run.batch, BuildPromptPlan(run.batch, blocks), blocks));
    }
  }
  ExpectRecordedFingerprints(actual, recorded);
}

// Paranoia sweep: randomized options across randomized streams.
TEST(AccumulatorDifferentialTest, RandomizedOptionSweep) {
  static const Fingerprints recorded = {
      {"round 0", 0x4db0fcd4u},
      {"round 1", 0x352504beu},
      {"round 10", 0xeca0ea94u},
      {"round 11", 0x42d3cb65u},
      {"round 2", 0x2f1d3689u},
      {"round 3", 0x902d4121u},
      {"round 4", 0xc7606d53u},
      {"round 5", 0xd9955688u},
      {"round 6", 0xfe00a913u},
      {"round 7", 0xcad27022u},
      {"round 8", 0x3e0f18c7u},
      {"round 9", 0xeb513789u},
  };
  Fingerprints actual;
  Rng rng(99);
  for (int round = 0; round < 12; ++round) {
    AccumulatorOptions opts;
    opts.budget = static_cast<uint32_t>(rng.NextBounded(33));
    opts.estimated_tuples = 1 + rng.NextBounded(200000);
    opts.avg_keys = 1 + rng.NextBounded(5000);
    const double z = static_cast<double>(rng.NextBounded(15)) / 10.0;
    const uint64_t n = 1000 + rng.NextBounded(20000);
    const uint64_t cardinality = 1 + rng.NextBounded(2000);
    const auto tuples =
        ZipfTuples(n, cardinality, z, kStart, kEnd, 1000 + round);
    actual["round " + std::to_string(round)] =
        RunsFingerprint(RunSeal(tuples, opts, /*post=*/false).batch);
  }
  ExpectRecordedFingerprints(actual, recorded);
}

}  // namespace
}  // namespace prompt
