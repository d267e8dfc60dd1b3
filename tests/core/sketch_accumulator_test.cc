#include "core/sketch_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"

namespace prompt {
namespace {

AccumulatorOptions SketchOpts(uint32_t capacity, uint64_t n_est,
                              uint64_t k_avg, uint32_t tail_buckets = 16) {
  AccumulatorOptions o;
  o.estimated_tuples = n_est;
  o.avg_keys = k_avg;
  o.sketch.capacity = capacity;
  o.sketch.tail_buckets = tail_buckets;
  return o;
}

// Replays a Zipf stream into the accumulator, returning the truth counts.
std::map<KeyId, uint64_t> FeedZipf(Accumulator& acc, uint64_t seed, size_t n,
                                   uint64_t cardinality, double z) {
  Rng rng(seed);
  ZipfSampler zipf(cardinality, z);
  std::map<KeyId, uint64_t> truth;
  acc.Begin(0, 1000000);
  for (size_t i = 0; i < n; ++i) {
    KeyId k = zipf.Sample(rng);
    ++truth[k];
    acc.OnTuple(Tuple{static_cast<TimeMicros>(i * 10), k, 1.0});
  }
  return truth;
}

TEST(SketchAccumulatorTest, FactoryAndParse) {
  auto acc = MakeAccumulator(AccumulatorKind::kSketch);
  EXPECT_STREQ(acc->name(), "sketch");
  EXPECT_STREQ(AccumulatorKindName(AccumulatorKind::kSketch), "sketch");
}

TEST(SketchAccumulatorTest, EveryTupleReachableExactlyOnce) {
  SketchAccumulator acc(SketchOpts(64, 20000, 500));
  const auto truth = FeedZipf(acc, 42, 20000, 2000, 1.1);
  AccumulatedBatch batch = acc.Seal();
  EXPECT_EQ(batch.num_tuples(), 20000u);

  // Runs, then buckets, tile the sealed tuples; together they hold every
  // tuple of the batch exactly once.
  std::vector<SortedKeyRun> runs = batch.keys();
  std::sort(runs.begin(), runs.end(),
            [](const SortedKeyRun& a, const SortedKeyRun& b) {
              return a.offset < b.offset;
            });
  std::map<KeyId, uint64_t> seen;
  uint64_t next = 0;
  for (const SortedKeyRun& run : runs) {
    EXPECT_EQ(run.offset, next) << "key " << run.key;
    for (const Tuple& t : batch.tuples(run)) {
      EXPECT_EQ(t.key, run.key);
      ++seen[t.key];
    }
    next += run.count;
  }
  const SketchBatchStats& stats = batch.stats();
  EXPECT_TRUE(stats.sketch_mode);
  EXPECT_EQ(next, stats.head_tuples);
  for (const TailBucket& bucket : batch.tail()) {
    EXPECT_EQ(bucket.offset, next);
    for (const Tuple& t : batch.tuples(bucket)) ++seen[t.key];
    next += bucket.tuples;
  }
  EXPECT_EQ(next, 20000u);
  EXPECT_EQ(seen, truth);
  EXPECT_EQ(stats.head_tuples + stats.tail_tuples, 20000u);
}

TEST(SketchAccumulatorTest, HeavyKeysGetPromotedUnderSkew) {
  // The promotion threshold max(8, 4 * N_est / K_avg) = 4 * 50000 / 4000 = 50.
  SketchAccumulator acc(SketchOpts(128, 50000, 4000));
  auto truth = FeedZipf(acc, 7, 50000, 50000, 1.2);
  AccumulatedBatch batch = acc.Seal();

  // The top few true heavy hitters must all hold exact runs.
  std::vector<std::pair<uint64_t, KeyId>> ranked;
  for (const auto& [k, c] : truth) ranked.push_back({c, k});
  std::sort(ranked.rbegin(), ranked.rend());
  std::set<KeyId> head_keys;
  for (const SortedKeyRun& run : batch.keys()) head_keys.insert(run.key);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(head_keys.count(ranked[i].second))
        << "rank-" << i << " key " << ranked[i].second << " (count "
        << ranked[i].first << ") not promoted";
  }
  // Skewed stream: the exact head must cover a majority of tuples.
  EXPECT_GT(batch.stats().head_coverage(), 0.5);
  EXPECT_LE(batch.stats().promoted_keys, 128u);
}

TEST(SketchAccumulatorTest, TailKeysStayInOneBucket) {
  SketchAccumulator acc(SketchOpts(32, 10000, 1000, 8));
  FeedZipf(acc, 11, 10000, 5000, 0.9);
  AccumulatedBatch batch = acc.Seal();
  std::map<KeyId, size_t> key_bucket;
  for (size_t b = 0; b < batch.tail().size(); ++b) {
    for (const Tuple& t : batch.tuples(batch.tail()[b])) {
      auto [it, inserted] = key_bucket.insert({t.key, b});
      EXPECT_EQ(it->second, b) << "tail key " << t.key << " in two buckets";
    }
  }
}

TEST(SketchAccumulatorTest, KeyStateMemoryIndependentOfCardinality) {
  // The entire point of the mode: key-proportional state must not grow with
  // the distinct-key count. Feed 20x the cardinality, allow only slack from
  // amortized vector growth.
  SketchAccumulator small(SketchOpts(256, 100000, 2000));
  FeedZipf(small, 3, 100000, 5000, 1.0);
  small.Seal();
  SketchAccumulator large(SketchOpts(256, 100000, 2000));
  FeedZipf(large, 3, 100000, 100000, 1.0);
  large.Seal();
  EXPECT_LT(large.key_state_bytes(), 2 * small.key_state_bytes());
}

TEST(SketchAccumulatorTest, SealOrderingIsQuasiDescending) {
  SketchAccumulator acc(SketchOpts(64, 30000, 500));
  auto truth = FeedZipf(acc, 19, 30000, 3000, 1.3);
  AccumulatedBatch batch = acc.Seal();
  ASSERT_GT(batch.keys().size(), 4u);
  // The first-ranked key should be a genuinely heavy one: within the top
  // few of the true ranking (rank_base + budgeted updates are approximate).
  std::vector<std::pair<uint64_t, KeyId>> ranked;
  for (const auto& [k, c] : truth) ranked.push_back({c, k});
  std::sort(ranked.rbegin(), ranked.rend());
  std::set<KeyId> top8;
  for (size_t i = 0; i < 8 && i < ranked.size(); ++i) {
    top8.insert(ranked[i].second);
  }
  EXPECT_TRUE(top8.count(batch.keys()[0].key));
}

TEST(SketchAccumulatorTest, PostSortSealKeepsChainsIntact) {
  SketchAccumulator acc(SketchOpts(64, 20000, 500));
  FeedZipf(acc, 23, 20000, 2000, 1.1);
  AccumulatedBatch batch = acc.SealWithPostSort();
  // The re-ordered runs still tile the front of the tuples, each holding
  // its own key's tuples in arrival order.
  std::vector<SortedKeyRun> runs = batch.keys();
  std::sort(runs.begin(), runs.end(),
            [](const SortedKeyRun& a, const SortedKeyRun& b) {
              return a.offset < b.offset;
            });
  uint64_t next = 0;
  for (const SortedKeyRun& run : runs) {
    EXPECT_EQ(run.offset, next) << "key " << run.key;
    next += run.count;
    TimeMicros last_ts = 0;
    for (const Tuple& t : batch.tuples(run)) {
      EXPECT_EQ(t.key, run.key);
      EXPECT_GE(t.ts, last_ts);
      last_ts = t.ts;
    }
  }
  EXPECT_EQ(next, batch.stats().head_tuples);
}

TEST(SketchAccumulatorTest, ReusableAcrossBatches) {
  SketchAccumulator acc(SketchOpts(32, 5000, 200));
  FeedZipf(acc, 1, 5000, 500, 1.1);
  AccumulatedBatch first = acc.Seal();
  const uint64_t first_tuples = first.num_tuples();
  FeedZipf(acc, 2, 5000, 500, 1.1);
  AccumulatedBatch second = acc.Seal();
  EXPECT_EQ(first_tuples, 5000u);
  EXPECT_EQ(second.num_tuples(), 5000u);
  EXPECT_EQ(second.stats().head_tuples + second.stats().tail_tuples, 5000u);
  acc.Reset();
  EXPECT_EQ(acc.num_tuples(), 0u);
}

TEST(SketchPartitionPlanTest, TailBucketsMaterializeOnceAndSplitCorrectly) {
  SketchAccumulator acc(SketchOpts(64, 30000, 600, 32));
  auto truth = FeedZipf(acc, 77, 30000, 10000, 1.1);
  AccumulatedBatch batch = acc.Seal();
  ASSERT_GT(batch.stats().tail_tuples, 0u);
  ASSERT_GT(batch.stats().head_tuples, 0u);

  const uint32_t kBlocks = 4;
  PartitionPlan plan = BuildPromptPlan(batch, kBlocks);
  ASSERT_EQ(plan.tail_bucket_block.size(), batch.tail().size());
  for (uint32_t b : plan.tail_bucket_block) EXPECT_LT(b, kBlocks);

  PartitionedBatch out = MaterializePlan(batch, plan, kBlocks);
  ASSERT_EQ(out.blocks.size(), kBlocks);
  EXPECT_TRUE(out.sketch.sketch_mode);

  // Conservation: every input tuple lands in exactly one block.
  std::map<KeyId, uint64_t> materialized;
  uint64_t total = 0;
  for (const DataBlock& block : out.blocks) {
    total += block.size();
    for (const Tuple& t : block.tuples()) ++materialized[t.key];
  }
  EXPECT_EQ(total, 30000u);
  for (const auto& [k, c] : truth) {
    EXPECT_EQ(materialized[k], c) << "key " << k;
  }

  // Split correctness: any key present in 2+ blocks must be flagged split in
  // every block that holds it (otherwise reduce emits duplicate keys).
  std::map<KeyId, int> key_blocks;
  for (const DataBlock& block : out.blocks) {
    std::set<KeyId> here;
    for (const Tuple& t : block.tuples()) here.insert(t.key);
    for (KeyId k : here) ++key_blocks[k];
  }
  for (const DataBlock& block : out.blocks) {
    std::set<KeyId> flagged;
    for (const KeyFragment& f : block.fragments()) {
      if (f.split) flagged.insert(f.key);
    }
    std::set<KeyId> here;
    for (const Tuple& t : block.tuples()) here.insert(t.key);
    for (KeyId k : here) {
      if (key_blocks[k] > 1) {
        EXPECT_TRUE(flagged.count(k))
            << "key " << k << " spans " << key_blocks[k]
            << " blocks but is not flagged split in block "
            << block.block_id();
      }
    }
  }

  // Load balance: no block should dwarf the rest (LPT buckets + B-BPFI).
  uint64_t max_size = 0, min_size = UINT64_MAX;
  for (const DataBlock& block : out.blocks) {
    max_size = std::max(max_size, block.size());
    min_size = std::min(min_size, block.size());
  }
  EXPECT_LT(max_size, 2 * (30000 / kBlocks));
}

TEST(SketchPartitionPlanTest, ExactBatchPlanUnchangedByTailSupport) {
  // An exact accumulator's batch has no tail: the plan must carry no tail
  // assignments and materialize identically to the pre-sketch behavior.
  auto acc = MakeAccumulator(AccumulatorKind::kFlat);
  acc->Begin(0, 1000000);
  Rng rng(5);
  ZipfSampler zipf(500, 1.0);
  for (int i = 0; i < 5000; ++i) {
    acc->OnTuple(Tuple{static_cast<TimeMicros>(i * 10), zipf.Sample(rng), 1.0});
  }
  AccumulatedBatch batch = acc->Seal();
  EXPECT_TRUE(batch.tail().empty());
  EXPECT_FALSE(batch.stats().sketch_mode);
  PartitionPlan plan = BuildPromptPlan(batch, 4);
  EXPECT_TRUE(plan.tail_bucket_block.empty());
  PartitionedBatch out = MaterializePlan(batch, plan, 4);
  EXPECT_FALSE(out.sketch.sketch_mode);
  EXPECT_EQ(out.num_keys, batch.num_keys());
}

// A "<field> <n> kB" line of /proc/self/status, in bytes (0 if absent).
uint64_t ProcStatusBytes(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stoull(line.substr(field.size())) * 1024;
    }
  }
  return 0;
}

// Sketch mode exists to keep per-batch memory off the distinct-key count
// (DESIGN.md §17), and in sketch mode num_keys is the HLL estimate of every
// distinct key. MaterializePlan's tables only ever hold the blocks'
// fragments, so the peak it adds must stay near the blocks' own tuples
// however many distinct keys the batch has. ctest runs each case in its own
// process, so the process's peak RSS (VmHWM) is this batch's alone.
TEST(SketchPartitionPlanTest, MaterializeMemoryIgnoresDistinctKeyCount) {
  constexpr uint64_t kTuples = 700000;
  SketchAccumulator acc(SketchOpts(4096, kTuples, kTuples, 64));
  acc.Begin(0, static_cast<TimeMicros>(kTuples));
  Rng rng(9);
  for (uint64_t i = 0; i < kTuples; ++i) {
    // A fifth of the tuples on 1000 hot keys, the rest nearly all distinct.
    const KeyId key = i % 5 == 0 ? rng.NextBounded(1000)
                                 : 1000 + rng.NextBounded(1000000000);
    acc.OnTuple(Tuple{static_cast<TimeMicros>(i), key, 1.0});
  }
  const AccumulatedBatch batch = acc.Seal();
  ASSERT_GT(batch.stats().distinct_estimate, 500000u);
  const PartitionPlan plan = BuildPromptPlan(batch, 16);

  const uint64_t peak_before = ProcStatusBytes("VmHWM:");
  const PartitionedBatch out = MaterializePlan(batch, plan, 16);
  const uint64_t peak_after = ProcStatusBytes("VmHWM:");
  ASSERT_GT(peak_before, 0u) << "no VmHWM in /proc/self/status";

  uint64_t fragments = 0;
  for (const DataBlock& block : out.blocks) fragments += block.cardinality();
  EXPECT_LT(fragments, 50000u);
  const uint64_t block_bytes = kTuples * sizeof(Tuple);
  EXPECT_LT(peak_after - peak_before, block_bytes + (8u << 20))
      << "blocks hold " << block_bytes << " bytes";
}

TEST(SketchAccumulatorTest, StatsReportDistinctEstimate) {
  SketchAccumulator acc(SketchOpts(64, 50000, 1000));
  auto truth = FeedZipf(acc, 13, 50000, 30000, 0.8);
  AccumulatedBatch batch = acc.Seal();
  const double est = static_cast<double>(batch.stats().distinct_estimate);
  const double truth_keys = static_cast<double>(truth.size());
  EXPECT_GT(est, truth_keys * 0.9);
  EXPECT_LT(est, truth_keys * 1.1);
  EXPECT_GT(batch.stats().min_count, 0u);
}

}  // namespace
}  // namespace prompt
