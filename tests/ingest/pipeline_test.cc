#include "ingest/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "baselines/online_partitioners.h"
#include "common/hash.h"
#include "core/prompt_partitioner.h"
#include "engine/receiver.h"
#include "testing/fingerprint.h"
#include "workload/sources.h"

namespace prompt {
namespace {

// A skewed tuple stream with timestamps spread over [start, end).
std::vector<Tuple> MakeStream(uint64_t n, uint64_t cardinality, uint64_t seed,
                              TimeMicros start, TimeMicros end) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  const TimeMicros span = end - start;
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    // Squaring a uniform variate skews toward low key ids (a cheap Zipf-ish
    // profile; the pipeline only cares that frequencies differ).
    const double u =
        static_cast<double>(rng() % 1000000) / 1000000.0;
    t.key = static_cast<KeyId>(u * u * static_cast<double>(cardinality));
    t.ts = start + static_cast<TimeMicros>(
                       (static_cast<double>(i) / static_cast<double>(n)) *
                       static_cast<double>(span));
    t.value = 1.0;
    tuples.push_back(t);
  }
  return tuples;
}

std::map<KeyId, uint64_t> KeyCounts(const AccumulatedBatch& batch) {
  std::map<KeyId, uint64_t> counts;
  for (const SortedKeyRun& run : batch.keys()) counts[run.key] += run.count;
  return counts;
}

std::map<KeyId, uint64_t> KeyCounts(const PartitionedBatch& batch) {
  std::map<KeyId, uint64_t> counts;
  for (const DataBlock& b : batch.blocks) {
    for (const KeyFragment& f : b.fragments()) counts[f.key] += f.count;
  }
  return counts;
}

class ParallelIngestPipelineTest
    : public ::testing::TestWithParam<AccumulatorKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, ParallelIngestPipelineTest,
                         ::testing::Values(AccumulatorKind::kFlat),
                         [](const auto& info) {
                           return std::string(AccumulatorKindName(info.param));
                         });

// Tentpole acceptance: for any shard count the merged batch's per-key counts
// are bit-identical to a single accumulator fed the same stream, and the
// merged list stays quasi-sorted with every tuple reachable through the
// rebased chains.
TEST_P(ParallelIngestPipelineTest, MergedCountsMatchSingleAccumulator) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(20000, 400, 7, start, end);

  auto reference = MakeAccumulator(GetParam());
  reference->Begin(start, end);
  for (const Tuple& t : stream) reference->OnTuple(t);
  const auto expected = KeyCounts(reference->Seal());

  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.ring_capacity = 256;  // small ring: exercises back-pressure
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();

    EXPECT_EQ(merged.num_tuples(), stream.size()) << "shards=" << shards;
    EXPECT_EQ(KeyCounts(merged), expected) << "shards=" << shards;

    // Every run's chain must yield exactly `count` tuples of that key.
    uint64_t chained = 0;
    for (const SortedKeyRun& run : merged.keys()) {
      uint64_t seen = 0;
      merged.ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
        EXPECT_EQ(t.key, run.key);
        ++seen;
      });
      EXPECT_EQ(seen, run.count) << "key=" << run.key;
      chained += seen;
    }
    EXPECT_EQ(chained, merged.num_tuples());

    const IngestMetrics& m = pipeline.last_metrics();
    EXPECT_EQ(m.shards.size(), shards);
    EXPECT_EQ(m.total_tuples, stream.size());
  }
}

// Shard invariance, pinned to a recording: at every shard count the merged
// batch's run sequence and run tuples equal the CRC-32C fingerprint recorded
// from the pipeline over the chain transcription of Alg. 1 (HTable chains +
// CountTree).
TEST(ParallelIngestPipelineDifferentialTest, FlatMatchesLegacyAtEveryShardCount) {
  static const std::map<std::string, uint32_t> recorded = {
      {"shards=1", 0xa14cb78du},
      {"shards=2", 0x9a2666d9u},
      {"shards=3", 0xb1db1308u},
      {"shards=4", 0xd5b7e941u},
  };
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(30000, 800, 13, start, end);

  std::map<std::string, uint32_t> actual;
  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    actual["shards=" + std::to_string(shards)] =
        testing::RunsFingerprint(pipeline.SealBatch());
  }
  testing::ExpectRecordedFingerprints(actual, recorded);
}

TEST_P(ParallelIngestPipelineTest, MultipleBatchesReuseWorkers) {
  IngestOptions opts;
  opts.shards = 3;
  ParallelIngestPipeline pipeline(opts);
  for (int b = 0; b < 4; ++b) {
    const TimeMicros start = Seconds(b), end = Seconds(b + 1);
    const auto stream =
        MakeStream(5000, 100, 100 + static_cast<uint64_t>(b), start, end);
    auto reference = MakeAccumulator(GetParam());
    reference->Begin(start, end);
    for (const Tuple& t : stream) reference->OnTuple(t);
    const auto expected = KeyCounts(reference->Seal());

    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();
    EXPECT_EQ(KeyCounts(merged), expected) << "batch=" << b;
  }
}

TEST_P(ParallelIngestPipelineTest, EmptyBatch) {
  IngestOptions opts;
  opts.shards = 4;
  ParallelIngestPipeline pipeline(opts);
  pipeline.BeginBatch(0, Seconds(1));
  const AccumulatedBatch& merged = pipeline.SealBatch();
  EXPECT_EQ(merged.num_tuples(), 0u);
  EXPECT_TRUE(merged.keys().empty());
  // And a non-empty batch right after still works.
  pipeline.BeginBatch(Seconds(1), Seconds(2));
  Tuple t;
  t.ts = Seconds(1);
  t.key = 42;
  pipeline.Ingest(t);
  const AccumulatedBatch& merged2 = pipeline.SealBatch();
  EXPECT_EQ(merged2.num_tuples(), 1u);
  ASSERT_EQ(merged2.keys().size(), 1u);
  EXPECT_EQ(merged2.keys()[0].key, 42u);
}

TEST_P(ParallelIngestPipelineTest, ShardStatsCoverAllTuples) {
  IngestOptions opts;
  opts.shards = 4;
  ParallelIngestPipeline pipeline(opts);
  const auto stream = MakeStream(10000, 1000, 3, 0, Seconds(1));
  pipeline.BeginBatch(0, Seconds(1));
  for (const Tuple& t : stream) pipeline.Ingest(t);
  pipeline.SealBatch();
  const IngestMetrics& m = pipeline.last_metrics();
  uint64_t tuples = 0, keys = 0;
  for (const ShardIngestStats& s : m.shards) {
    tuples += s.tuples;
    keys += s.keys;
  }
  EXPECT_EQ(tuples, stream.size());
  EXPECT_GT(keys, 0u);
  EXPECT_GE(ShardLoadImbalance(m), 1.0);
}

// --- Sketch (heavy-hitter) mode ---

// Sketch mode at every shard count: the merged batch conserves all tuples
// across the run list plus the tail buckets, a tail key never spans two
// buckets, each global bucket is one range holding shard 0's tuples, then
// shard 1's, and so on, and the folded stats cover the whole batch.
TEST(ParallelIngestPipelineSketchTest, TailStitchConservesTuples) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(40000, 5000, 17, start, end);
  std::map<KeyId, uint64_t> truth;
  for (const Tuple& t : stream) ++truth[t.key];

  for (uint32_t shards : {1u, 2u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.key_mode = KeyMode::kSketch;
    opts.accumulator_options.sketch.capacity = 256;
    opts.accumulator_options.sketch.tail_buckets = 32;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();

    EXPECT_EQ(merged.num_tuples(), stream.size()) << "shards=" << shards;
    ASSERT_FALSE(merged.tail().empty()) << "shards=" << shards;

    // Conservation: per-key counts over head runs + tail buckets == truth.
    std::map<KeyId, uint64_t> seen;
    for (const SortedKeyRun& run : merged.keys()) {
      uint64_t chained = 0;
      merged.ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
        EXPECT_EQ(t.key, run.key);
        ++chained;
      });
      EXPECT_EQ(chained, run.count) << "key=" << run.key;
      seen[run.key] += run.count;
    }
    // A tail key must live in exactly one global bucket (the bucket hash is
    // shard-independent), or Alg. 2 would split it without knowing.
    // Within a bucket, tuples are ordered by (routing shard, arrival): the
    // shards' slices follow one another in shard order.
    std::map<KeyId, size_t> key_bucket;
    uint64_t tail_tuples = 0;
    uint64_t next_offset = merged.tail().front().offset;
    for (size_t b = 0; b < merged.tail().size(); ++b) {
      const TailBucket& bucket = merged.tail()[b];
      EXPECT_EQ(bucket.offset, next_offset) << "bucket=" << b;
      next_offset = bucket.offset + bucket.tuples;
      std::pair<uint64_t, TimeMicros> last{0, -1};
      for (const Tuple& t : merged.tuples(bucket)) {
        auto [it, inserted] = key_bucket.emplace(t.key, b);
        EXPECT_EQ(it->second, b) << "tail key " << t.key << " in two buckets";
        const std::pair<uint64_t, TimeMicros> order{HashKey(t.key) % shards,
                                                    t.ts};
        EXPECT_LT(last, order) << "bucket=" << b << " shards=" << shards;
        last = order;
        ++seen[t.key];
      }
      tail_tuples += bucket.tuples;
    }
    EXPECT_EQ(next_offset, merged.num_tuples()) << "shards=" << shards;
    EXPECT_EQ(seen, truth) << "shards=" << shards;

    const SketchBatchStats& stats = merged.stats();
    EXPECT_TRUE(stats.sketch_mode);
    EXPECT_EQ(stats.head_tuples + stats.tail_tuples, stream.size());
    EXPECT_EQ(stats.tail_tuples, tail_tuples);
    EXPECT_GT(stats.head_coverage(), 0.0);
    EXPECT_GT(stats.distinct_estimate, 0u);
  }
}

// The per-shard sketch capacity bounds merged key state at every shard
// count: run-list size stays O(shards * capacity) even at high cardinality.
TEST(ParallelIngestPipelineSketchTest, RunListBoundedBySketchCapacity) {
  const TimeMicros start = 0, end = Seconds(1);
  const auto stream = MakeStream(60000, 50000, 23, start, end);
  for (uint32_t shards : {1u, 4u}) {
    IngestOptions opts;
    opts.shards = shards;
    opts.key_mode = KeyMode::kSketch;
    opts.accumulator_options.sketch.capacity = 128;
    ParallelIngestPipeline pipeline(opts);
    pipeline.BeginBatch(start, end);
    for (const Tuple& t : stream) pipeline.Ingest(t);
    const AccumulatedBatch& merged = pipeline.SealBatch();
    EXPECT_LE(merged.keys().size(), 128u * shards) << "shards=" << shards;
    EXPECT_EQ(merged.num_tuples(), stream.size());
  }
}

// --- Receiver integration ---

std::unique_ptr<TupleSource> MakeSource(double rate = 10000,
                                        uint64_t seed = 1) {
  ZipfKeyedSource::Params params;
  params.cardinality = 300;
  params.zipf = 1.0;
  params.seed = seed;
  params.rate = std::make_shared<ConstantRate>(rate);
  return std::make_unique<SynDSource>(std::move(params));
}

// Sharded receiver + Prompt (SealAccumulated fast path) produces batches with
// the same tuple membership and per-key counts as the single-threaded
// receiver over an identical source.
TEST(ReceiverShardedIngestTest, MatchesSingleThreadedReceiver) {
  auto source_a = MakeSource(10000, 9);
  auto source_b = MakeSource(10000, 9);
  PromptPartitioner part_a, part_b;
  ReceiverOptions opts_a;
  opts_a.batch_interval = Millis(200);
  ReceiverOptions opts_b = opts_a;
  opts_b.ingest.shards = 3;
  opts_b.ingest.ring_capacity = 512;

  StreamReceiver single(source_a.get(), &part_a, opts_a);
  StreamReceiver sharded(source_b.get(), &part_b, opts_b);
  ASSERT_TRUE(single.Start().ok());
  ASSERT_TRUE(sharded.Start().ok());
  for (int i = 0; i < 4; ++i) {
    auto a = single.NextBatch(4);
    auto b = sharded.NextBatch(4);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->batch.num_tuples, a->batch.num_tuples) << "batch " << i;
    EXPECT_EQ(b->batch.num_keys, a->batch.num_keys) << "batch " << i;
    EXPECT_EQ(KeyCounts(b->batch), KeyCounts(a->batch)) << "batch " << i;
    EXPECT_EQ(b->batch.batch_id, a->batch.batch_id);
  }
  const IngestMetrics* m = sharded.ingest_metrics();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->shards.size(), 3u);
  single.Stop();
  sharded.Stop();
}

// A partitioner without the SealAccumulated fast path gets the merged batch
// replayed through OnTuple: totals must still match the single-threaded run.
TEST(ReceiverShardedIngestTest, FallbackReplayForOnlinePartitioner) {
  auto source_a = MakeSource(8000, 21);
  auto source_b = MakeSource(8000, 21);
  HashPartitioner part_a, part_b;
  ReceiverOptions opts_a;
  opts_a.batch_interval = Millis(200);
  ReceiverOptions opts_b = opts_a;
  opts_b.ingest.shards = 2;

  StreamReceiver single(source_a.get(), &part_a, opts_a);
  StreamReceiver sharded(source_b.get(), &part_b, opts_b);
  ASSERT_TRUE(single.Start().ok());
  ASSERT_TRUE(sharded.Start().ok());
  for (int i = 0; i < 3; ++i) {
    auto a = single.NextBatch(4);
    auto b = sharded.NextBatch(4);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->batch.num_tuples, a->batch.num_tuples) << "batch " << i;
    EXPECT_EQ(KeyCounts(b->batch), KeyCounts(a->batch)) << "batch " << i;
  }
  single.Stop();
  sharded.Stop();
}

// Sketch-mode receiver conserves every tuple — through the Prompt fast path
// (tail buckets placed whole by Alg. 2) and through the fallback replay
// (tail buckets drained tuple-by-tuple into an online partitioner).
TEST(ReceiverSketchModeTest, ConservesTuplesOnBothSealPaths) {
  for (const bool prompt_path : {true, false}) {
    auto source_exact = MakeSource(10000, 31);
    auto source_sketch = MakeSource(10000, 31);
    PromptPartitioner prompt_a, prompt_b;
    HashPartitioner hash_a, hash_b;
    BatchPartitioner* part_a =
        prompt_path ? static_cast<BatchPartitioner*>(&prompt_a) : &hash_a;
    BatchPartitioner* part_b =
        prompt_path ? static_cast<BatchPartitioner*>(&prompt_b) : &hash_b;

    ReceiverOptions opts_exact;
    opts_exact.batch_interval = Millis(200);
    ReceiverOptions opts_sketch = opts_exact;
    opts_sketch.ingest.shards = 2;
    opts_sketch.ingest.key_mode = KeyMode::kSketch;
    opts_sketch.ingest.accumulator_options.sketch.capacity = 64;
    // Seed N_est / K_avg with the source's real shape (10k/s * 200ms, 300
    // keys) so the auto promote threshold is sane from batch 0; later
    // batches re-estimate via the receiver EWMA (which in sketch mode must
    // feed the HLL estimate, not the head-run count — the regression this
    // test pins down).
    opts_sketch.ingest.accumulator_options.estimated_tuples = 2000;
    opts_sketch.ingest.accumulator_options.avg_keys = 300;

    StreamReceiver exact(source_exact.get(), part_a, opts_exact);
    StreamReceiver sketch(source_sketch.get(), part_b, opts_sketch);
    ASSERT_TRUE(exact.Start().ok());
    ASSERT_TRUE(sketch.Start().ok());
    for (int i = 0; i < 3; ++i) {
      auto a = exact.NextBatch(4);
      auto b = sketch.NextBatch(4);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(b->batch.num_tuples, a->batch.num_tuples)
          << "prompt_path=" << prompt_path << " batch " << i;
      // Per-key conservation holds in sketch mode too: tail tuples reach
      // blocks, they just carry no fragment summaries, so compare block
      // tuple contents instead of fragments.
      std::map<KeyId, uint64_t> counts_a, counts_b;
      for (const DataBlock& blk : a->batch.blocks) {
        for (const Tuple& t : blk.tuples()) ++counts_a[t.key];
      }
      for (const DataBlock& blk : b->batch.blocks) {
        for (const Tuple& t : blk.tuples()) ++counts_b[t.key];
      }
      EXPECT_EQ(counts_b, counts_a)
          << "prompt_path=" << prompt_path << " batch " << i;
      if (prompt_path) {
        EXPECT_TRUE(b->batch.sketch.sketch_mode);
        EXPECT_GT(b->batch.sketch.head_coverage(), 0.0);
      }
    }
    exact.Stop();
    sketch.Stop();
  }
}

}  // namespace
}  // namespace prompt
