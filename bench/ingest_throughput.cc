// Ingest scaling harness for the sharded parallel ingest pipeline
// (src/ingest/): raw Alg. 1 buffering throughput (tuples/s) at 1..S shards
// over uniform and Zipf key streams, checked against a single accumulator
// fed the same stream (the ground truth):
//   - the merged batch's per-key counts are bit-identical at every shard
//     count, and
//   - at 1 shard the merged run sequence is the single accumulator's.
//
// The streams are pre-generated and replayed from memory, so the measurement
// isolates route + accumulate + seal + merge — no source pacing, no queueing.
// Multi-shard speedups require the shards to actually run on separate cores;
// on a single-core host those numbers degenerate to ~1x. The single
// accumulator's throughput at the bottom is core-count independent.
#include <cstdio>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/accumulator_api.h"
#include "ingest/pipeline.h"

using namespace prompt;

namespace {

std::vector<Tuple> MakeStream(uint64_t n, uint64_t cardinality, double zipf,
                              uint64_t seed) {
  Rng rng(seed);
  ZipfSampler sampler(cardinality, zipf);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    t.key = sampler.Sample(rng);
    t.ts = static_cast<TimeMicros>(i);  // interval [0, n)
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

// The exact (key, count) sequence: order matters for the bit-identity check.
std::vector<std::pair<KeyId, uint64_t>> RunSequence(
    const AccumulatedBatch& batch) {
  std::vector<std::pair<KeyId, uint64_t>> runs;
  runs.reserve(batch.keys().size());
  for (const SortedKeyRun& run : batch.keys()) {
    runs.emplace_back(run.key, run.count);
  }
  return runs;
}

/// One timed pass: BeginBatch -> Ingest all -> SealBatch. Returns tuples/s.
double TimedPass(ParallelIngestPipeline& pipeline,
                 const std::vector<Tuple>& stream) {
  Stopwatch watch;
  pipeline.BeginBatch(0, static_cast<TimeMicros>(stream.size()));
  for (const Tuple& t : stream) pipeline.Ingest(t);
  pipeline.SealBatch();
  const double secs = static_cast<double>(watch.ElapsedMicros()) / 1e6;
  return secs > 0 ? static_cast<double>(stream.size()) / secs : 0;
}

/// Best-of-reps single-accumulator throughput (no pipeline overhead).
double SingleAccumulatorTps(const std::vector<Tuple>& stream, int reps) {
  auto acc = MakeAccumulator(AccumulatorKind::kFlat);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    acc->Begin(0, static_cast<TimeMicros>(stream.size()));
    for (const Tuple& t : stream) acc->OnTuple(t);
    acc->Seal();
    const double secs = static_cast<double>(watch.ElapsedMicros()) / 1e6;
    const double tps =
        secs > 0 ? static_cast<double>(stream.size()) / secs : 0;
    if (tps > best) best = tps;
  }
  return best;
}

void RunScaling(const char* label, const std::vector<Tuple>& stream,
                const std::vector<uint32_t>& shard_counts, int reps) {
  // Ground truth for the bit-identity checks: one accumulator, no shards.
  auto reference = MakeAccumulator(AccumulatorKind::kFlat);
  reference->Begin(0, static_cast<TimeMicros>(stream.size()));
  for (const Tuple& t : stream) reference->OnTuple(t);
  const auto ref_batch = reference->Seal();
  const auto expected_counts = KeyCounts(ref_batch);
  const auto expected_runs = RunSequence(ref_batch);

  std::printf("%-10s %8s %14s %10s %10s %12s\n", label, "shards",
              "tuples/s", "speedup", "imbalance", "runs");
  double base = 0;
  for (uint32_t shards : shard_counts) {
    IngestOptions opts;
    opts.shards = shards;
    ParallelIngestPipeline pipeline(opts);
    double best = 0;
    bool counts_exact = true;
    bool runs_exact = true;
    for (int r = 0; r < reps; ++r) {
      const double tps = TimedPass(pipeline, stream);
      if (tps > best) best = tps;
      if (r == 0) {
        // Re-run untimed for verification.
        pipeline.BeginBatch(0, static_cast<TimeMicros>(stream.size()));
        for (const Tuple& t : stream) pipeline.Ingest(t);
        const AccumulatedBatch& merged = pipeline.SealBatch();
        counts_exact = KeyCounts(merged) == expected_counts;
        // The run *sequence* is only bit-identical to the single
        // accumulator at 1 shard; multi-shard merges interleave shards.
        runs_exact = shards > 1 || RunSequence(merged) == expected_runs;
      }
    }
    if (shards == shard_counts.front()) base = best;
    std::printf("%-10s %8u %14.0f %9.2fx %10.3f %12s\n", "", shards, best,
                base > 0 ? best / base : 0,
                ShardLoadImbalance(pipeline.last_metrics()),
                !counts_exact ? "COUNT-MISMATCH"
                : !runs_exact ? "RUN-MISMATCH"
                              : "exact");
  }
  std::printf("%-10s single accumulator, no pipeline: %.0f t/s\n\n", label,
              SingleAccumulatorTps(stream, reps));
}

}  // namespace

int main() {
  const uint64_t kTuples = 2000000;
  const uint64_t kCardinality = 100000;
  const int kReps = 3;
  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};

  std::printf("ingest_throughput: %llu tuples, cardinality %llu, %u cores\n\n",
              static_cast<unsigned long long>(kTuples),
              static_cast<unsigned long long>(kCardinality),
              std::thread::hardware_concurrency());

  RunScaling("uniform", MakeStream(kTuples, kCardinality, 0.0, 7),
             shard_counts, kReps);
  RunScaling("zipf-1.0", MakeStream(kTuples, kCardinality, 1.0, 7),
             shard_counts, kReps);
  return 0;
}
