// Ablations of Prompt's design choices (DESIGN.md §5):
//   A1  update-budget sweep: ordering quality & cost vs budget
//   A2  MPI weight extremes (p1=1 ≈ shuffle, p3=1 ≈ hash behaviour, §3.3)
//   A3  Early-release slack sweep: how much slack Alg. 2 actually needs
//   A4  Reduce-allocator isolation: Alg. 3 vs hash shuffle on Prompt blocks
//   A5  Elasticity thresholds: convergence speed vs (threshold, d)
//   A6  Batch resizing [12] vs a fixed interval + Alg. 4 elasticity
#include <algorithm>
#include <map>

#include "bench_util.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "stats/metrics.h"

using namespace prompt;
using namespace prompt::bench;

namespace {

// ---------- A1: budget sweep ----------
void BudgetSweep() {
  PrintHeader("A1 — budget sweep (Tweets-like batch, 60k tuples)");
  PrintRow({"budget", "treeUpdates", "updates/key", "displacement",
            "sealCost(us)"});
  for (uint32_t budget : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    Rng rng(11);
    ZipfSampler zipf(40000, 1.0);
    AccumulatorOptions opts;
    opts.budget = budget;
    opts.estimated_tuples = 60000;
    opts.avg_keys = 20000;
    auto acc_ptr = MakeAccumulator(AccumulatorKind::kFlat, opts);
    auto& acc = *acc_ptr;
    acc.Begin(0, Seconds(1));
    for (int i = 0; i < 60000; ++i) {
      acc.OnTuple(Tuple{i * 16, Mix64(zipf.Sample(rng)), 1.0});
    }
    Stopwatch watch;
    auto batch = acc.Seal();
    TimeMicros seal_cost = watch.ElapsedMicros();

    // Mean displacement of the top-100 keys vs the exact order.
    auto exact = batch.keys();
    std::stable_sort(exact.begin(), exact.end(),
                     [](const SortedKeyRun& a, const SortedKeyRun& b) {
                       return a.count > b.count;
                     });
    std::map<KeyId, size_t> pos;
    for (size_t i = 0; i < batch.keys().size(); ++i) {
      pos[batch.keys()[i].key] = i;
    }
    double disp = 0;
    const size_t top = std::min<size_t>(100, exact.size());
    for (size_t i = 0; i < top; ++i) {
      disp += std::abs(static_cast<double>(pos[exact[i].key]) -
                       static_cast<double>(i));
    }
    PrintRow({std::to_string(budget), std::to_string(acc.ordering_updates()),
              Fmt(static_cast<double>(acc.ordering_updates()) /
                      static_cast<double>(acc.num_keys()),
                  2),
              Fmt(disp / static_cast<double>(top), 1),
              std::to_string(seal_cost)});
  }
  std::printf(
      "(Ordering quality saturates quickly with budget; the default 16 is\n"
      " near-exact for the head keys at a fraction of per-tuple updates.)\n");
}

// ---------- A2: MPI weight extremes ----------
void MpiWeightExtremes() {
  PrintHeader("A2 — MPI weights rank techniques by objective (§3.3)");
  auto rate = std::make_shared<ConstantRate>(50000);
  auto source = MakeDataset(DatasetId::kSynD, rate, 5, 1.2, 0.02);
  // One batch of tuples shared by all techniques.
  std::vector<Tuple> tuples;
  Tuple t;
  while (true) {
    source->Next(&t);
    if (t.ts >= Seconds(1)) break;
    tuples.push_back(t);
  }
  struct Row {
    const char* name;
    double size_only;
    double locality_only;
    double balanced;
  };
  std::vector<Row> rows;
  for (PartitionerType type :
       {PartitionerType::kShuffle, PartitionerType::kHash,
        PartitionerType::kPrompt}) {
    auto p = CreatePartitioner(type);
    p->Begin(16, 0, Seconds(1));
    for (const Tuple& tup : tuples) p->OnTuple(tup);
    auto batch = p->Seal(0);
    rows.push_back(Row{
        PartitionerTypeName(type),
        ComputeBlockMetrics(batch, MpiWeights{1, 0, 0}).mpi,
        ComputeBlockMetrics(batch, MpiWeights{0, 0, 1}).mpi,
        ComputeBlockMetrics(batch, MpiWeights{}).mpi,
    });
  }
  PrintRow({"Technique", "MPI(p1=1)", "MPI(p3=1)", "MPI(1/3,1/3,1/3)"}, 18);
  for (const Row& r : rows) {
    PrintRow({r.name, Fmt(r.size_only, 4), Fmt(r.locality_only, 4),
              Fmt(r.balanced, 4)},
             18);
  }
}

// ---------- A3: early-release slack sweep ----------
void SlackSweep() {
  PrintHeader("A3 — early-release slack sweep (partition_cost_scale=100)");
  PrintRow({"slack%", "overflow_batches", "meanOverflow(ms)", "stable@6k"});
  for (double frac : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    auto rate = std::make_shared<ConstantRate>(6000);
    auto source = MakeDataset(DatasetId::kTweets, rate, 7, 1.0, 0.02);
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = opts.reduce_tasks = opts.cores = 16;
    opts.cost = BenchCostModel();
    opts.cost.partition_cost_scale = 100;  // production-substrate scale
    opts.early_release_frac = frac;
    MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    auto summary = engine.Run(10);
    int overflow_batches = 0;
    double mean_overflow = 0;
    for (const auto& b : summary.batches) {
      if (b.partition_overflow > 0) ++overflow_batches;
      mean_overflow += static_cast<double>(b.partition_overflow) / 1000.0;
    }
    mean_overflow /= static_cast<double>(summary.batches.size());
    PrintRow({Fmt(frac * 100, 0) + "%", std::to_string(overflow_batches),
              Fmt(mean_overflow, 1),
              IsStableRun(summary, opts.batch_interval) ? "yes" : "no"});
  }
}

// ---------- A4: reduce allocator isolation ----------
void ReduceAllocatorIsolation() {
  PrintHeader(
      "A4 — Alg. 3 Worst-Fit vs hash shuffle on identical Prompt blocks");
  PrintRow({"allocator", "meanBucketBSI", "maxThroughput(t/s)"});
  for (bool prompt_reduce : {false, true}) {
    // Bucket imbalance at a fixed rate.
    auto rate = std::make_shared<ConstantRate>(6000);
    auto source = MakeDataset(DatasetId::kTweets, rate, 13, 1.0, 0.02);
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = opts.reduce_tasks = opts.cores = 16;
    opts.cost = BenchCostModel();
    opts.use_prompt_reduce = prompt_reduce;
    opts.unstable_queue_intervals = 1e9;
    MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    auto summary = engine.Run(8);
    double bsi = 0;
    for (const auto& b : summary.batches) bsi += b.reduce_bucket_bsi;
    bsi /= static_cast<double>(summary.batches.size());

    // Max throughput with this allocator.
    auto probe = [&](double r) {
      auto prof = std::make_shared<SinusoidalRate>(r, 0.45, Seconds(2));
      auto src = MakeDataset(DatasetId::kTweets, prof, 13, 1.0, 0.02);
      EngineOptions o = opts;
      o.unstable_queue_intervals = 8.0;
      MicroBatchEngine e(o, JobSpec::WordCount(8),
                         CreatePartitioner(PartitionerType::kPrompt),
                         src.get());
      return e.Run(8);
    };
    double max_rate =
        FindMaxSustainableRate(probe, opts.batch_interval, 500, 16000, 7);
    PrintRow({prompt_reduce ? "PromptWorstFit" : "HashShuffle", Fmt(bsi, 1),
              Fmt(max_rate, 0)});
  }
}

// ---------- A5: elasticity threshold sensitivity ----------
void ElasticitySensitivity() {
  PrintHeader("A5 — elasticity sensitivity: batches to re-stabilize a 3x "
              "rate step");
  PrintRow({"threshold", "d", "recovery_batches", "peak_tasks", "end_tasks"});
  for (double threshold : {0.7, 0.9}) {
    for (int d : {2, 4}) {
      ZipfKeyedSource::Params params;
      params.cardinality = 3000;
      params.zipf = 0.6;
      params.rate = std::make_shared<PiecewiseRate>(
          std::vector<PiecewiseRate::Knot>{{0, 4000},
                                           {Seconds(10), 4000},
                                           {Seconds(11), 12000}});
      SynDSource source(std::move(params));
      EngineOptions opts;
      opts.batch_interval = Seconds(1);
      opts.map_tasks = opts.reduce_tasks = 6;
      opts.cores = 64;
      opts.cores_track_tasks = true;
      opts.cost = BenchCostModel();
      opts.elasticity_enabled = true;
      opts.elasticity.threshold = threshold;
      opts.elasticity.d = d;
      opts.elasticity.max_map_tasks = 64;
      opts.elasticity.max_reduce_tasks = 64;
      opts.unstable_queue_intervals = 1e9;
      MicroBatchEngine engine(opts, JobSpec::WordCount(6),
                              CreatePartitioner(PartitionerType::kPrompt),
                              &source);
      auto summary = engine.Run(60);
      // Recovery = first batch after the step with W back under threshold.
      int recovery = -1;
      uint32_t peak = 0;
      for (size_t i = 12; i < summary.batches.size(); ++i) {
        peak = std::max(peak, summary.batches[i].map_tasks);
        if (recovery < 0 && summary.batches[i].w <= threshold) {
          recovery = static_cast<int>(i) - 11;
        }
      }
      PrintRow({Fmt(threshold, 1), std::to_string(d),
                recovery < 0 ? "never" : std::to_string(recovery),
                std::to_string(peak), std::to_string(engine.map_tasks())});
    }
  }
}

// ---------- A6: resizing vs elasticity ----------
void ResizingVsElasticity() {
  PrintHeader("A6 — Das et al. [12] batch resizing vs Alg. 4 elasticity "
              "under a 3x load step");
  PrintRow({"strategy", "stable", "endInterval(ms)", "p95 latency(ms)"});
  for (int strategy = 0; strategy < 2; ++strategy) {
    ZipfKeyedSource::Params params;
    params.cardinality = 3000;
    params.zipf = 0.6;
    params.rate = std::make_shared<PiecewiseRate>(
        std::vector<PiecewiseRate::Knot>{{0, 4000},
                                         {Seconds(10), 4000},
                                         {Seconds(11), 12000}});
    SynDSource source(std::move(params));
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = opts.reduce_tasks = 6;
    opts.cores = 64;
    opts.cost = BenchCostModel();
    opts.unstable_queue_intervals = 1e9;
    if (strategy == 0) {
      opts.batch_resizing_enabled = true;
      opts.cores_track_tasks = false;
      opts.cores = 6;  // fixed resources: resizing is the only lever
    } else {
      opts.elasticity_enabled = true;
      opts.cores_track_tasks = true;
      opts.elasticity.d = 2;
      opts.elasticity.max_map_tasks = 64;
      opts.elasticity.max_reduce_tasks = 64;
    }
    MicroBatchEngine engine(opts, JobSpec::WordCount(6),
                            CreatePartitioner(PartitionerType::kPrompt),
                            &source);
    auto summary = engine.Run(60);
    std::vector<double> latencies;
    for (const auto& b : summary.batches) {
      latencies.push_back(static_cast<double>(b.latency) / 1000.0);
    }
    std::sort(latencies.begin(), latencies.end());
    double p95 = latencies[static_cast<size_t>(latencies.size() * 0.95)];
    PrintRow({strategy == 0 ? "BatchResizing" : "Prompt+Alg4",
              IsStableRun(summary, opts.batch_interval,
                          StabilityCriteria{5, 1.05, 2.0})
                  ? "yes"
                  : "no",
              Fmt(static_cast<double>(
                      summary.batches.back().batch_interval) /
                      1000.0,
                  0),
              Fmt(p95, 0)});
  }
  std::printf(
      "(Resizing stabilizes by growing the interval — inflating latency —\n"
      " while elasticity holds the 1s interval and adds tasks, the paper's\n"
      " §1 argument for attacking partitioning/resources instead.)\n");
}

// ---------- A7: exact statistics vs bounded-memory sketch ----------
void ExactVsSketch() {
  PrintHeader(
      "A7 — exact per-batch statistics (Prompt) vs Space-Saving sketch "
      "partitioning (§2.2.4)");
  PrintRow({"technique", "BSI/avg", "KSR", "MPI", "maxThroughput"});
  for (PartitionerType type :
       {PartitionerType::kSketch, PartitionerType::kPrompt}) {
    // Quality on a fixed batch stream.
    auto rate = std::make_shared<ConstantRate>(6000);
    auto source = MakeDataset(DatasetId::kSynD, rate, 23, 1.4, 0.02);
    auto partitioner = CreatePartitioner(type);
    double bsi_rel = 0, ksr = 0, mpi = 0;
    Tuple t{};
    bool pending = false;
    const int kBatches = 8;
    for (int b = 0; b < kBatches; ++b) {
      partitioner->Begin(16, b * Seconds(1), (b + 1) * Seconds(1));
      if (pending && t.ts < (b + 1) * Seconds(1)) {
        partitioner->OnTuple(t);
        pending = false;
      }
      while (!pending) {
        source->Next(&t);
        if (t.ts >= (b + 1) * Seconds(1)) {
          pending = true;
          break;
        }
        partitioner->OnTuple(t);
      }
      auto m = ComputeBlockMetrics(partitioner->Seal(b));
      bsi_rel += m.avg_block_size > 0 ? m.bsi / m.avg_block_size : 0;
      ksr += m.ksr;
      mpi += m.mpi;
    }
    ThroughputSetup setup;
    setup.batch_interval = Seconds(1);
    const double max_rate = MaxThroughput(DatasetId::kSynD, type, setup, 1.4);
    PrintRow({PartitionerTypeName(type), Fmt(bsi_rel / kBatches, 3),
              Fmt(ksr / kBatches, 3), Fmt(mpi / kBatches, 4),
              Fmt(max_rate, 0)});
  }
  std::printf(
      "(The sketch splits only detected heavy hitters and hashes the rest:\n"
      " good size balance, but the tail imbalance and missed mid-weight keys\n"
      " cost combined MPI and throughput vs exact batch statistics.)\n");
}

}  // namespace

int main() {
  BudgetSweep();
  MpiWeightExtremes();
  SlackSweep();
  ReduceAllocatorIsolation();
  ElasticitySensitivity();
  ResizingVsElasticity();
  ExactVsSketch();
  return 0;
}
