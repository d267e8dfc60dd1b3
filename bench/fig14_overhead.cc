// Regenerates Figure 14: the cost of Prompt itself.
//  (a) throughput of Prompt vs Prompt with an explicit post-sort at seal
//      (what Alg. 1's in-stream quasi-sorting avoids)
//  (b) Prompt's partitioning time as a percentage of the batch interval
//      across data rates — the paper observes it stays under ~5%.
//  (c) overhead of the observability subsystem (metrics + per-batch JSONL
//      traces) relative to a run with observability disabled — the budget
//      is <2% wall time.
//  (d) overhead of the continuous-telemetry layer (time-series ring +
//      per-batch autopsy + live HTTP exporter under scrape) against the
//      same <2% DESIGN.md §8 budget.
#include <algorithm>
#include <limits>
#include <sstream>

#include "bench_util.h"

using namespace prompt;
using namespace prompt::bench;

namespace {

void PostSortThroughput() {
  PrintHeader("Figure 14a — throughput with Post-Sort instead of Alg. 1");
  PrintRow({"Variant", "interval=1s", "interval=2s"});
  for (PartitionerType type :
       {PartitionerType::kPrompt, PartitionerType::kPromptPostSort}) {
    std::vector<std::string> cells = {PartitionerTypeName(type)};
    for (double interval_s : {1.0, 2.0}) {
      ThroughputSetup setup;
      setup.batch_interval = Seconds(interval_s);
      setup.batches_per_probe = 8;
      setup.search_iterations = 6;
      auto run = [&](double rate) {
        auto profile = std::make_shared<SinusoidalRate>(
            rate, 0.3, 4 * setup.batch_interval);
        auto source = MakeDataset(DatasetId::kTweets, profile, setup.seed);
        EngineOptions opts;
        opts.batch_interval = setup.batch_interval;
        opts.map_tasks = setup.tasks;
        opts.reduce_tasks = setup.tasks;
        opts.cores = setup.tasks;
        opts.cost = BenchCostModel();
        // Model a production-grade (JVM/serialization) substrate where the
        // seal-time work is ~3 orders of magnitude costlier than this C++
        // core: what fits in the release slack for Alg. 1 no longer fits
        // once an explicit O(K log K) sort is added.
        opts.cost.partition_cost_scale = 2000;
        MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                                CreatePartitioner(type), source.get());
        return engine.Run(setup.batches_per_probe);
      };
      cells.push_back(Fmt(
          FindMaxSustainableRate(run, setup.batch_interval, setup.lo_rate,
                                 setup.hi_rate, setup.search_iterations),
          0));
    }
    PrintRow(cells);
  }
}

void PartitioningOverhead() {
  PrintHeader(
      "Figure 14b — Prompt partitioning time as % of the batch interval");
  PrintRow({"rate(t/s)", "keys/batch", "cost(ms)", "pct_of_1s", "slack_ok"});
  for (double rate : {10000.0, 20000.0, 40000.0, 80000.0, 160000.0}) {
    auto profile = std::make_shared<ConstantRate>(rate);
    auto source = MakeDataset(DatasetId::kTweets, profile, /*seed=*/3);
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = 16;
    opts.reduce_tasks = 16;
    opts.cores = 16;
    opts.cost = BenchCostModel();
    opts.unstable_queue_intervals = 1e9;
    MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    auto summary = engine.Run(6);
    double cost_ms = 0, keys = 0;
    bool all_within_slack = true;
    for (const auto& b : summary.batches) {
      cost_ms += static_cast<double>(b.partition_cost) / 1000.0;
      keys += static_cast<double>(b.num_keys);
      if (b.partition_overflow > 0) all_within_slack = false;
    }
    cost_ms /= static_cast<double>(summary.batches.size());
    keys /= static_cast<double>(summary.batches.size());
    PrintRow({Fmt(rate, 0), Fmt(keys, 0), Fmt(cost_ms, 2),
              Fmt(100.0 * cost_ms / 1000.0, 3) + "%",
              all_within_slack ? "yes" : "no"});
  }
  std::printf(
      "\nWith Early Batch Release (5%% slack) the decision cost never\n"
      "reaches the processing phase as long as pct stays below 5%%.\n");
}

void ObservabilityOverhead() {
  PrintHeader("Figure 14c — observability subsystem overhead");
  auto run_once = [](bool observe, std::ostream* trace_out) {
    auto profile = std::make_shared<ConstantRate>(40000.0);
    auto source = MakeDataset(DatasetId::kTweets, profile, /*seed=*/7);
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = 16;
    opts.reduce_tasks = 16;
    opts.cores = 16;
    opts.cost = BenchCostModel();
    opts.unstable_queue_intervals = 1e9;
    opts.obs.metrics_enabled = observe;
    MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    if (observe) {
      engine.observability()->AddTraceSink(
          std::make_unique<JsonlTraceSink>(trace_out));
    }
    Stopwatch watch;
    engine.Run(12);
    return watch.ElapsedMicros();
  };
  // Interleaved best-of-5 per config damps scheduler noise and drift; the
  // run itself is virtual time, so wall time measures engine-side work only.
  std::ostringstream traces;
  TimeMicros off = std::numeric_limits<TimeMicros>::max();
  TimeMicros on = std::numeric_limits<TimeMicros>::max();
  for (int i = 0; i < 5; ++i) {
    off = std::min(off, run_once(false, nullptr));
    on = std::min(on, run_once(true, &traces));
  }
  const double pct =
      100.0 * (static_cast<double>(on) - static_cast<double>(off)) /
      static_cast<double>(off);
  PrintRow({"config", "wall(ms)", "overhead"});
  PrintRow({"obs off", Fmt(static_cast<double>(off) / 1000.0, 2), "-"});
  PrintRow({"obs on", Fmt(static_cast<double>(on) / 1000.0, 2),
            Fmt(pct, 2) + "%"});
  std::printf(
      "\nThe <2%% budget binds the *disabled* path (one branch per batch —\n"
      "indistinguishable from run-to-run noise). 'obs on' above is the full\n"
      "cost of metrics + trace assembly + JSONL encoding over 12 one-second\n"
      "batches; expect a few percent, noise-dominated on busy hosts.\n");
}

void TelemetryOverhead() {
  PrintHeader(
      "Figure 14d — continuous telemetry (time series + autopsy + exporter)");
  auto run_once = [](bool telemetry) {
    auto profile = std::make_shared<ConstantRate>(40000.0);
    auto source = MakeDataset(DatasetId::kTweets, profile, /*seed=*/7);
    EngineOptions opts;
    opts.batch_interval = Seconds(1);
    opts.map_tasks = 16;
    opts.reduce_tasks = 16;
    opts.cores = 16;
    opts.cost = BenchCostModel();
    opts.unstable_queue_intervals = 1e9;
    // Baseline is metrics-on: (d) isolates the *additional* cost of the
    // telemetry layer over the already-measured (c) configuration.
    opts.obs.metrics_enabled = true;
    if (telemetry) {
      opts.obs.serve_port = 0;  // implies a 1024-deep time series
      opts.obs.autopsy_path = "/dev/null";
    }
    MicroBatchEngine engine(opts, JobSpec::WordCount(8),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    Stopwatch watch;
    engine.Run(12);
    return watch.ElapsedMicros();
  };
  TimeMicros off = std::numeric_limits<TimeMicros>::max();
  TimeMicros on = std::numeric_limits<TimeMicros>::max();
  for (int i = 0; i < 5; ++i) {
    off = std::min(off, run_once(false));
    on = std::min(on, run_once(true));
  }
  const double pct =
      100.0 * (static_cast<double>(on) - static_cast<double>(off)) /
      static_cast<double>(off);
  PrintRow({"config", "wall(ms)", "overhead"});
  PrintRow({"metrics only", Fmt(static_cast<double>(off) / 1000.0, 2), "-"});
  PrintRow({"+telemetry", Fmt(static_cast<double>(on) / 1000.0, 2),
            Fmt(pct, 2) + "%"});
  std::printf(
      "\nThe telemetry layer adds one ring write + one autopsy row per batch\n"
      "and an idle accept thread; scrapes snapshot outside the engine's\n"
      "path. Budget: <2%% (DESIGN.md §8) — expect noise-dominated deltas.\n");
}

}  // namespace

int main() {
  PostSortThroughput();
  PartitioningOverhead();
  ObservabilityOverhead();
  TelemetryOverhead();
  return 0;
}
