// End-to-end tests of the observability subsystem driven through the
// engine: one trace per batch, depth-0 span coverage of the reported
// latency (the acceptance bar), embedded ingest metrics and the
// zero-cost-when-disabled contract.
#include "obs/observability.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "obs/sink.h"
#include "workload/sources.h"

namespace prompt {
namespace {

std::unique_ptr<SynDSource> MakeSource(double rate = 8000) {
  ZipfKeyedSource::Params params;
  params.cardinality = 500;
  params.zipf = 1.0;
  params.rate = std::make_shared<ConstantRate>(rate);
  return std::make_unique<SynDSource>(std::move(params));
}

EngineOptions BaseOptions() {
  EngineOptions opts;
  opts.batch_interval = Millis(250);
  return opts;
}

/// Collects every (report, trace) pair the engine fans out.
class CollectingObserver : public Observer {
 public:
  void OnRunStart(uint32_t num_batches) override { run_batches_ = num_batches; }
  void OnBatchComplete(const BatchReport& report,
                       const BatchTrace& trace) override {
    reports_.push_back(report);
    traces_.push_back(trace);
  }
  void OnRunEnd() override { run_ended_ = true; }

  uint32_t run_batches_ = 0;
  bool run_ended_ = false;
  std::vector<BatchReport> reports_;
  std::vector<BatchTrace> traces_;
};

TEST(ObservabilityTest, DisabledByDefaultAndZeroCostPathTaken) {
  auto source = MakeSource();
  MicroBatchEngine engine(BaseOptions(), JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  EXPECT_FALSE(engine.observability()->active());
  EXPECT_EQ(engine.observability()->registry(), nullptr);
  EXPECT_TRUE(engine.observability()->init_status().ok());
  // Runs fine with the whole subsystem off.
  EXPECT_EQ(engine.Run(3).batches.size(), 3u);
}

TEST(ObservabilityTest, OneJsonlTraceLinePerBatch) {
  auto source = MakeSource();
  MicroBatchEngine engine(BaseOptions(), JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  auto out = std::make_unique<std::ostringstream>();
  std::ostringstream* raw = out.get();
  struct OwningSink : JsonlTraceSink {
    explicit OwningSink(std::unique_ptr<std::ostringstream> s)
        : JsonlTraceSink(s.get()), stream(std::move(s)) {}
    std::unique_ptr<std::ostringstream> stream;
  };
  engine.observability()->AddTraceSink(
      std::make_unique<OwningSink>(std::move(out)));

  const uint32_t kBatches = 5;
  engine.Run(kBatches);

  std::istringstream lines(raw->str());
  std::string line;
  uint32_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"batch_id\":" + std::to_string(count)),
              std::string::npos);
    EXPECT_NE(line.find("\"spans\":["), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, kBatches);
}

// The ISSUE acceptance bar: every batch's depth-0 spans account for >= 95%
// of its reported end-to-end latency. The engine lays them to tile latency
// exactly, so coverage is 1.0 up to integer-microsecond accounting.
TEST(ObservabilityTest, SpansCoverReportedLatency) {
  auto source = MakeSource();
  EngineOptions opts = BaseOptions();
  opts.ingest.shards = 2;  // exercise the ingest annotation spans too
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  CollectingObserver observer;
  engine.AddObserver(&observer);

  engine.Run(6);
  ASSERT_EQ(observer.traces_.size(), 6u);
  EXPECT_EQ(observer.run_batches_, 6u);
  EXPECT_TRUE(observer.run_ended_);
  for (size_t i = 0; i < observer.traces_.size(); ++i) {
    const BatchTrace& trace = observer.traces_[i];
    EXPECT_EQ(trace.batch_id, observer.reports_[i].batch_id);
    EXPECT_EQ(trace.latency, observer.reports_[i].latency);
    EXPECT_GE(trace.Coverage(), 0.95) << "batch " << trace.batch_id;
    EXPECT_LE(trace.Coverage(), 1.0 + 1e-9) << "batch " << trace.batch_id;
    ASSERT_NE(trace.FindSpan("accumulate"), nullptr);
    EXPECT_EQ(trace.FindSpan("accumulate")->duration,
              observer.reports_[i].batch_interval);
    // Sharded ingest contributes its annotation spans.
    EXPECT_NE(trace.FindSpan("seal_barrier"), nullptr);
    EXPECT_NE(trace.FindSpan("kway_merge"), nullptr);
  }
}

TEST(ObservabilityTest, IngestMetricsEmbeddedInReports) {
  auto source = MakeSource();
  EngineOptions opts = BaseOptions();
  opts.ingest.shards = 2;
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary summary = engine.Run(4);
  ASSERT_EQ(summary.batches.size(), 4u);
  for (const BatchReport& b : summary.batches) {
    EXPECT_TRUE(b.has_ingest);
    EXPECT_EQ(b.ingest.shards.size(), 2u);
    EXPECT_EQ(b.ingest.total_tuples, b.num_tuples);
  }
}

TEST(ObservabilityTest, SingleThreadedIngestHasNoEmbeddedMetrics) {
  auto source = MakeSource();
  MicroBatchEngine engine(BaseOptions(), JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary summary = engine.Run(2);
  for (const BatchReport& b : summary.batches) EXPECT_FALSE(b.has_ingest);
}

TEST(ObservabilityTest, ObsOptionsDrivePartitionMetricCollection) {
  auto source = MakeSource();
  EngineOptions opts = BaseOptions();
  opts.obs.collect_partition_metrics = true;
  opts.obs.mpi_weights.p1 = 0.7;
  // Hash partitioning of a Zipf stream leaves the blocks imbalanced, so a
  // collected BSI is provably non-zero (Prompt's plan can reach BSI == 0).
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash),
                          source.get());
  EXPECT_TRUE(engine.options().obs.collect_partition_metrics);
  EXPECT_DOUBLE_EQ(engine.options().obs.mpi_weights.p1, 0.7);

  RunSummary summary = engine.Run(2);
  for (const BatchReport& b : summary.batches) {
    EXPECT_GT(b.partition_metrics.bsi, 0.0);
  }
}

TEST(ObservabilityTest, MetricsRegistryTracksTheRun) {
  auto source = MakeSource();
  EngineOptions opts = BaseOptions();
  opts.obs.metrics_enabled = true;
  opts.ingest.shards = 2;
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  MetricsRegistry* registry = engine.observability()->registry();
  ASSERT_NE(registry, nullptr);

  RunSummary summary = engine.Run(5);
  uint64_t tuples = 0;
  for (const BatchReport& b : summary.batches) tuples += b.num_tuples;

  EXPECT_EQ(registry->GetCounter("prompt_batches_total")->value(), 5u);
  EXPECT_EQ(registry->GetCounter("prompt_tuples_total")->value(), tuples);
  // Per-shard routed-tuple counters sum to the total.
  const uint64_t sharded =
      registry->GetCounter("prompt_ingest_tuples_total", {{"shard", "0"}})
          ->value() +
      registry->GetCounter("prompt_ingest_tuples_total", {{"shard", "1"}})
          ->value();
  EXPECT_EQ(sharded, tuples);
  EXPECT_EQ(
      registry->GetHistogram("prompt_batch_latency_us")->count(), 5u);
  EXPECT_GT(
      registry->GetCounter("prompt_map_tasks_total")->value(), 0u);
}

TEST(ObservabilityTest, InitStatusSurfacesBadSinkPaths) {
  ObservabilityOptions options;
  options.trace_path = "/no/such/dir/trace.jsonl";
  Observability obs(options);
  EXPECT_FALSE(obs.init_status().ok());
  EXPECT_TRUE(obs.init_status().IsIOError());
}

TEST(ObservabilityTest, MetricsSnapshotJsonlFile) {
  const std::string path = ::testing::TempDir() + "/metrics_snapshot.jsonl";
  ObservabilityOptions options;
  options.metrics_every = 2;
  options.metrics_path = path;
  Observability obs(options);
  ASSERT_TRUE(obs.init_status().ok());
  ASSERT_TRUE(obs.metrics_enabled());

  BatchReport report;
  for (uint64_t id = 0; id < 4; ++id) {
    report.batch_id = id;
    report.num_tuples = 100;
    report.latency = 1000;
    obs.OnBatchComplete(report, BatchTrace{}, obs.AddStream({}));
  }
  obs.OnRunEnd();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  size_t lines = 0, after_batch_1 = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    if (line.find("\"after_batch\":1,") != std::string::npos) ++after_batch_1;
  }
  // Two snapshots (after batches 1 and 3), each one line per metric.
  EXPECT_GT(after_batch_1, 0u);
  EXPECT_EQ(lines % 2, 0u);
  EXPECT_GE(lines, 2 * after_batch_1);
}

TEST(ObservabilityTest, AutopsyPathWritesOneJsonlRecordPerBatch) {
  const std::string path = ::testing::TempDir() + "/autopsy.jsonl";
  ObservabilityOptions options;
  options.autopsy_path = path;
  Observability obs(options);
  ASSERT_TRUE(obs.init_status().ok());
  EXPECT_TRUE(obs.active());

  BatchReport report;
  report.batch_interval = 1000000;
  for (uint64_t id = 0; id < 3; ++id) {
    report.batch_id = id;
    report.queue_delay = id == 2 ? 400000 : 0;  // only batch 2 queues
    // The batch loop explains each report before publishing it.
    report.autopsy = ExplainBatch(report);
    obs.OnBatchComplete(report, BatchTrace{}, obs.AddStream({}));
  }
  obs.OnRunEnd();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"record\":\"autopsy\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"dominant\":\"none\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"batch_id\":2,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"dominant\":\"queueing\""), std::string::npos)
      << lines[2];
}

TEST(ObservabilityTest, TimeSeriesOptionsCreateAndFeedTheStore) {
  ObservabilityOptions options;
  options.timeseries_capacity = 4;
  Observability obs(options);
  ASSERT_NE(obs.timeseries(), nullptr);
  EXPECT_TRUE(obs.active());
  EXPECT_EQ(obs.timeseries()->capacity(), 4u);

  BatchReport report;
  for (uint64_t id = 0; id < 6; ++id) {
    report.batch_id = id;
    report.latency = static_cast<TimeMicros>(1000 * (id + 1));
    obs.OnBatchComplete(report, BatchTrace{}, obs.AddStream({}));
  }
  EXPECT_EQ(obs.timeseries()->total_observed(), 6u);
  EXPECT_EQ(obs.timeseries()->size(), 4u);  // wrapped
  EXPECT_DOUBLE_EQ(
      obs.timeseries()->Aggregate(TimeSeriesSignal::kLatencyUs).last, 6000.0);
}

TEST(ObservabilityTest, ServePortSpinsUpExporterWithImpliedSources) {
  ObservabilityOptions options;
  options.serve_port = 0;  // ephemeral; implies metrics + timeseries
  Observability obs(options);
  ASSERT_TRUE(obs.init_status().ok());
  EXPECT_TRUE(obs.metrics_enabled());
  ASSERT_NE(obs.timeseries(), nullptr);
  ASSERT_NE(obs.exporter(), nullptr);
  EXPECT_TRUE(obs.exporter()->serving());
  EXPECT_NE(obs.exporter()->port(), 0);

  std::string body, type;
  EXPECT_TRUE(obs.exporter()->RenderPath("/timeseries.json", &body, &type));
  EXPECT_NE(body.find("\"batches_seen\":0"), std::string::npos);
}

}  // namespace
}  // namespace prompt
