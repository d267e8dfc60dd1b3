// End-to-end telemetry: a sharded Zipf(z=1.0) run whose key distribution
// shifts mid-stream onto one hot key. The autopsy must label the shifted
// batches' dominant cause exactly (bucket skew under hash reduce
// allocation), the time series must cover every batch, and the embedded
// HTTP exporter must serve all of it live.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "workload/sources.h"

namespace prompt {
namespace {

constexpr uint64_t kHotKey = 0xdeadbeefcafef00dULL;

/// Zipf(z=1.0) stream that, from `shift_at` (stream time) on, redirects
/// every other tuple to one hot key — a mid-stream hot-spot the partition
/// plan of a hash baseline cannot absorb.
class HotKeyShiftSource final : public TupleSource {
 public:
  HotKeyShiftSource(double rate, TimeMicros shift_at) : shift_at_(shift_at) {
    ZipfKeyedSource::Params params;
    params.cardinality = 500;
    params.zipf = 1.0;
    params.rate = std::make_shared<ConstantRate>(rate);
    inner_ = std::make_unique<SynDSource>(std::move(params));
  }

  const char* name() const override { return "HotKeyShift"; }
  uint64_t cardinality() const override { return inner_->cardinality(); }

  bool Next(Tuple* t) override {
    if (!inner_->Next(t)) return false;
    if (t->ts >= shift_at_ && (count_++ % 2 == 0)) t->key = kHotKey;
    return true;
  }

 private:
  std::unique_ptr<SynDSource> inner_;
  TimeMicros shift_at_;
  uint64_t count_ = 0;
};

/// Collects every report the engine fans out.
class ReportCollector : public Observer {
 public:
  void OnBatchComplete(const BatchReport& report,
                       const BatchTrace& trace) override {
    (void)trace;
    reports_.push_back(report);
  }
  std::vector<BatchReport> reports_;
};

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

EngineOptions TelemetryOptions() {
  EngineOptions opts;
  opts.batch_interval = Millis(250);
  opts.ingest.shards = 2;
  opts.obs.collect_partition_metrics = true;
  // Floor the autopsy at 15% of the interval: base Zipf(1.0) skew under
  // hash allocation stays below it, the injected hot key does not.
  opts.obs.autopsy.min_excess_frac = 0.15;
  opts.obs.timeseries_capacity = 64;
  // Reduce-heavy cost model: the hot reduce bucket, not the hot Map block,
  // is what the shifted batches pay for.
  opts.cost.map_per_tuple_us = 2;
  opts.cost.reduce_per_tuple_us = 50;
  return opts;
}

TEST(TelemetryIntegrationTest, HotKeyShiftIsAutopsiedAsBucketSkew) {
  constexpr uint32_t kBatches = 8;
  constexpr uint32_t kShiftBatch = 4;
  HotKeyShiftSource source(/*rate=*/8000,
                           /*shift_at=*/kShiftBatch * Millis(250));
  MicroBatchEngine engine(TelemetryOptions(), JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash), &source);
  ReportCollector collector;
  engine.AddObserver(&collector);

  RunSummary summary = engine.Run(kBatches);
  ASSERT_EQ(collector.reports_.size(), kBatches);

  // Observers see each report with the verdict the engine explained.
  for (const BatchReport& report : collector.reports_) {
    const BatchAutopsy& a = report.autopsy;
    EXPECT_EQ(a.batch_id, report.batch_id);
    if (report.batch_id < kShiftBatch) {
      EXPECT_EQ(a.dominant, BatchCause::kNone)
          << "pre-shift batch " << report.batch_id << " blamed on "
          << BatchCauseName(a.dominant);
    } else {
      // Exact-match: the hot key lands in one hash bucket and drags the
      // reduce completion spread far past the noise floor.
      EXPECT_EQ(a.dominant, BatchCause::kBucketSkew)
          << "shifted batch " << report.batch_id << " blamed on "
          << BatchCauseName(a.dominant) << " (excess "
          << a.excess_of(a.dominant) << "us, threshold " << a.threshold
          << "us)";
      EXPECT_GT(a.excess_of(BatchCause::kBucketSkew), a.threshold);
    }
  }

  // The run summary carries the same verdicts.
  EXPECT_EQ(summary.batches.back().autopsy.batch_id, kBatches - 1);
  EXPECT_EQ(summary.batches.back().autopsy.dominant, BatchCause::kBucketSkew);
}

TEST(TelemetryIntegrationTest, TimeSeriesSeesTheShift) {
  constexpr uint32_t kBatches = 8;
  constexpr uint32_t kShiftBatch = 4;
  HotKeyShiftSource source(8000, kShiftBatch * Millis(250));
  MicroBatchEngine engine(TelemetryOptions(), JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash), &source);
  engine.Run(kBatches);

  const TimeSeriesStore* ts = engine.observability()->timeseries();
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->total_observed(), kBatches);
  const std::vector<TimeSeriesPoint> points = ts->Tail();
  ASSERT_EQ(points.size(), kBatches);
  // Bucket imbalance jumps across the shift: every shifted batch's BSI
  // exceeds every pre-shift batch's.
  double pre_max = 0, post_min = 1e18;
  for (const TimeSeriesPoint& p : points) {
    const double bsi = p.value(TimeSeriesSignal::kBucketImbalance);
    if (p.batch_id < kShiftBatch) {
      pre_max = std::max(pre_max, bsi);
    } else {
      post_min = std::min(post_min, bsi);
    }
  }
  EXPECT_GT(post_min, pre_max);
  // Windowed aggregates read coherently (max over the full window covers
  // the shifted batches).
  const WindowAggregate agg =
      ts->Aggregate(TimeSeriesSignal::kBucketImbalance, kBatches);
  EXPECT_EQ(agg.count, kBatches);
  EXPECT_GE(agg.max, post_min);
  EXPECT_GE(agg.p99, agg.p50);
}

TEST(TelemetryIntegrationTest, ExporterServesEveryBatchOfTheRun) {
  constexpr uint32_t kBatches = 6;
  HotKeyShiftSource source(8000, 2 * Millis(250));
  EngineOptions opts = TelemetryOptions();
  opts.obs.serve_port = 0;  // ephemeral
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash), &source);
  ASSERT_TRUE(engine.observability()->init_status().ok());
  const HttpExporter* exporter = engine.observability()->exporter();
  ASSERT_NE(exporter, nullptr);
  ASSERT_TRUE(exporter->serving());

  engine.Run(kBatches);

  // /timeseries.json covers every batch of the finished run.
  const std::string ts = HttpGet(exporter->port(), "/timeseries.json");
  EXPECT_NE(ts.find("200 OK"), std::string::npos);
  EXPECT_NE(ts.find("\"batches_seen\":" + std::to_string(kBatches)),
            std::string::npos);
  for (uint32_t i = 0; i < kBatches; ++i) {
    EXPECT_NE(ts.find("\"batch_id\":" + std::to_string(i)), std::string::npos)
        << "batch " << i << " missing from /timeseries.json";
  }

  // /metrics is live Prometheus exposition of the same run.
  const std::string metrics = HttpGet(exporter->port(), "/metrics");
  EXPECT_NE(metrics.find("# TYPE prompt_batches_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("prompt_batches_total " + std::to_string(kBatches)),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("prompt_batch_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace prompt
