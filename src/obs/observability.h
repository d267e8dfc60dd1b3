// Observability composite: one object owning the MetricsRegistry, the time
// series and every configured sink, which the engine hands each published
// report (with its trace when a trace sink or an external Observer consumes
// one). EngineOptions::obs configures it; components (ingest pipeline,
// executor, elastic controller) receive the registry via BindMetrics and
// record through cached handles.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/autopsy.h"
#include "obs/batch_report.h"
#include "obs/http_exporter.h"
#include "obs/metrics_registry.h"
#include "obs/observer.h"
#include "obs/sink.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace prompt {

/// \brief Observability configuration, grouped out of the flat EngineOptions.
struct ObservabilityOptions {
  /// Compute BSI/BCI/KSR/MPI per batch (costs a pass over fragments).
  bool collect_partition_metrics = false;
  MpiWeights mpi_weights;

  /// Maintain the MetricsRegistry (counters/gauges/histograms) during runs.
  bool metrics_enabled = false;
  /// Emit a metrics snapshot every N batches (0 = never). Implies
  /// metrics_enabled.
  uint32_t metrics_every = 0;
  /// Snapshot destination: a JSONL file path, or "" for human-readable text
  /// on stdout.
  std::string metrics_path;

  /// JSONL trace destination (one record per batch); "" = no file. Traces
  /// are built only for a trace sink (this file or an attached one) or an
  /// external Observer.
  std::string trace_path;

  /// Retain a ring of per-batch signal points this many batches deep
  /// (0 = no time series). Implied (at 1024) by serve_port >= 0.
  size_t timeseries_capacity = 0;
  /// Window W of the derived p50/p95/p99 aggregates.
  uint32_t timeseries_window = 32;
  /// EWMA weight of the newest batch.
  double timeseries_alpha = 0.2;

  /// JSONL destination for `record=autopsy` rows, one per published
  /// report; "" = no rows.
  std::string autopsy_path;
  /// Thresholds of the verdict the batch loop explains for every published
  /// batch (BatchReport::autopsy).
  AutopsyOptions autopsy;

  /// Serve /metrics, /timeseries.json and /healthz on 127.0.0.1:port
  /// (0 = pick a free port, see Observability::exporter()->port();
  /// -1 = no server). Implies metrics_enabled and a time series.
  int serve_port = -1;
};

/// \brief The engine's observability stack: registry, time series, sinks
/// and external observers.
class Observability final {
 public:
  explicit Observability(ObservabilityOptions options);
  ~Observability();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(Observability);

  /// Result of opening the sinks configured through paths in the options
  /// (OK when none were configured).
  const Status& init_status() const { return init_status_; }

  /// Any instrumentation consumer attached? The engine skips publishing
  /// entirely when false — the disabled path costs one branch.
  bool active() const {
    return metrics_enabled() || tracing_active() || !report_sinks_.empty() ||
           timeseries() != nullptr || autopsy_file_ != nullptr;
  }
  bool metrics_enabled() const { return registry_ != nullptr; }
  /// Does anything consume traces? The engine builds them only then.
  bool tracing_active() const {
    return !trace_sinks_.empty() || !observers_.empty();
  }

  /// Registry for component instrumentation; nullptr when metrics are
  /// disabled (callers skip on nullptr — the zero-cost contract).
  MetricsRegistry* registry() { return registry_.get(); }
  const MetricsRegistry* registry() const { return registry_.get(); }

  /// Per-batch time series; nullptr when timeseries_capacity is 0 and no
  /// server was requested.
  TimeSeriesStore* timeseries() { return streams_.front()->timeseries.get(); }
  const TimeSeriesStore* timeseries() const {
    return streams_.front()->timeseries.get();
  }

  /// Embedded telemetry server; nullptr when serve_port < 0. Started by the
  /// constructor — a bind failure lands in init_status().
  HttpExporter* exporter() { return exporter_.get(); }
  const HttpExporter* exporter() const { return exporter_.get(); }

  /// \brief One query's report stream: the metric series its reports
  /// update, the time series they feed and the columns their autopsy rows
  /// carry. Owned by the Observability that made it.
  struct Stream {
    MetricLabels labels;
    /// Its points (null when no time series is kept).
    std::unique_ptr<TimeSeriesStore> timeseries;

    // Cached hot-path handles (valid iff the registry is on).
    Counter* batches_total = nullptr;
    Counter* tuples_total = nullptr;
    HistogramMetric* latency_us = nullptr;
    HistogramMetric* queue_us = nullptr;
    HistogramMetric* partition_cost_us = nullptr;
    Gauge* w_gauge = nullptr;
    Gauge* map_tasks_gauge = nullptr;
    Gauge* reduce_tasks_gauge = nullptr;
    Gauge* slots_gauge = nullptr;  ///< labeled streams only

    // Ingest handles, registered lazily: most runs never shard the ingest
    // phase.
    Gauge* shard_imbalance_gauge = nullptr;
    Gauge* ring_occupancy_gauge = nullptr;
    HistogramMetric* merge_us = nullptr;
    HistogramMetric* seal_barrier_us = nullptr;

    // Sketch-mode handles, registered lazily on the first heavy-hitter batch.
    Gauge* head_coverage_gauge = nullptr;
    Gauge* sketch_error_gauge = nullptr;
    Gauge* promoted_keys_gauge = nullptr;

    // Recovery handles, registered lazily on the first batch that did
    // recovery work — failure-free runs never see these series.
    Counter* batches_replayed_total = nullptr;
    Counter* tasks_retried_total = nullptr;
    Counter* tasks_speculated_total = nullptr;
    Gauge* under_replicated_gauge = nullptr;
    HistogramMetric* recovery_us = nullptr;
  };
  /// The stream for reports labeled `labels`. Empty labels give the
  /// unlabeled stream: the registry's plain series (registered on its first
  /// request) and the default time series. Labeled streams (a tenant's
  /// {{"tenant", id}}) update the same series under their labels plus
  /// `prompt_tenant_slots`, feed a time series of their own (served at
  /// `/timeseries.json?tenant=<the first label's value>`) and tag their
  /// autopsy rows with their labels.
  Stream* AddStream(const MetricLabels& labels);

  void AddTraceSink(std::unique_ptr<TraceSink> sink);
  /// Per-batch report rows (ReportRecord) flow into these.
  void AddReportSink(std::unique_ptr<RecordSink> sink);
  /// Fan-out to an external observer (not owned; must outlive this object).
  void AddObserver(Observer* observer);

  const ObservabilityOptions& options() const { return options_; }

  /// Writes the current registry snapshot to the configured metrics
  /// destination (no-op when metrics are disabled).
  void EmitMetricsSnapshot(uint64_t after_batch);

  /// A run of `num_batches` heartbeats starts (told to every observer).
  void OnRunStart(uint32_t num_batches);
  /// Publishes one report of `stream`: its series, its time series, its
  /// autopsy row (report.autopsy), then every sink and observer. `trace` is
  /// the report's trace when tracing_active(), else empty. A heartbeat's
  /// reports come stream by stream in the order the streams were added; the
  /// `metrics_every` snapshot follows the last stream's report.
  void OnBatchComplete(const BatchReport& report, const BatchTrace& trace,
                       Stream* stream);
  /// The run ends: observers are told and every sink is flushed.
  void OnRunEnd();

 private:
  /// Registers `stream`'s eager series under its labels (no-op without a
  /// registry or once registered).
  void BindStream(Stream* stream);

  ObservabilityOptions options_;
  Status init_status_;

  std::unique_ptr<MetricsRegistry> registry_;
  std::vector<std::unique_ptr<TraceSink>> trace_sinks_;
  std::vector<std::unique_ptr<RecordSink>> report_sinks_;
  std::vector<Observer*> observers_;

  // Snapshot destination (JSONL file) when metrics_path is set.
  std::unique_ptr<FileRecordSink> metrics_file_;
  // Autopsy destination (JSONL file) when autopsy_path is set.
  std::unique_ptr<FileRecordSink> autopsy_file_;

  /// streams_[0] is the unlabeled stream; labeled ones follow in the order
  /// they were added.
  std::vector<std::unique_ptr<Stream>> streams_;

  // Declared last: destroyed first, so the accept thread joins before the
  // registry and time series it scrapes go away.
  std::unique_ptr<HttpExporter> exporter_;
};


/// \brief Lowers a BatchReport to the canonical 18-column row every writer
/// (CSV export, JSONL, promptctl table) shares. Column names and order are
/// the report_io CSV schema — code that round-trips CSVs depends on them.
Record ReportRecord(const BatchReport& report);

}  // namespace prompt
