#include "obs/observability.h"

namespace prompt {

namespace {

TimeSeriesOptions TimeSeriesOf(const ObservabilityOptions& options) {
  TimeSeriesOptions ts;
  ts.capacity = options.timeseries_capacity;
  ts.window = options.timeseries_window;
  ts.ewma_alpha = options.timeseries_alpha;
  return ts;
}

}  // namespace

Observability::Observability(ObservabilityOptions options)
    : options_(std::move(options)) {
  if (options_.metrics_every > 0) options_.metrics_enabled = true;
  if (options_.serve_port >= 0) {
    // A live server without sources would serve nothing but /healthz.
    options_.metrics_enabled = true;
    if (options_.timeseries_capacity == 0) options_.timeseries_capacity = 1024;
  }

  if (options_.metrics_enabled) registry_ = std::make_unique<MetricsRegistry>();
  // The unlabeled stream's series are registered when it is first asked
  // for, so a run that publishes only labeled streams shows none of them.
  streams_.push_back(std::make_unique<Stream>());

  if (!options_.trace_path.empty()) {
    auto sink = FileTraceSink::Open(options_.trace_path);
    if (sink.ok()) {
      trace_sinks_.push_back(std::move(*sink));
    } else {
      init_status_ = sink.status();
    }
  }
  if (!options_.metrics_path.empty()) {
    auto sink =
        FileRecordSink::Open(options_.metrics_path, FileRecordSink::Format::kJsonl);
    if (sink.ok()) {
      metrics_file_ = std::move(*sink);
    } else if (init_status_.ok()) {
      init_status_ = sink.status();
    }
  }
  if (!options_.autopsy_path.empty()) {
    auto sink = FileRecordSink::Open(options_.autopsy_path,
                                     FileRecordSink::Format::kJsonl);
    if (sink.ok()) {
      autopsy_file_ = std::move(*sink);
    } else if (init_status_.ok()) {
      init_status_ = sink.status();
    }
  }

  if (options_.timeseries_capacity > 0) {
    streams_.front()->timeseries =
        std::make_unique<TimeSeriesStore>(TimeSeriesOf(options_));
  }
  if (options_.serve_port >= 0) {
    exporter_ =
        std::make_unique<HttpExporter>(registry_.get(), timeseries());
    Status started =
        exporter_->Start(static_cast<uint16_t>(options_.serve_port));
    if (!started.ok()) {
      exporter_.reset();
      if (init_status_.ok()) init_status_ = std::move(started);
    }
  }
}

Observability::~Observability() {
  if (exporter_ != nullptr) exporter_->Stop();
  for (auto& sink : trace_sinks_) sink->Flush();
  for (auto& sink : report_sinks_) sink->Flush();
  if (metrics_file_ != nullptr) metrics_file_->Flush();
  if (autopsy_file_ != nullptr) autopsy_file_->Flush();
}

void Observability::BindStream(Stream* stream) {
  if (registry_ == nullptr || stream->batches_total != nullptr) return;
  const MetricLabels& labels = stream->labels;
  stream->batches_total = registry_->GetCounter("prompt_batches_total", labels);
  stream->tuples_total = registry_->GetCounter("prompt_tuples_total", labels);
  stream->latency_us =
      registry_->GetHistogram("prompt_batch_latency_us", labels);
  stream->queue_us = registry_->GetHistogram("prompt_batch_queue_us", labels);
  stream->partition_cost_us =
      registry_->GetHistogram("prompt_partition_cost_us", labels);
  stream->w_gauge = registry_->GetGauge("prompt_batch_w", labels);
  stream->map_tasks_gauge = registry_->GetGauge("prompt_map_tasks", labels);
  stream->reduce_tasks_gauge =
      registry_->GetGauge("prompt_reduce_tasks", labels);
  if (!labels.empty()) {
    stream->slots_gauge = registry_->GetGauge("prompt_tenant_slots", labels);
  }
}

Observability::Stream* Observability::AddStream(const MetricLabels& labels) {
  if (labels.empty()) {
    BindStream(streams_.front().get());
    return streams_.front().get();
  }
  auto stream = std::make_unique<Stream>();
  stream->labels = labels;
  BindStream(stream.get());
  if (options_.timeseries_capacity > 0) {
    stream->timeseries =
        std::make_unique<TimeSeriesStore>(TimeSeriesOf(options_));
    if (exporter_ != nullptr) {
      exporter_->AddTimeSeries(labels.front().second, stream->timeseries.get());
    }
  }
  streams_.push_back(std::move(stream));
  return streams_.back().get();
}

void Observability::AddTraceSink(std::unique_ptr<TraceSink> sink) {
  trace_sinks_.push_back(std::move(sink));
}

void Observability::AddReportSink(std::unique_ptr<RecordSink> sink) {
  report_sinks_.push_back(std::move(sink));
}

void Observability::AddObserver(Observer* observer) {
  PROMPT_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Observability::OnRunStart(uint32_t num_batches) {
  for (Observer* o : observers_) o->OnRunStart(num_batches);
}

void Observability::OnBatchComplete(const BatchReport& report,
                                    const BatchTrace& trace, Stream* stream) {
  if (registry_ != nullptr) {
    Stream& s = *stream;
    const MetricLabels& labels = s.labels;
    s.batches_total->Increment();
    s.tuples_total->Increment(report.num_tuples);
    s.latency_us->Observe(static_cast<double>(report.latency));
    s.queue_us->Observe(static_cast<double>(report.queue_delay));
    s.partition_cost_us->Observe(static_cast<double>(report.partition_cost));
    s.w_gauge->Set(report.w);
    s.map_tasks_gauge->Set(report.map_tasks);
    s.reduce_tasks_gauge->Set(report.reduce_tasks);
    if (s.slots_gauge != nullptr) s.slots_gauge->Set(report.slots);
    if (report.has_ingest) {
      if (s.shard_imbalance_gauge == nullptr) {
        s.shard_imbalance_gauge =
            registry_->GetGauge("prompt_ingest_shard_imbalance", labels);
        s.ring_occupancy_gauge =
            registry_->GetGauge("prompt_ingest_ring_occupancy_frac", labels);
        s.merge_us = registry_->GetHistogram("prompt_ingest_merge_us", labels);
        s.seal_barrier_us =
            registry_->GetHistogram("prompt_ingest_seal_barrier_us", labels);
      }
      s.shard_imbalance_gauge->Set(ShardLoadImbalance(report.ingest));
      s.ring_occupancy_gauge->Set(MaxRingOccupancyFrac(report.ingest));
      s.merge_us->Observe(static_cast<double>(report.ingest.merge_latency));
      s.seal_barrier_us->Observe(
          static_cast<double>(report.ingest.seal_barrier_latency));
    }
    if (report.sketch.sketch_mode) {
      if (s.head_coverage_gauge == nullptr) {
        s.head_coverage_gauge =
            registry_->GetGauge("prompt_sketch_head_coverage", labels);
        s.sketch_error_gauge =
            registry_->GetGauge("prompt_sketch_error_frac", labels);
        s.promoted_keys_gauge =
            registry_->GetGauge("prompt_sketch_promoted_keys", labels);
      }
      s.head_coverage_gauge->Set(report.sketch.head_coverage());
      s.sketch_error_gauge->Set(report.sketch.error_frac);
      s.promoted_keys_gauge->Set(
          static_cast<double>(report.sketch.promoted_keys));
    }
    const bool did_recovery = report.batches_replayed > 0 ||
                              report.tasks_retried > 0 ||
                              report.tasks_speculated > 0 ||
                              report.under_replicated_batches > 0 ||
                              report.recovery_time > 0;
    if (did_recovery) {
      if (s.batches_replayed_total == nullptr) {
        s.batches_replayed_total =
            registry_->GetCounter("prompt_batches_replayed_total", labels);
        s.tasks_retried_total =
            registry_->GetCounter("prompt_tasks_retried_total", labels);
        s.tasks_speculated_total =
            registry_->GetCounter("prompt_tasks_speculated_total", labels);
        s.under_replicated_gauge =
            registry_->GetGauge("prompt_under_replicated_batches", labels);
        s.recovery_us = registry_->GetHistogram("prompt_recovery_us", labels);
      }
      s.batches_replayed_total->Increment(report.batches_replayed);
      s.tasks_retried_total->Increment(report.tasks_retried);
      s.tasks_speculated_total->Increment(report.tasks_speculated);
      s.under_replicated_gauge->Set(report.under_replicated_batches);
      s.recovery_us->Observe(static_cast<double>(report.recovery_time));
    }
  }

  if (stream->timeseries != nullptr) stream->timeseries->Observe(report);
  if (autopsy_file_ != nullptr) {
    Record row = AutopsyRecord(report.autopsy);
    for (const auto& [key, value] : stream->labels) row.Set(key, value);
    autopsy_file_->Write(row);
  }

  if (!report_sinks_.empty()) {
    const Record row = ReportRecord(report);
    for (auto& sink : report_sinks_) sink->Write(row);
  }
  for (auto& sink : trace_sinks_) sink->Write(trace);
  for (Observer* o : observers_) o->OnBatchComplete(report, trace);

  if (options_.metrics_every > 0 && stream == streams_.back().get() &&
      (report.batch_id + 1) % options_.metrics_every == 0) {
    EmitMetricsSnapshot(report.batch_id);
  }
}

void Observability::OnRunEnd() {
  for (Observer* o : observers_) o->OnRunEnd();
  for (auto& sink : trace_sinks_) sink->Flush();
  for (auto& sink : report_sinks_) sink->Flush();
  if (metrics_file_ != nullptr) metrics_file_->Flush();
  if (autopsy_file_ != nullptr) autopsy_file_->Flush();
}

void Observability::EmitMetricsSnapshot(uint64_t after_batch) {
  if (registry_ == nullptr) return;
  const std::vector<MetricSample> snapshot = registry_->Snapshot();
  if (metrics_file_ != nullptr) {
    for (const Record& r : SnapshotRecords(snapshot)) {
      Record row;
      row.Set("after_batch", after_batch);
      for (const RecordField& f : r.fields()) row.Append(f);
      metrics_file_->Write(row);
    }
    metrics_file_->Flush();
  } else {
    std::cout << "# metrics after batch " << after_batch << "\n";
    WriteSnapshotText(snapshot, &std::cout);
  }
}

Record ReportRecord(const BatchReport& report) {
  Record r;
  r.Set("batch_id", report.batch_id)
      .Set("interval_us", static_cast<int64_t>(report.batch_interval))
      .Set("tuples", report.num_tuples)
      .Set("keys", report.num_keys)
      .Set("map_tasks", report.map_tasks)
      .Set("reduce_tasks", report.reduce_tasks)
      .Set("partition_cost_us", static_cast<int64_t>(report.partition_cost))
      .Set("map_makespan_us", static_cast<int64_t>(report.map_makespan))
      .Set("reduce_makespan_us", static_cast<int64_t>(report.reduce_makespan))
      .Set("processing_us", static_cast<int64_t>(report.processing_time))
      .Set("queue_us", static_cast<int64_t>(report.queue_delay))
      .Set("latency_us", static_cast<int64_t>(report.latency))
      .Set("w", report.w)
      .Set("bsi", report.partition_metrics.bsi)
      .Set("bci", report.partition_metrics.bci)
      .Set("ksr", report.partition_metrics.ksr)
      .Set("mpi", report.partition_metrics.mpi)
      .Set("reduce_bucket_bsi", report.reduce_bucket_bsi);
  return r;
}

}  // namespace prompt
