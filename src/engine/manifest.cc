#include "engine/manifest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace prompt {

namespace {

constexpr char kQueryKey[] = "query";

/// The single-tenant list, in every single-tenant manifest's byte order.
template <typename Run>
void SingleFields(ManifestVisitor& v, Run& run) {
  auto& o = run.options;
  v.Const("format", kJournalFormat);
  v.Const("mode", "single");
  v("batch_interval", o.batch_interval, AtLeast(1));
  v("window_batches", run.job.window_batches);
  if (v.Optional(!o.journal.query.empty())) v(kQueryKey, o.journal.query);
  v("technique", run.technique);
  v("exec_mode", o.mode);
  v("map_tasks", o.map_tasks, AtLeast(1));
  v("reduce_tasks", o.reduce_tasks, AtLeast(1));
  v("cores", o.cores, AtLeast(1));
  v("cores_track_tasks", o.cores_track_tasks);
  v("early_release_frac", o.early_release_frac);
  v("use_prompt_reduce", o.use_prompt_reduce);
  v("unstable_queue_intervals", o.unstable_queue_intervals);
  CostFields(v, o.cost);
  auto& e = o.elasticity;
  v("elasticity_enabled", o.elasticity_enabled);
  v("elasticity.threshold", e.threshold);
  v("elasticity.step", e.step);
  v("elasticity.d", e.d);
  // Task counts are clamped into [min, max], and a task count must be >= 1.
  v("elasticity.min_map_tasks", e.min_map_tasks, AtLeast(1));
  v("elasticity.min_reduce_tasks", e.min_reduce_tasks, AtLeast(1));
  v("elasticity.max_map_tasks", e.max_map_tasks, AtLeast(e.min_map_tasks));
  v("elasticity.max_reduce_tasks", e.max_reduce_tasks,
    AtLeast(e.min_reduce_tasks));
  // The trend history holds lookback + 1 points.
  v("elasticity.trend_lookback", e.trend_lookback, Range{0, 1e6});
  auto& a = o.adapt;
  v("adapt.enabled", a.enabled);
  v("adapt.d", a.d, AtLeast(1));
  AdaptThresholdFields(v, a);
  v("adapt.candidates", a.candidates);
  PartitionerConfigFields(v, a.config);
  ObsFields(v, o.obs);
  if (v.Optional(o.faults.enabled())) {
    v("faults", o.faults);  // first: reading a spec resets the knobs below
    v("faults.max_task_retries", o.faults.max_task_retries);
    v("faults.retry_backoff", o.faults.retry_backoff);
    v("faults.speculation_enabled", o.faults.speculation_enabled);
    v("faults.speculation_multiplier", o.faults.speculation_multiplier);
  }
  v("replicate_input", o.replicate_input);
  v("cluster_enabled", o.cluster_enabled);
  v("cluster.nodes", o.cluster.nodes, AtLeast(1));
  v("cluster.cores_per_node", o.cluster.cores_per_node, AtLeast(1));
  v("cluster.replication_factor", o.cluster.replication_factor, AtLeast(1));
  v("cluster.remote_read_penalty", o.cluster.remote_read_penalty);
  StoreFields(v, o.store);
  auto& r = o.batch_resizer;
  v("batch_resizing_enabled", o.batch_resizing_enabled);
  v("resizer.min_interval", r.min_interval, AtLeast(1));
  v("resizer.max_interval", r.max_interval, AtLeast(r.min_interval));
  v("resizer.target_ratio", r.target_ratio,
    Range{std::numeric_limits<double>::denorm_min(), 1});
  v("resizer.lookback", r.lookback);
  v("resizer.gain", r.gain);
  IngestFields(v, o.ingest);
}

}  // namespace

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
Status ParseValue(std::string_view text, double* out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return Known(ec == std::errc() && end == text.data() + text.size() &&
                   std::isfinite(*out),
               "a finite number", text);
}

std::string FormatValue(const std::vector<PartitionerType>& value) {
  std::string csv;
  for (PartitionerType t : value) {
    csv += (csv.empty() ? "" : ",") + std::string(PartitionerTypeName(t));
  }
  return csv;
}
Status ParseValue(std::string_view text, std::vector<PartitionerType>* out) {
  out->clear();
  std::istringstream in{std::string(text)};
  for (std::string name; std::getline(in, name, ',');) {
    PROMPT_ASSIGN_OR_RETURN(out->emplace_back(), PartitionerTypeFromName(name));
  }
  return Known(!out->empty(), "a technique list", text);
}

std::vector<std::string> ManifestVisitor::Take(std::string_view key,
                                              bool repeatable) {
  std::vector<std::string> texts;
  const auto& entries = in_->entries();
  for (size_t i = 0; status_.ok() && i < entries.size(); ++i) {
    if (entries[i].first != key) continue;
    texts.push_back(entries[i].second);
    used_[i] = true;
  }
  if (texts.size() > 1 && !repeatable) {
    Check(key, Status::Invalid("the key is repeated"));
  }
  return status_.ok() ? texts : std::vector<std::string>{};
}

bool ManifestVisitor::Check(std::string_view key, const Status& st) {
  if (!st.ok() && status_.ok()) {
    status_ = Status::Invalid("manifest key '" + std::string(key) +
                              "': " + st.message());
  }
  return st.ok() && status_.ok();
}

Status ManifestVisitor::Finish(const char* schema) const {
  PROMPT_RETURN_NOT_OK(status_);
  const size_t i = std::find(used_.begin(), used_.end(), false) - used_.begin();
  if (i == used_.size()) return Status::OK();
  return Status::Invalid("manifest key '" + in_->entries()[i].first +
                         "' is not part of the " + schema + " schema");
}

JournalManifest WriteSingleManifest(const SingleRunManifest& run) {
  JournalManifest manifest;
  ManifestVisitor writer(&manifest);
  SingleFields(writer, run);
  return manifest;
}

Result<SingleRunManifest> ReadSingleManifest(const JournalManifest& manifest,
                                             const std::string& store_dir,
                                             QueryCompiler compile_query) {
  SingleRunManifest run;
  ManifestVisitor reader(manifest, store_dir);
  SingleFields(reader, run);
  if (const std::string& query = run.options.journal.query; !query.empty()) {
    Result<JobSpec> job = compile_query(query);
    if (reader.Check(kQueryKey, job.status())) {  // keeps the recorded window
      run.job.map = job->map;
      run.job.reduce = job->reduce;
    }
  }
  PROMPT_RETURN_NOT_OK(reader.Finish("single-tenant"));
  return run;
}

}  // namespace prompt
