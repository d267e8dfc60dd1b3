#include "tenant/multi_tenant_engine.h"

#include <algorithm>
#include <string_view>

#include "engine/manifest.h"

namespace prompt {

std::string FormatValue(const TenantQuerySpec& spec) {
  return TenantSpecLine(spec);
}

/// Tenant lines parse as one query file, so cross-tenant checks (one shared
/// SLIDE) hold exactly as they did for the recorded run.
Status ParseLines(const std::vector<std::string>& lines,
                  std::vector<TenantQuerySpec>* specs) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  PROMPT_ASSIGN_OR_RETURN(*specs, ParseQueryFile(text));
  if (specs->size() == lines.size()) return Status::OK();
  return Status::Invalid("a tenant line holds no tenant");
}

namespace {

/// The two-tenant list (engine/manifest.h), in every multi-tenant
/// manifest's byte order.
template <typename Run>
void MultiFields(ManifestVisitor& v, Run& run) {
  auto& o = run.options;
  v.Const("format", kJournalFormat);
  v.Const("mode", "multi");
  v("batch_interval", o.batch_interval, AtLeast(1));
  v("total_slots", o.total_slots, AtLeast(1));
  v("map_tasks", o.map_tasks, AtLeast(1));
  v("reduce_tasks", o.reduce_tasks, AtLeast(1));
  v("exec_mode", o.mode);
  v("use_prompt_reduce", o.use_prompt_reduce);
  v("early_release_frac", o.early_release_frac);
  v("unstable_queue_intervals", o.unstable_queue_intervals);
  CostFields(v, o.cost);
  v("adapt.candidates", o.adapt_base.candidates);
  AdaptThresholdFields(v, o.adapt_base);
  PartitionerConfigFields(v, o.adapt_base.config);
  ObsFields(v, o.obs);
  StoreFields(v, o.store);
  IngestFields(v, o.ingest);
  v.Lines("tenant", run.specs);
}

}  // namespace

JournalManifest WriteMultiManifest(const MultiRunManifest& run) {
  JournalManifest manifest;
  ManifestVisitor writer(&manifest);
  MultiFields(writer, run);
  return manifest;
}

Result<MultiRunManifest> ReadMultiManifest(const JournalManifest& manifest,
                                           const std::string& store_dir) {
  MultiRunManifest run;
  ManifestVisitor reader(manifest, store_dir);
  MultiFields(reader, run);
  PROMPT_RETURN_NOT_OK(reader.Finish("multi-tenant"));
  return run;
}

Result<std::unique_ptr<MultiTenantEngine>> MultiTenantEngine::Create(
    MultiTenantEngineOptions options, std::vector<TenantQuerySpec> specs,
    TupleSource* source) {
  if (source == nullptr) return Status::Invalid("source is null");
  if (specs.empty()) return Status::Invalid("no tenant specs");
  if (options.batch_interval <= 0) {
    return Status::Invalid("batch_interval must be positive");
  }
  for (const TenantQuerySpec& spec : specs) {
    if (spec.adaptive) {
      // The adaptive calm test reads block-load and split-key signals, so
      // the partition-metrics pass must run (same rule as the single-query
      // entry point).
      options.obs.collect_partition_metrics = true;
      break;
    }
  }

  EngineSetup setup;
  if (options.journal.enabled()) {
    setup.manifest = WriteMultiManifest({options, specs});
  }
  // Every field keeps its name on the loop's options but these two.
  EngineOptions& o = setup.options;
  o.batch_interval = options.batch_interval;
  o.cores = options.total_slots;
  o.map_tasks = options.map_tasks;
  o.reduce_tasks = options.reduce_tasks;
  o.cost = options.cost;
  o.mode = options.mode;
  o.use_prompt_reduce = options.use_prompt_reduce;
  o.early_release_frac = options.early_release_frac;
  o.unstable_queue_intervals = options.unstable_queue_intervals;
  o.ingest = options.ingest;
  o.obs = options.obs;
  o.adapt = options.adapt_base;
  o.store = options.store;
  o.journal = options.journal;
  for (TenantQuerySpec& spec : specs) {
    TenantSetup tenant;
    tenant.options = QueryOptionsFrom(o);
    // The ladder's thresholds and partitioner config are shared; whether a
    // tenant adapts, its depth and its rungs come from its spec.
    AdaptiveOptions& adapt = tenant.options.adapt;
    adapt.enabled = spec.adaptive;
    adapt.d = spec.adapt_d;
    if (!spec.adapt_candidates.empty()) {
      adapt.candidates = spec.adapt_candidates;
    }
    tenant.job = spec.query.job;
    tenant.job.window_batches = spec.query.window_batches();
    tenant.partitioner = CreatePartitioner(spec.technique, adapt.config);
    tenant.filter = spec.filter;
    tenant.weight = spec.weight;
    tenant.labels = {{"tenant", spec.id}};
    tenant.id = std::move(spec.id);
    setup.tenants.push_back(std::move(tenant));
  }
  auto engine = std::make_unique<MicroBatchEngine>(std::move(setup), source);
  PROMPT_RETURN_NOT_OK(engine->init_status());
  return std::unique_ptr<MultiTenantEngine>(
      new MultiTenantEngine(std::move(options), std::move(engine)));
}

MultiTenantRunSummary MultiTenantEngine::Run(uint32_t num_batches) {
  std::vector<RunSummary> summaries = engine_->RunTenants(num_batches);
  MultiTenantRunSummary run;
  run.tenants.resize(summaries.size());
  for (size_t t = 0; t < summaries.size(); ++t) {
    TenantRunResult& result = run.tenants[t];
    result.id = id(t);
    result.causes.reserve(summaries[t].batches.size());
    for (const BatchReport& report : summaries[t].batches) {
      result.slots_granted += report.slots;
      const BatchCause cause = report.autopsy.dominant;
      result.causes.push_back(cause);
      ++result.cause_counts[static_cast<size_t>(cause)];
    }
    result.summary = std::move(summaries[t]);
  }
  return run;
}

}  // namespace prompt
