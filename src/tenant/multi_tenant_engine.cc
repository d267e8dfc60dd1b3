#include "tenant/multi_tenant_engine.h"

#include <algorithm>
#include <string_view>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/manifest.h"
#include "engine/serde.h"
#include "stats/metrics.h"

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

/// The per-query slice of the shared options, specialized by one spec.
QueryContextOptions ContextOptionsFrom(const MultiTenantEngineOptions& options,
                                       const TenantQuerySpec& spec) {
  QueryContextOptions qc;
  qc.map_tasks = options.map_tasks;
  qc.reduce_tasks = options.reduce_tasks;
  qc.cost = options.cost;
  qc.mode = options.mode;
  qc.use_prompt_reduce = options.use_prompt_reduce;
  // Elasticity and batch resizing stay off: the slot pool is the scheduler's
  // to divide, and the interval is the shared heartbeat.
  if (spec.adaptive) {
    qc.adapt = options.adapt_base;
    qc.adapt.enabled = true;
    qc.adapt.d = spec.adapt_d;
    if (!spec.adapt_candidates.empty()) {
      qc.adapt.candidates = spec.adapt_candidates;
    }
  } else {
    qc.adapt.enabled = false;
  }
  return qc;
}

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

MultiTenantEngine::MultiTenantEngine(MultiTenantEngineOptions options,
                                     TupleSource* source)
    : options_(std::move(options)), source_(source) {}

MultiTenantEngine::~MultiTenantEngine() = default;

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
      // the partition-metrics pass must run (same rule as the single-tenant
      // engine constructor).
      options.obs.collect_partition_metrics = true;
      break;
    }
  }

  auto engine = std::unique_ptr<MultiTenantEngine>(
      new MultiTenantEngine(std::move(options), source));
  const MultiTenantEngineOptions& opts = engine->options_;
  // Built before the specs are moved into tenants_; opened after recovery so
  // a journal on a failing store directory never leaves stray files behind.
  JournalManifest manifest;
  if (opts.journal.enabled()) manifest = WriteMultiManifest({opts, specs});

  engine->obs_ = std::make_unique<Observability>(opts.obs);
  if (!engine->obs_->init_status().ok()) {
    PROMPT_LOG(kWarn) << "observability sink setup failed: "
                      << engine->obs_->init_status().ToString();
  }
  engine->scheduler_ = std::make_unique<TenantScheduler>(
      TenantSchedulerOptions{opts.total_slots});

  // Per-tenant time-series geometry mirrors what Observability derives for
  // its (shared) default store.
  TimeSeriesOptions ts;
  ts.capacity = opts.obs.timeseries_capacity;
  if (opts.obs.serve_port >= 0 && ts.capacity == 0) ts.capacity = 1024;
  ts.window = opts.obs.timeseries_window;
  ts.ewma_alpha = opts.obs.timeseries_alpha;

  for (TenantQuerySpec& spec : specs) {
    PROMPT_RETURN_NOT_OK(
        engine->scheduler_->AddTenant(spec.id, spec.weight).status());

    Tenant tenant;
    JobSpec job = spec.query.job;
    job.window_batches = spec.query.window_batches();
    tenant.ctx = std::make_unique<QueryContext>(
        spec.id, ContextOptionsFrom(opts, spec), std::move(job),
        CreatePartitioner(spec.technique, opts.adapt_base.config),
        engine->obs_->registry(), MetricLabels{{"tenant", spec.id}});
    if (ts.capacity > 0) {
      tenant.ctx->timeseries = std::make_unique<TimeSeriesStore>(ts);
      if (engine->obs_->exporter() != nullptr) {
        engine->obs_->exporter()->AddTimeSeries(spec.id,
                                                tenant.ctx->timeseries.get());
      }
    }
    if (MetricsRegistry* registry = engine->obs_->registry()) {
      const MetricLabels labels{{"tenant", spec.id}};
      tenant.batches_total = registry->GetCounter("prompt_batches_total", labels);
      tenant.tuples_total = registry->GetCounter("prompt_tuples_total", labels);
      tenant.latency_us =
          registry->GetHistogram("prompt_batch_latency_us", labels);
      tenant.slots_gauge = registry->GetGauge("prompt_tenant_slots", labels);
      tenant.w_gauge = registry->GetGauge("prompt_batch_w", labels);
    }
    tenant.spec = std::move(spec);
    engine->tenants_.push_back(std::move(tenant));
  }

  // Sketch mode needs the shared pipeline even at one shard — only the
  // pipeline swaps in the sketch accumulator kind.
  if (opts.ingest.shards > 1 ||
      opts.ingest.key_mode == KeyMode::kSketch) {
    engine->ingest_ = std::make_unique<ParallelIngestPipeline>(opts.ingest);
    engine->ingest_->BindMetrics(engine->obs_->registry());
  }

  // Created before recovery, which re-executes the stored batches on it.
  if (opts.mode == ExecutionMode::kReal) {
    engine->pool_ = std::make_unique<ThreadPool>(opts.total_slots);
  }

  if (opts.store.enabled()) {
    // One shared segment log; tenant index = owner namespace. Recovery
    // replays each tenant's surviving batches into its own window, exactly
    // like the single-tenant path.
    PROMPT_ASSIGN_OR_RETURN(engine->durable_,
                            DurableBlockStore::Open(opts.store));
    engine->durable_->BindMetrics(engine->obs_->registry());
    DurableRecovery& rec = engine->durable_recovery_;
    rec.torn_records = engine->durable_->recovery().torn_records;
    rec.data_loss = rec.torn_records > 0;
    uint64_t max_recovered = 0;
    bool any = false;
    for (size_t ti = 0; ti < engine->tenants_.size(); ++ti) {
      QueryContext& ctx = *engine->tenants_[ti].ctx;
      for (uint64_t id :
           engine->durable_->LiveBatches(static_cast<uint32_t>(ti))) {
        Result<std::string> bytes =
            engine->durable_->Get(static_cast<uint32_t>(ti), id);
        Result<PartitionedBatch> decoded =
            bytes.ok() ? DecodeBatch(*bytes)
                       : Result<PartitionedBatch>(bytes.status());
        if (!decoded.ok()) {
          PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                            << ": cannot recover batch " << id << ": "
                            << decoded.status().ToString();
          rec.data_loss = true;
          continue;
        }
        BatchExecution exec = engine->tenants_[ti].ctx->executor->Execute(
            *decoded, ctx.reduce_tasks,
            std::max<uint32_t>(1, opts.total_slots), engine->pool_.get());
        ctx.window->AddBatch(std::move(exec.output));
        ctx.next_batch_id = std::max(ctx.next_batch_id, id + 1);
        max_recovered = std::max(max_recovered, id);
        any = true;
        ++rec.batches_recovered;
      }
    }
    if (any) {
      // All tenants share the heartbeat clock: resume it past the newest
      // recovered batch anywhere in the log.
      engine->next_batch_start_ =
          static_cast<TimeMicros>(max_recovered + 1) * opts.batch_interval;
      for (Tenant& tenant : engine->tenants_) {
        tenant.ctx->next_batch_id = max_recovered + 1;
      }
    }
  }

  if (opts.journal.enabled()) {
    // Recording was explicitly requested; running unrecorded would break the
    // operator's replay guarantee silently — Create fails loudly instead.
    PROMPT_ASSIGN_OR_RETURN(engine->journal_,
                            JournalWriter::Open(opts.journal, manifest));
  }
  return engine;
}

const std::string& MultiTenantEngine::id(size_t tenant) const {
  return tenants_[tenant].spec.id;
}

const QueryContext& MultiTenantEngine::context(size_t tenant) const {
  return *tenants_[tenant].ctx;
}

const WindowState& MultiTenantEngine::window(size_t tenant) const {
  return *tenants_[tenant].ctx->window;
}

BatchReport MultiTenantEngine::ProcessTenantBatch(Tenant* tenant,
                                                  PartitionedBatch batch,
                                                  TimeMicros interval,
                                                  uint32_t slots) {
  QueryContext& ctx = *tenant->ctx;
  BatchReport report;
  report.batch_id = batch.batch_id;
  report.batch_interval = interval;
  report.num_tuples = batch.num_tuples;
  report.num_keys = batch.num_keys;
  report.map_tasks = static_cast<uint32_t>(batch.blocks.size());
  report.reduce_tasks = ctx.reduce_tasks;
  report.partition_cost = batch.partition_cost;
  report.sketch = batch.sketch;
  ctx.MarkTechnique(&report);

  // Early Batch Release (§4.2): same slack rule as the single-tenant engine.
  const TimeMicros slack = static_cast<TimeMicros>(
      options_.early_release_frac * static_cast<double>(interval));
  const TimeMicros scaled_cost = static_cast<TimeMicros>(
      options_.cost.partition_cost_scale *
      static_cast<double>(batch.partition_cost));
  report.partition_overflow = std::max<TimeMicros>(0, scaled_cost - slack);

  if (options_.obs.collect_partition_metrics) {
    report.partition_metrics =
        ComputeBlockMetrics(batch, options_.obs.mpi_weights);
  }

  // Both stages run on the tenant's granted slots — its weighted-fair share
  // of the pool this heartbeat, never the whole cluster.
  const uint32_t cores = std::max<uint32_t>(1, slots);
  BatchExecution exec =
      ctx.executor->Execute(batch, ctx.reduce_tasks, cores, pool_.get());

  report.map_makespan = exec.map_makespan;
  report.reduce_makespan = exec.reduce_makespan;
  report.processing_time =
      report.partition_overflow + exec.map_makespan + exec.reduce_makespan;
  report.w = static_cast<double>(report.processing_time) /
             static_cast<double>(interval);
  report.reduce_bucket_bsi = BucketSizeImbalance(exec.bucket_tuples);

  if (!exec.reduce_completions.empty()) {
    double sum = 0, lo = 1e300, hi = 0;
    for (TimeMicros c : exec.reduce_completions) {
      double ms = static_cast<double>(c) / 1000.0;
      sum += ms;
      lo = std::min(lo, ms);
      hi = std::max(hi, ms);
    }
    report.reduce_completion_mean_ms =
        sum / static_cast<double>(exec.reduce_completions.size());
    report.reduce_completion_min_ms = lo;
    report.reduce_completion_max_ms = hi;
  }

  // The fingerprint hashes the reduce output before the window consumes it;
  // computed only when recording (the hash walk is not free).
  if (journal_ != nullptr) {
    report.output_hash = HashBatchOutput(exec.output);
  }
  ctx.window->AddBatch(std::move(exec.output));
  return report;
}

MultiTenantRunSummary MultiTenantEngine::Run(uint32_t num_batches) {
  MultiTenantRunSummary run;
  run.tenants.resize(tenants_.size());
  for (size_t ti = 0; ti < tenants_.size(); ++ti) {
    run.tenants[ti].id = tenants_[ti].spec.id;
    run.tenants[ti].summary.batches.reserve(num_batches);
    run.tenants[ti].causes.reserve(num_batches);
  }
  if (obs_->active()) obs_->OnRunStart(num_batches);

  for (uint32_t i = 0; i < num_batches; ++i) {
    const TimeMicros interval = options_.batch_interval;
    const TimeMicros start = next_batch_start_;
    const TimeMicros end = start + interval;
    next_batch_start_ = end;

    // Weighted-fair slot shares for this heartbeat — decided before any data
    // is seen, from weights alone (demand can't shift shares).
    const std::vector<uint32_t> slots = scheduler_->AllocateSlots();

    // --- Batching phase: one drain of the shared source, fanned out. ---
    for (Tenant& tenant : tenants_) {
      tenant.ctx->partitioner->Begin(tenant.ctx->map_tasks, start, end);
    }
    if (ingest_ != nullptr) ingest_->BeginBatch(start, end);
    auto sink = [&](const Tuple& t) {
      // Flight-recorder tap: the raw consumed stream, before fan-out, so
      // replay re-derives every tenant's slice from the same tuples.
      if (journal_ != nullptr) journal_->RecordTuple(t);
      if (ingest_ != nullptr) {
        ingest_->Ingest(t);
        return;
      }
      for (Tenant& tenant : tenants_) {
        if (tenant.spec.filter.Matches(t.key)) {
          tenant.ctx->partitioner->OnTuple(t);
        }
      }
    };
    if (have_pending_ && pending_.ts < end) {
      sink(pending_);
      have_pending_ = false;
    }
    if (!have_pending_) {
      Tuple t;
      while (source_->Next(&t)) {
        if (t.ts >= end) {
          pending_ = t;
          have_pending_ = true;
          break;
        }
        sink(t);
      }
    }
    const AccumulatedBatch* merged =
        ingest_ != nullptr ? &ingest_->SealBatch() : nullptr;

    if (journal_ != nullptr) {
      // One tuple record per heartbeat, stamped with the shared batch id
      // (every tenant's next_batch_id agrees — they ride one clock).
      if (Status st = journal_->AppendBatchTuples(tenants_[0].ctx->next_batch_id);
          !st.ok()) {
        PROMPT_LOG(kWarn) << "journal tuple append failed: " << st.ToString();
      }
    }

    // --- Per-tenant seal + processing on the granted slots. ---
    for (size_t ti = 0; ti < tenants_.size(); ++ti) {
      Tenant& tenant = tenants_[ti];
      QueryContext& ctx = *tenant.ctx;
      TenantRunResult& result = run.tenants[ti];

      PartitionedBatch batch;
      if (merged != nullptr) {
        const bool takes_all =
            tenant.spec.filter.kind == KeyFilter::Kind::kAll;
        if (!(takes_all && ctx.partitioner->SealAccumulated(
                               *merged, ctx.next_batch_id, &batch))) {
          // Replay this tenant's slice of the merged batch through the
          // per-tuple interface.
          merged->Replay(
              [&](KeyId key) { return tenant.spec.filter.Matches(key); },
              [&](const Tuple& t) { ctx.partitioner->OnTuple(t); });
          batch = ctx.partitioner->Seal(ctx.next_batch_id);
        }
        ++ctx.next_batch_id;
        // The shared merge sits on every tenant's critical path toward the
        // heartbeat — each one accounts it as decision cost.
        batch.partition_cost += ingest_->last_metrics().merge_latency;
      } else {
        batch = ctx.partitioner->Seal(ctx.next_batch_id++);
      }

      // Settled after the merge-latency add so the recorded partition_cost
      // is the final value a replay must reproduce.
      const BatchEnv batch_env = SettleBatchEnv(
          options_.journal.inject, static_cast<uint32_t>(ti), &batch,
          ingest_ != nullptr ? &ingest_->last_metrics() : nullptr);
      if (journal_ != nullptr) {
        if (Status st =
                journal_->AppendEnv(static_cast<uint32_t>(ti), batch_env);
            !st.ok()) {
          PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                            << ": journal env append failed: " << st.ToString();
        }
      }

      if (durable_ != nullptr) {
        // Log the sealed batch before any stage runs (same rule as the
        // single-tenant engine); expired window slots free their records.
        const uint32_t owner = static_cast<uint32_t>(ti);
        if (Status st =
                durable_->Put(owner, batch.batch_id, EncodeBatch(batch));
            !st.ok()) {
          PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                            << ": durable append failed: " << st.ToString();
        }
        if (batch.batch_id >= ctx.window->depth()) {
          if (Status st =
                  durable_->Evict(owner, batch.batch_id - ctx.window->depth());
              !st.ok()) {
            PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                              << ": durable evict failed: " << st.ToString();
          }
        }
      }

      // Processing starts at the heartbeat, or when *this tenant's*
      // pipeline frees — one tenant's overflow queues behind its own slots.
      const TimeMicros proc_start = std::max(end, ctx.pipeline_free_at);
      BatchReport report =
          ProcessTenantBatch(&tenant, std::move(batch), interval, slots[ti]);
      report.queue_delay = proc_start - end;
      ctx.pipeline_free_at = proc_start + report.processing_time;
      report.latency = ctx.pipeline_free_at - start;
      if (ingest_ != nullptr) {
        report.ingest = ingest_->last_metrics();
        report.has_ingest = true;
      }
      InjectIngestEnv(options_.journal.inject, static_cast<uint32_t>(ti),
                      batch_env, &report);

      if (static_cast<double>(report.queue_delay) >
          options_.unstable_queue_intervals * static_cast<double>(interval)) {
        result.summary.stable = false;
        result.summary.unstable_at_batch =
            std::min(result.summary.unstable_at_batch, report.batch_id);
      }

      // Per-tenant feedback loops: EWMA estimates, autopsy, adaptation.
      ctx.ObserveBatchEstimates(report.num_tuples, report.num_keys);

      const BatchAutopsy autopsy = ExplainBatch(report, options_.obs.autopsy);
      result.causes.push_back(autopsy.dominant);
      ++result.cause_counts[static_cast<size_t>(autopsy.dominant)];
      obs_->EmitAutopsy(autopsy, ctx.id());

      if (ctx.adapt != nullptr) {
        const AdaptiveDecision decision =
            ctx.adapt->OnBatchCompleted(report, autopsy);
        if (decision.switch_now) {
          ctx.ApplyTechniqueSwitch(decision);
          if (journal_ != nullptr) {
            JournalSwitch js;
            js.owner = static_cast<uint32_t>(ti);
            js.after_batch = report.batch_id;
            js.from = static_cast<int32_t>(decision.from);
            js.to = static_cast<int32_t>(decision.to);
            js.reason = decision.reason;
            if (Status st = journal_->AppendSwitch(js); !st.ok()) {
              PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                                << ": journal switch append failed: "
                                << st.ToString();
            }
          }
          result.summary.technique_switches.push_back(
              RunSummary::TechniqueSwitch{report.batch_id, decision.from,
                                          decision.to, decision.reason});
          if (std::string_view(decision.reason) == "skew") {
            ++result.summary.technique_switches_up;
          } else {
            ++result.summary.technique_switches_down;
          }
        }
      }

      if (ctx.timeseries != nullptr) ctx.timeseries->Observe(report);
      if (tenant.batches_total != nullptr) {
        tenant.batches_total->Increment();
        tenant.tuples_total->Increment(report.num_tuples);
        tenant.latency_us->Observe(static_cast<double>(report.latency));
        tenant.slots_gauge->Set(slots[ti]);
        tenant.w_gauge->Set(report.w);
      }

      result.slots_granted += slots[ti];
      if (journal_ != nullptr) {
        if (Status st = journal_->AppendOutcome(static_cast<uint32_t>(ti),
                                                OutcomeFrom(report, autopsy));
            !st.ok()) {
          PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                            << ": journal outcome append failed: "
                            << st.ToString();
        }
      }
      result.summary.batches.push_back(std::move(report));
    }

    // Shared-ingest receiver feedback: the pipeline accumulates everyone's
    // tuples, so its Alg. 1 estimates track the *merged* totals.
    if (merged != nullptr) {
      constexpr double kAlpha = 0.4;
      const double mt = static_cast<double>(merged->num_tuples());
      // Sketch mode: num_keys() is promoted head runs only; use the HLL
      // estimate so K_avg (and the auto promote threshold derived from it)
      // tracks true cardinality instead of spiraling toward 1.
      const double mk = static_cast<double>(
          merged->stats().sketch_mode
              ? std::max(merged->num_keys(), merged->stats().distinct_estimate)
              : merged->num_keys());
      if (!est_init_) {
        est_tuples_ = mt;
        est_keys_ = mk;
        est_init_ = true;
      } else {
        est_tuples_ = kAlpha * mt + (1 - kAlpha) * est_tuples_;
        est_keys_ = kAlpha * mk + (1 - kAlpha) * est_keys_;
      }
      ingest_->UpdateEstimates(static_cast<uint64_t>(est_tuples_),
                               static_cast<uint64_t>(est_keys_));
    }

    if (durable_ != nullptr && options_.store.fsync == FsyncPolicy::kBatch) {
      // One durability point per heartbeat covers every tenant's append.
      if (Status st = durable_->Sync(); !st.ok()) {
        PROMPT_LOG(kWarn) << "durable sync failed: " << st.ToString();
      }
    }
    if (journal_ != nullptr) {
      // Same cadence as the durable store: one journal durability point per
      // heartbeat covers every tenant's records.
      if (Status st = journal_->SyncBatch(); !st.ok()) {
        PROMPT_LOG(kWarn) << "journal sync failed: " << st.ToString();
      }
    }

    if (HttpExporter* exporter = obs_->exporter(); exporter != nullptr) {
      HealthStatus health;
      health.data_loss = durable_recovery_.data_loss;
      health.last_batch_id =
          static_cast<int64_t>(tenants_[0].ctx->next_batch_id) - 1;
      health.journal_lag_bytes =
          journal_ != nullptr ? journal_->unsynced_bytes() : 0;
      exporter->UpdateHealth(health);
    }
  }
  if (obs_->active()) obs_->OnRunEnd();
  return run;
}

}  // namespace prompt
