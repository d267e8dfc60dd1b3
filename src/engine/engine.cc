#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "baselines/factory.h"
#include "common/logging.h"
#include "engine/manifest.h"
#include "engine/serde.h"
#include "fault/recovery.h"

namespace prompt {

double RunSummary::MeanW(size_t warmup) const {
  if (batches.size() <= warmup) return 0;
  double sum = 0;
  for (size_t i = warmup; i < batches.size(); ++i) sum += batches[i].w;
  return sum / static_cast<double>(batches.size() - warmup);
}

double RunSummary::MeanThroughputTuplesPerSec(TimeMicros interval,
                                              size_t warmup) const {
  if (batches.size() <= warmup || interval <= 0) return 0;
  uint64_t tuples = 0;
  for (size_t i = warmup; i < batches.size(); ++i) {
    tuples += batches[i].num_tuples;
  }
  const double seconds =
      ToSeconds(interval) * static_cast<double>(batches.size() - warmup);
  return static_cast<double>(tuples) / seconds;
}

QueryContextOptions QueryOptionsFrom(const EngineOptions& options) {
  QueryContextOptions qc;
  qc.map_tasks = options.map_tasks;
  qc.reduce_tasks = options.reduce_tasks;
  qc.cost = options.cost;
  qc.mode = options.mode;
  qc.use_prompt_reduce = options.use_prompt_reduce;
  qc.elasticity_enabled = options.elasticity_enabled;
  qc.elasticity = options.elasticity;
  qc.batch_resizing_enabled = options.batch_resizing_enabled;
  qc.batch_resizer = options.batch_resizer;
  qc.adapt = options.adapt;
  return qc;
}

PartitionedBatch SealMerged(BatchPartitioner* partitioner,
                            const AccumulatedBatch& merged,
                            const KeyFilter& filter, uint64_t batch_id) {
  PartitionedBatch batch;
  if (filter.kind == KeyFilter::Kind::kAll &&
      partitioner->SealAccumulated(merged, batch_id, &batch)) {
    return batch;
  }
  // Online techniques are order-insensitive apart from tie-breaking, so the
  // quasi-sorted replay preserves their semantics; filters select whole key
  // runs, so a slice replays sequentially too.
  merged.Replay([&](KeyId key) { return filter.Matches(key); },
                [&](const Tuple& t) { partitioner->OnTuple(t); });
  return partitioner->Seal(batch_id);
}

void MergedBatchEstimates::Feed(const AccumulatedBatch& merged,
                                ParallelIngestPipeline* pipeline) {
  tuples_.Observe(static_cast<double>(merged.num_tuples()));
  keys_.Observe(static_cast<double>(
      merged.stats().sketch_mode
          ? std::max(merged.num_keys(), merged.stats().distinct_estimate)
          : merged.num_keys()));
  pipeline->UpdateEstimates(static_cast<uint64_t>(tuples_.Value()),
                            static_cast<uint64_t>(keys_.Value()));
}

BatchTrace TraceOf(const BatchReport& report, TimeMicros batch_start,
                   double partition_cost_scale) {
  BatchTrace trace;
  trace.batch_id = report.batch_id;
  trace.batch_start = batch_start;
  trace.latency = report.latency;
  trace.num_tuples = report.num_tuples;
  trace.num_keys = report.num_keys;
  auto span = [&trace](std::string name, TimeMicros start, TimeMicros duration,
                       uint32_t depth) {
    trace.spans.push_back(TraceSpan{std::move(name), start, duration, depth});
  };
  const TimeMicros interval = report.batch_interval;

  // Depth-0 spans tile the end-to-end latency:
  //   latency = interval + queue_delay + overflow + map + reduce (+ recovery).
  span("accumulate", 0, interval, 0);
  auto technique = [](int32_t type) -> std::string {
    return type >= 0 ? PartitionerTypeName(static_cast<PartitionerType>(type))
                     : "?";
  };
  if (report.technique_switched) {
    // Annotation marking the first batch the switched-to technique sealed.
    span("adapt_switch:" + technique(report.switched_from) + "->" +
             technique(report.technique),
         0, 0, 1);
  }
  if (report.has_ingest) {
    // Wall-clock annotations from the sharded batching phase, nested under
    // the accumulate interval (the barrier and merge run at the cut-off).
    span("ingest_route", 0, report.ingest.ingest_wall, 1);
    span("seal_barrier", interval, report.ingest.seal_barrier_latency, 1);
    span("kway_merge", interval, report.ingest.merge_latency, 1);
  }
  if (report.sketch.sketch_mode) {
    // Annotation marking a heavy-hitter batch with its coverage (promille,
    // spans carry no float payload): sketch_mode:987 = 98.7% head coverage.
    span("sketch_mode:" + std::to_string(static_cast<int>(
                              report.sketch.head_coverage() * 1000.0)),
         0, 0, 1);
  }
  if (report.store_append_us > 0) {
    // Durable-log append of the sealed batch, right at the cut-off (wall
    // clock, annotation depth: the virtual timeline is unaffected).
    span("store_append", interval, report.store_append_us, 1);
  }
  // The B-BPFI plan runs inside the early-release slack; only its overflow
  // reaches the critical path (as the "plan_overflow" span below).
  const TimeMicros scaled_cost = static_cast<TimeMicros>(
      partition_cost_scale * static_cast<double>(report.partition_cost));
  const TimeMicros in_slack = scaled_cost - report.partition_overflow;
  if (in_slack > 0) span("plan", interval - in_slack, in_slack, 1);

  TimeMicros cursor = interval;
  auto stage = [&](const char* name, TimeMicros duration) {
    span(name, cursor, duration, 0);
    cursor += duration;
  };
  if (report.queue_delay > 0) stage("queue", report.queue_delay);
  if (report.partition_overflow > 0) {
    stage("plan_overflow", report.partition_overflow);
  }
  stage("map", report.map_makespan);
  stage("reduce", report.reduce_makespan);
  // Recovery work (replays, re-replication) done while this batch held the
  // pipeline — modeled as running after the ordinary stages.
  if (report.recovery_time > 0) stage("recovery", report.recovery_time);
  return trace;
}

namespace {

/// The single-query entry point's setup: one KEYS-all, unlabeled tenant. An
/// adaptive query needs the partition-metrics pass (the controller's calm
/// test reads block-load and split-key signals), and a store implies cluster
/// mode; the manifest records the options with both applied.
EngineSetup SingleQuery(EngineOptions options, JobSpec job,
                        std::unique_ptr<BatchPartitioner> partitioner) {
  PROMPT_CHECK(partitioner != nullptr);
  if (options.adapt.enabled) options.obs.collect_partition_metrics = true;
  if (options.store.enabled()) options.cluster_enabled = true;
  EngineSetup setup;
  if (options.journal.enabled()) {
    std::optional<PartitionerType> technique;
    if (Result<PartitionerType> type =
            PartitionerTypeFromName(partitioner->name());
        type.ok()) {
      technique = *type;
    }
    setup.manifest = WriteSingleManifest({options, job, technique});
  }
  TenantSetup tenant;
  tenant.id = "default";
  tenant.options = QueryOptionsFrom(options);
  tenant.job = std::move(job);
  tenant.partitioner = std::move(partitioner);
  setup.tenants.push_back(std::move(tenant));
  setup.options = std::move(options);
  return setup;
}

void WarnIfFailed(const Status& st, const char* what) {
  if (!st.ok()) PROMPT_LOG(kWarn) << what << " failed: " << st.ToString();
}

}  // namespace

MicroBatchEngine::MicroBatchEngine(EngineOptions options, JobSpec job,
                                   std::unique_ptr<BatchPartitioner> partitioner,
                                   TupleSource* source)
    : MicroBatchEngine(SingleQuery(std::move(options), std::move(job),
                                   std::move(partitioner)),
                       source) {}

MicroBatchEngine::MicroBatchEngine(EngineSetup setup, TupleSource* source)
    : options_(std::move(setup.options)), source_(source) {
  PROMPT_CHECK(source_ != nullptr);
  PROMPT_CHECK(options_.batch_interval > 0);
  PROMPT_CHECK(!setup.tenants.empty());
  obs_ = std::make_unique<Observability>(options_.obs);
  if (!obs_->init_status().ok()) {
    PROMPT_LOG(kWarn) << "observability sink setup failed: "
                      << obs_->init_status().ToString();
  }
  scheduler_ = std::make_unique<TenantScheduler>(
      TenantSchedulerOptions{std::max<uint32_t>(1, options_.cores)});
  for (TenantSetup& t : setup.tenants) {
    if (Result<size_t> added = scheduler_->AddTenant(t.id, t.weight);
        !added.ok()) {
      init_status_ = added.status();
      return;
    }
    Tenant tenant;
    tenant.ctx = std::make_unique<QueryContext>(
        std::move(t.id), t.options, std::move(t.job), std::move(t.partitioner),
        obs_->registry(), t.labels);
    tenant.filter = t.filter;
    tenant.stream = obs_->AddStream(t.labels);
    tenants_.push_back(std::move(tenant));
  }
  // Created before recovery, which re-executes the stored batches on it.
  if (options_.mode == ExecutionMode::kReal) {
    pool_ = std::make_unique<ThreadPool>(options_.cores);
  }
  if (options_.cluster_enabled) {
    cluster_ = std::make_unique<SimulatedCluster>(options_.cluster);
    for (Tenant& tenant : tenants_) {
      tenant.store = std::make_unique<BatchStore>(cluster_.get());
    }
  }
  if (options_.store.enabled()) {
    auto durable = DurableBlockStore::Open(options_.store);
    if (durable.ok()) {
      durable_ = std::move(durable).ValueUnsafe();
      durable_->BindMetrics(obs_->registry());
      for (size_t owner = 0; owner < tenants_.size(); ++owner) {
        if (tenants_[owner].store == nullptr) continue;
        tenants_[owner].store->AttachDurable(durable_.get(),
                                             static_cast<uint32_t>(owner));
      }
      RecoverFromDurableStore();
    } else {
      // Durability was explicitly requested; running memory-only behind the
      // operator's back would mask real loss ("recovered 0 batches" looks
      // like a clean log). Surface a construction failure instead — the
      // caller must check init_status() before trusting this engine.
      init_status_ = Status::IOError("durable store " + options_.store.dir +
                                     " cannot be opened: " +
                                     durable.status().ToString());
      durable_recovery_.data_loss = true;
      PROMPT_LOG(kError) << init_status_.ToString();
    }
  }
  if (options_.faults.enabled()) {
    fault_ = std::make_unique<FaultInjector>(options_.faults);
    const bool has_node_events =
        options_.faults.random.enabled ||
        std::any_of(options_.faults.schedule.begin(),
                    options_.faults.schedule.end(), [](const FaultEvent& e) {
                      return e.kind == FaultKind::kKillNode ||
                             e.kind == FaultKind::kReviveNode;
                    });
    if (has_node_events && cluster_ == nullptr) {
      PROMPT_LOG(kWarn) << "fault schedule has node events but cluster mode "
                           "is off; kills/revives will be ignored";
    }
  }
  current_interval_ = options_.batch_interval;
  // Sketch mode needs the pipeline even at one shard: the partitioner's own
  // accumulator is exact, and only the pipeline swaps in the sketch kind.
  if (options_.ingest.shards > 1 ||
      options_.ingest.key_mode == KeyMode::kSketch) {
    ingest_ = std::make_unique<ParallelIngestPipeline>(options_.ingest);
    ingest_->BindMetrics(obs_->registry());
  }
  // A construction that already failed records nothing: no stray journal.
  if (options_.journal.enabled() && init_status_.ok()) {
    auto journal = JournalWriter::Open(options_.journal, setup.manifest);
    if (journal.ok()) {
      journal_ = std::move(journal).ValueUnsafe();
    } else {
      // Recording was explicitly requested; running unrecorded would break
      // the operator's replay guarantee silently. Same contract as the
      // durable store: surface a construction failure.
      init_status_ = Status::IOError("journal " + options_.journal.dir +
                                     " cannot be opened: " +
                                     journal.status().ToString());
      PROMPT_LOG(kError) << init_status_.ToString();
    }
  }
}

MicroBatchEngine::~MicroBatchEngine() = default;

void MicroBatchEngine::RecoverFromDurableStore() {
  const StoreRecovery& scan = durable_->recovery();
  durable_recovery_.torn_records = scan.torn_records;
  // A torn tail is a batch that was written but did not survive the crash:
  // report it as loss, never paper over it with a fabricated batch.
  durable_recovery_.data_loss = scan.torn_records > 0;

  const uint32_t cores = PoolCores();
  for (size_t owner = 0; owner < tenants_.size(); ++owner) {
    Tenant& tenant = tenants_[owner];
    QueryContext& ctx = *tenant.ctx;
    const auto owner_id = static_cast<uint32_t>(owner);
    for (uint64_t id : durable_->LiveBatches(owner_id)) {
      Result<std::string> bytes = durable_->Get(owner_id, id);
      Result<PartitionedBatch> decoded =
          bytes.ok() ? DecodeBatch(*bytes)
                     : Result<PartitionedBatch>(bytes.status());
      if (!decoded.ok()) {
        PROMPT_LOG(kWarn) << "recovery: cannot recover batch " << id
                          << " of tenant " << ctx.id() << ": "
                          << decoded.status().ToString();
        durable_recovery_.data_loss = true;
        continue;
      }
      // Deterministic re-execution: partitioned input + the same reduce
      // logic give bit-identical per-key aggregates, so the recovered
      // window equals an uninterrupted run over the surviving batches.
      BatchExecution exec = ctx.executor->Execute(*decoded, ctx.reduce_tasks,
                                                  cores, pool_.get());
      ctx.window->AddBatch(std::move(exec.output));
      if (tenant.store != nullptr) {
        // Memory-tier placement only — the log already holds this batch,
        // and re-appending on every restart would grow the segments
        // without bound.
        if (Result<uint32_t> placed = tenant.store->Restore(*decoded);
            !placed.ok()) {
          PROMPT_LOG(kWarn) << "recovery: replica placement for batch " << id
                            << " failed: " << placed.status().ToString();
        }
        TrackStateNode(ctx, id);
      }
      ++durable_recovery_.batches_recovered;
      durable_recovery_.first_recovered_batch =
          std::min(durable_recovery_.first_recovered_batch, id);
      durable_recovery_.last_recovered_batch =
          std::max(durable_recovery_.last_recovered_batch, id);
    }
  }
  if (durable_recovery_.batches_recovered > 0) {
    // Every tenant rides the heartbeat clock: resume it past the newest
    // recovered batch anywhere in the log.
    const uint64_t next = durable_recovery_.last_recovered_batch + 1;
    next_batch_start_ =
        static_cast<TimeMicros>(next) * options_.batch_interval;
    for (Tenant& tenant : tenants_) tenant.ctx->next_batch_id = next;
    PROMPT_LOG(kInfo) << "recovered " << durable_recovery_.batches_recovered
                      << " batch(es) [" << durable_recovery_.first_recovered_batch
                      << ".." << durable_recovery_.last_recovered_batch
                      << "] from " << options_.store.dir
                      << (durable_recovery_.data_loss
                              ? " (torn tail truncated: data loss)"
                              : "");
  }
}

uint32_t MicroBatchEngine::PoolCores() const {
  return cluster_ != nullptr
             ? std::max<uint32_t>(1, cluster_->total_alive_cores())
             : options_.cores;
}

uint32_t MicroBatchEngine::CoresFor(uint32_t share) const {
  // Exact for a whole-pool share (the single-query case) and for a static
  // pool (no cluster): share * pool / total == share.
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(static_cast<uint64_t>(share) * PoolCores() /
                               scheduler_->total_slots()));
}

BatchReport MicroBatchEngine::ProcessBatch(Tenant& tenant,
                                           PartitionedBatch batch,
                                           TimeMicros interval,
                                           uint32_t share) {
  QueryContext& ctx = *tenant.ctx;
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

  // Early Batch Release (§4.2): the partitioner worked during the slack
  // before the heartbeat; only the excess delays processing.
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

  // §8: replicate the sealed input across nodes *before* any stage runs, so
  // a mid-stage failure can replay the batch from surviving copies. Copies
  // are only needed while the batch is inside the query window (evicted at
  // the end of this function).
  if (tenant.store != nullptr) {
    Result<uint32_t> copies = tenant.store->Write(batch);
    if (!copies.ok()) {
      PROMPT_LOG(kWarn) << "batch replication failed: "
                        << copies.status().ToString();
    }
    if (durable_ != nullptr) {
      report.store_append_us = durable_->last_append_micros();
      report.store_bytes_appended = tenant.store->last_write_bytes();
      report.store_spilled_copies = tenant.store->last_spill_count();
    }
    // Gauge, not an event count: while the cluster is degraded every batch
    // reports how many in-window batches sit below the configured factor
    // (a later top-up in this same batch refreshes the field).
    report.under_replicated_batches = tenant.store->UnderReplicatedCount(
        options_.cluster.replication_factor);
  }

  // Failure-detection point 1: the batch boundary. Nodes lost since this
  // tenant last ran (manual KillNode calls included) are recovered here.
  RecoverNodeLosses(tenant, &report);
  PollFaults(tenant, batch.batch_id, FaultPoint::kBatchStart, &report);
  if (crashed_) return report;  // the process died before any stage ran

  // The stages run on the tenant's share of the pool, counted after the
  // boundary's faults (a kill there shrinks it).
  const uint32_t cores = CoresFor(share);
  report.slots = cores;
  const uint32_t map_cores =
      options_.cores_track_tasks
          ? std::max<uint32_t>(1, static_cast<uint32_t>(batch.blocks.size()))
          : cores;
  const uint32_t reduce_cores =
      options_.cores_track_tasks ? std::max<uint32_t>(1, ctx.reduce_tasks)
                                 : cores;

  // BatchExecutor schedules each stage with one core count; when the two
  // differ (elasticity), run it with map cores and rescale the reduce stage.
  BatchExecution exec =
      ctx.executor->Execute(batch, ctx.reduce_tasks, map_cores, pool_.get());
  if (reduce_cores != map_cores) {
    StageSchedule rs = ScheduleStage(exec.reduce_task_costs, reduce_cores);
    exec.reduce_makespan = rs.makespan;
    exec.reduce_completions = std::move(rs.completion);
  }

  // Injected stragglers / transient task failures: retry + speculation
  // adjust the map-task durations before scheduling finalizes.
  const bool retry_exhausted =
      ApplyTaskPerturbations(batch.batch_id, map_cores, &exec, &report);

  if (cluster_ != nullptr) {
    // Re-schedule the Map stage with data locality over per-node cores:
    // every task prefers a node holding a replica of its block.
    auto placements =
        cluster_->PlaceBlocks(static_cast<uint32_t>(batch.blocks.size()));
    if (placements.ok()) {
      LocalityStageResult locality = ScheduleMapStageWithLocality(
          exec.map_task_costs, *placements, *cluster_);
      exec.map_makespan = locality.makespan;
      report.remote_map_tasks = locality.remote_tasks;
    }
  }

  // Failure-detection points 2 and 3: mid-stage. A node lost while a stage
  // runs discards that attempt's in-flight state; the attempted makespans
  // stay on the clock (the pipeline slot was spent) and the batch is redone
  // from replicated input on the survivors, charged to recovery_time.
  bool replay_current = retry_exhausted;
  replay_current |=
      PollFaults(tenant, batch.batch_id, FaultPoint::kMapStage, &report);
  replay_current |=
      PollFaults(tenant, batch.batch_id, FaultPoint::kReduceStage, &report);
  if (crashed_) return report;  // died mid-stage: this batch never completes
  if (replay_current) {
    Result<BatchExecution> redo =
        tenant.store != nullptr
            ? ReplayBatchFromStore(tenant, batch.batch_id, &report)
            : Result<BatchExecution>(
                  Status::Invalid("no replicated input to replay from"));
    if (redo.ok()) {
      exec.output = std::move(redo->output);
    } else {
      // Exactly-once is lost for this batch: no surviving replica (or no
      // store at all). Keep the original attempt's output so the stream
      // continues, but flag the loss.
      PROMPT_LOG(kWarn) << "batch " << batch.batch_id
                        << " unrecoverable: " << redo.status().ToString();
      report.unrecoverable = true;
    }
  }

  report.map_makespan = exec.map_makespan;
  report.reduce_makespan = exec.reduce_makespan;
  report.processing_time = report.partition_overflow + exec.map_makespan +
                           exec.reduce_makespan + report.recovery_time;
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

  if (options_.replicate_input) {
    ctx.last_replica = std::make_unique<PartitionedBatch>(batch);
    ctx.last_output = exec.output;
  }
  if (tenant.store != nullptr && batch.batch_id >= ctx.job.window_batches) {
    // §8 GC rule: a batch expiring from the window can never be replayed
    // again, so its replicas are dropped.
    tenant.store->Evict(batch.batch_id - ctx.job.window_batches);
  }
  if (journal_ != nullptr) {
    // Commutative hash of the per-key window contribution, taken at the
    // exact hand-off into the window: equal hashes every batch imply equal
    // window aggregates between record and replay.
    report.output_hash = HashBatchOutput(exec.output);
  }
  ctx.window->AddBatch(std::move(exec.output));
  // Losing the node that hosts this batch's reduce-bucket state later
  // triggers a replay.
  if (cluster_ != nullptr) TrackStateNode(ctx, batch.batch_id);
  return report;
}

Status MicroBatchEngine::KillNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->KillNode(node));
  // Recovery — replay of in-window batches and the replication top-up —
  // runs at the next batch boundary, the engine's failure-detection point.
  LoseNode(node);
  return Status::OK();
}

Status MicroBatchEngine::ReviveNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->ReviveNode(node));
  for (Tenant& tenant : tenants_) FeedCapacity(*tenant.ctx);
  return Status::OK();
}

std::vector<uint32_t> MicroBatchEngine::AliveNodes() const {
  std::vector<uint32_t> alive;
  if (cluster_ == nullptr) return alive;
  alive.reserve(cluster_->nodes());
  for (uint32_t n = 0; n < cluster_->nodes(); ++n) {
    if (cluster_->alive(n)) alive.push_back(n);
  }
  return alive;
}

uint32_t MicroBatchEngine::PickStateNode(uint64_t batch_id) const {
  const std::vector<uint32_t> alive = AliveNodes();
  if (alive.empty()) return 0;
  return alive[batch_id % alive.size()];
}

void MicroBatchEngine::TrackStateNode(QueryContext& ctx, uint64_t batch_id) {
  ctx.window_state_nodes.push_back(
      QueryContext::WindowReplica{batch_id, PickStateNode(batch_id)});
  while (ctx.window_state_nodes.size() > ctx.window->depth()) {
    ctx.window_state_nodes.pop_front();
  }
}

void MicroBatchEngine::FeedCapacity(QueryContext& ctx) {
  if (ctx.elastic == nullptr) return;
  ctx.elastic->OnCapacityChange(cluster_->total_alive_cores());
  ctx.map_tasks = ctx.elastic->map_tasks();
  ctx.reduce_tasks = ctx.elastic->reduce_tasks();
}

void MicroBatchEngine::LoseNode(uint32_t node) {
  // The node's memory died with it: its replica copies are gone for good
  // (reviving later restores cores only).
  for (Tenant& tenant : tenants_) {
    tenant.store->DropNode(node);
    tenant.pending_node_losses.push_back(node);
  }
}

bool MicroBatchEngine::PollFaults(Tenant& tenant, uint64_t batch_id,
                                  FaultPoint point, BatchReport* report) {
  if (fault_ == nullptr || cluster_ == nullptr) return false;
  bool killed = false;
  auto journal_fault = [&](const FaultEvent& event) {
    if (journal_ == nullptr) return;
    JournalFault jf;
    jf.batch_id = batch_id;
    jf.point = static_cast<uint8_t>(point);
    jf.kind = static_cast<uint8_t>(event.kind);
    jf.target = event.target;
    WarnIfFailed(journal_->AppendFault(jf), "journal: fault append");
  };
  for (const FaultEvent& event : fault_->Poll(batch_id, point, AliveNodes())) {
    if (event.kind == FaultKind::kCrash) {
      journal_fault(event);
      // The whole process dies: the durable store keeps only what was
      // fsynced (plus a torn tail for recovery to truncate); everything in
      // memory — windows, replicas, this batch — is gone. The run stops.
      PROMPT_LOG(kWarn) << "fault injected: process crash at batch "
                        << batch_id;
      crashed_ = true;
      crashed_at_batch_ = batch_id;
      if (durable_ != nullptr) {
        WarnIfFailed(durable_->SimulateCrash(/*tear_tail=*/true),
                     "crash simulation");
      }
      break;
    }
    if (event.kind == FaultKind::kRestart) {
      continue;  // consumed by scenario runners, not the engine itself
    }
    if (event.kind == FaultKind::kKillNode) {
      Status st = cluster_->KillNode(event.target);
      if (!st.ok()) continue;  // already dead / unknown node: no-op
      PROMPT_LOG(kWarn) << "fault injected: node " << event.target
                        << " killed at batch " << batch_id;
      journal_fault(event);
      LoseNode(event.target);
      RecoverNodeLosses(tenant, report);
      killed = true;
    } else if (event.kind == FaultKind::kReviveNode) {
      Status st = cluster_->ReviveNode(event.target);
      if (!st.ok()) continue;
      journal_fault(event);
      // The node rejoins with empty memory: capacity is back (the elastic
      // controllers may scale out again) and the extra room lets the store
      // restore the replication factor.
      TopUpStoreReplication(tenant, report);
      for (Tenant& each : tenants_) FeedCapacity(*each.ctx);
    }
  }
  return killed;
}

void MicroBatchEngine::RecoverNodeLosses(Tenant& tenant, BatchReport* report) {
  QueryContext& ctx = *tenant.ctx;
  for (uint32_t node : tenant.pending_node_losses) {
    report->recovered_from_failure = true;
    // Replay every in-window batch whose reduce-bucket state lived on the
    // dead node: recompute from replicated input and patch its window
    // contribution.
    for (size_t i = 0; i < ctx.window_state_nodes.size(); ++i) {
      QueryContext::WindowReplica& wr = ctx.window_state_nodes[i];
      if (wr.node != node) continue;
      Result<BatchExecution> redo =
          ReplayBatchFromStore(tenant, wr.batch_id, report);
      if (!redo.ok()) {
        PROMPT_LOG(kWarn) << "in-window batch " << wr.batch_id
                          << " unrecoverable: " << redo.status().ToString();
        report->unrecoverable = true;
        continue;
      }
      Status st = ctx.window->ReplaceBatch(i, std::move(redo->output));
      if (!st.ok()) {
        PROMPT_LOG(kWarn) << "window patch failed for batch " << wr.batch_id
                          << ": " << st.ToString();
        continue;
      }
      wr.node = PickStateNode(wr.batch_id);  // re-home on a survivor
    }
    // Re-replicate under-replicated batches back toward the target factor.
    TopUpStoreReplication(tenant, report);
    // Alg. 4 capacity feed: the controller sees the reduced cluster now,
    // not d batches of degraded W later.
    FeedCapacity(ctx);
  }
  tenant.pending_node_losses.clear();
}

Result<BatchExecution> MicroBatchEngine::ReplayBatchFromStore(
    Tenant& tenant, uint64_t batch_id, BatchReport* report) {
  if (tenant.store == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch replica,
                          tenant.store->Read(batch_id));
  // Alg. 2-flavoured re-plan: the replica's block count assumed the original
  // cluster; repack to at most the cores that survive.
  const uint32_t cores = PoolCores();
  RepackBlocks(&replica, cores);
  QueryContext& ctx = *tenant.ctx;
  BatchExecution redo =
      ctx.executor->Execute(replica, ctx.reduce_tasks, cores, pool_.get());
  report->recovery_time += redo.map_makespan + redo.reduce_makespan;
  ++report->batches_replayed;
  return redo;
}

void MicroBatchEngine::TopUpStoreReplication(Tenant& tenant,
                                             BatchReport* report) {
  if (tenant.store == nullptr) return;
  TopUpResult topup =
      tenant.store->TopUpReplication(options_.cluster.replication_factor);
  report->under_replicated_batches = topup.under_replicated;
  report->recovery_time += static_cast<TimeMicros>(
      options_.cost.replicate_per_kib_us *
      static_cast<double>(topup.bytes_copied) / 1024.0);
}

bool MicroBatchEngine::ApplyTaskPerturbations(uint64_t batch_id,
                                              uint32_t map_cores,
                                              BatchExecution* exec,
                                              BatchReport* report) {
  if (fault_ == nullptr) return false;
  const TaskPerturbations faults = fault_->TaskFaults(batch_id);
  if (faults.empty()) return false;
  const std::vector<TimeMicros> clean = exec->map_task_costs;
  for (const auto& [task, delay] : faults.delays) {
    if (task < exec->map_task_costs.size()) {
      exec->map_task_costs[task] += delay;
    }
  }
  bool exhausted = false;
  for (const auto& [task, failures] : faults.failures) {
    if (task >= exec->map_task_costs.size()) continue;
    const RetryOutcome outcome = ApplyRetryPolicy(
        exec->map_task_costs[task], failures, options_.faults.max_task_retries,
        options_.faults.retry_backoff);
    exec->map_task_costs[task] = outcome.effective_cost;
    report->tasks_retried += outcome.retries;
    exhausted |= outcome.exhausted;
  }
  if (options_.faults.speculation_enabled) {
    SpeculationResult spec = ApplySpeculation(
        exec->map_task_costs, clean, options_.faults.speculation_multiplier);
    exec->map_task_costs = std::move(spec.costs);
    report->tasks_speculated += spec.speculated;
  }
  // Re-derive the map makespan from the perturbed durations (cluster mode
  // re-schedules once more with locality right after).
  StageSchedule ms = ScheduleStage(exec->map_task_costs, map_cores);
  exec->map_makespan = ms.makespan;
  return exhausted;
}

Result<std::vector<KV>> MicroBatchEngine::RecomputeBatchFromStore(
    uint64_t batch_id) {
  const Tenant& tenant = tenants_[0];
  if (tenant.store == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch batch, tenant.store->Read(batch_id));
  BatchExecution redo = tenant.ctx->executor->Execute(
      batch, tenant.ctx->reduce_tasks, PoolCores(), pool_.get());
  return std::move(redo.output);
}

template <typename Sink>
void MicroBatchEngine::DrainUntil(TimeMicros end, Sink sink) {
  auto consume = [&](const Tuple& t) {
    // The flight-recorder tap: every consumed tuple, in consumption order,
    // before fan-out or shard routing — replay re-forms identical batches
    // from `ts < end` for every tenant at any shard count.
    if (journal_ != nullptr) journal_->RecordTuple(t);
    sink(t);
  };
  if (have_pending_ && pending_.ts < end) {
    consume(pending_);
    have_pending_ = false;
  }
  if (have_pending_) return;
  Tuple t;
  while (source_->Next(&t)) {
    if (t.ts >= end) {
      pending_ = t;
      have_pending_ = true;
      return;
    }
    consume(t);
  }
}

const AccumulatedBatch* MicroBatchEngine::Drain(TimeMicros start,
                                                TimeMicros end) {
  for (Tenant& tenant : tenants_) {
    tenant.ctx->partitioner->Begin(tenant.ctx->map_tasks, start, end);
  }
  if (ingest_ != nullptr) {
    // Sharded ingest accumulates once; each tenant seals from the merge.
    ingest_->BeginBatch(start, end);
    DrainUntil(end, [this](const Tuple& t) { ingest_->Ingest(t); });
    return &ingest_->SealBatch();
  }
  if (tenants_.size() == 1 &&
      tenants_[0].filter.kind == KeyFilter::Kind::kAll) {
    // The fan-out below, reduced to its one target: no filter test or
    // tenant loop per tuple on the single-query hot path.
    BatchPartitioner* partitioner = tenants_[0].ctx->partitioner.get();
    DrainUntil(end, [partitioner](const Tuple& t) { partitioner->OnTuple(t); });
    return nullptr;
  }
  DrainUntil(end, [this](const Tuple& t) {
    for (Tenant& tenant : tenants_) {
      if (tenant.filter.Matches(t.key)) tenant.ctx->partitioner->OnTuple(t);
    }
  });
  return nullptr;
}

PartitionedBatch MicroBatchEngine::Seal(Tenant& tenant,
                                        const AccumulatedBatch* merged) {
  QueryContext& ctx = *tenant.ctx;
  if (merged == nullptr) return ctx.partitioner->Seal(ctx.next_batch_id++);
  PartitionedBatch batch = SealMerged(ctx.partitioner.get(), *merged,
                                      tenant.filter, ctx.next_batch_id++);
  // The merge runs in the release slack alongside Alg. 2, on every tenant's
  // critical path toward the heartbeat — account it as decision cost.
  batch.partition_cost += ingest_->last_metrics().merge_latency;
  return batch;
}

void MicroBatchEngine::Persist(uint32_t owner, const QueryContext& ctx,
                               const PartitionedBatch& batch) {
  if (Status st = durable_->Put(owner, batch.batch_id, EncodeBatch(batch));
      !st.ok()) {
    PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                      << ": durable append failed: " << st.ToString();
  }
  // Same rule as the cluster path: a batch is dropped once it leaves the
  // query's window, never while it can still be recovered into it.
  if (batch.batch_id >= ctx.job.window_batches) {
    if (Status st =
            durable_->Evict(owner, batch.batch_id - ctx.job.window_batches);
        !st.ok()) {
      PROMPT_LOG(kWarn) << "tenant " << ctx.id()
                        << ": durable evict failed: " << st.ToString();
    }
  }
}

void MicroBatchEngine::Observe(const Tenant& tenant, const BatchReport& report,
                               TimeMicros batch_start) {
  BatchTrace trace;
  if (obs_->tracing_active()) {
    trace = TraceOf(report, batch_start, options_.cost.partition_cost_scale);
    trace.labels = tenant.stream->labels;
  }
  obs_->OnBatchComplete(report, trace, tenant.stream);
}

std::vector<RunSummary> MicroBatchEngine::RunTenants(uint32_t num_batches) {
  std::vector<RunSummary> summaries(tenants_.size());
  auto mark_crashed = [&] {
    for (RunSummary& summary : summaries) {
      summary.crashed = true;
      summary.crashed_at_batch = crashed_at_batch_;
    }
  };
  if (crashed_) {
    mark_crashed();
    return summaries;
  }
  for (RunSummary& summary : summaries) summary.batches.reserve(num_batches);
  const bool observe = obs_->active();
  if (observe) obs_->OnRunStart(num_batches);

  for (uint32_t i = 0; i < num_batches && !crashed_; ++i) {
    const TimeMicros interval = current_interval_;
    const TimeMicros start = next_batch_start_;
    const TimeMicros end = start + interval;
    next_batch_start_ = end;

    // Weighted-fair shares of the core pool for this heartbeat — decided
    // before any data is seen, from weights alone.
    const std::vector<uint32_t> shares = scheduler_->AllocateSlots();

    // --- Batching phase: one drain of the shared source. ---
    const AccumulatedBatch* merged = Drain(start, end);
    // All tenants ride one heartbeat clock, so they share the batch id.
    const uint64_t batch_id = tenants_[0].ctx->next_batch_id;
    if (journal_ != nullptr) {
      // One tuple record per heartbeat, journaled *before* processing so a
      // crashed batch's stream is on record.
      WarnIfFailed(journal_->AppendBatchTuples(batch_id),
                   "journal: tuple append");
    }

    for (size_t t = 0; t < tenants_.size(); ++t) {
      Tenant& tenant = tenants_[t];
      QueryContext& ctx = *tenant.ctx;
      RunSummary& summary = summaries[t];
      const auto owner = static_cast<uint32_t>(t);

      PartitionedBatch batch = Seal(tenant, merged);
      // The batching phase's per-shard stats, as this tenant's report will
      // carry them.
      IngestMetrics ingest_metrics;
      if (ingest_ != nullptr) ingest_metrics = ingest_->last_metrics();
      // The batch's wall-clock inputs, settled after the merge-latency add
      // so the recorded partition_cost is the final value a replay must
      // reproduce; under --replay the recorded inputs are injected here.
      const BatchEnv batch_env = SettleBatchEnv(
          options_.journal.inject, owner, &batch,
          ingest_ != nullptr ? &ingest_metrics : nullptr);
      if (journal_ != nullptr) {
        WarnIfFailed(journal_->AppendEnv(owner, batch_env),
                     "journal: env append");
      }
      // Without a cluster the store takes the sealed batch per owner here,
      // before any stage runs; with one, ProcessBatch writes its BatchStore.
      if (durable_ != nullptr && tenant.store == nullptr) {
        Persist(owner, ctx, batch);
      }

      // --- Processing phase: starts at the heartbeat, or when this
      // tenant's pipeline frees if its earlier batches still run. ---
      const TimeMicros proc_start = std::max(end, ctx.pipeline_free_at);
      BatchReport report =
          ProcessBatch(tenant, std::move(batch), interval, shares[t]);
      if (crashed_) {
        // The process died inside this batch: its report is never published
        // (no window contribution, no feedback) — exactly what an external
        // SIGKILL leaves behind. The journal is the observer of the crash,
        // not its victim: flush so the crashed batch's tuples (appended
        // above) survive for replay.
        if (journal_ != nullptr) {
          WarnIfFailed(journal_->Sync(), "journal: crash flush");
        }
        break;
      }
      report.queue_delay = proc_start - end;
      ctx.pipeline_free_at = proc_start + report.processing_time;
      report.latency = ctx.pipeline_free_at - start;
      if (ingest_ != nullptr) {
        // This embedded form is the only way callers see per-shard ingest
        // state.
        report.ingest = std::move(ingest_metrics);
        report.has_ingest = true;
      }

      // Fault-tolerance aggregates.
      summary.batches_replayed += report.batches_replayed;
      summary.tasks_retried += report.tasks_retried;
      summary.tasks_speculated += report.tasks_speculated;
      if (report.recovered_from_failure) ++summary.failures_recovered;
      summary.total_recovery_time += report.recovery_time;
      summary.max_recovery_time =
          std::max(summary.max_recovery_time, report.recovery_time);
      summary.data_loss |= report.unrecoverable;

      // Stability accounting (back-pressure would engage past the bound).
      if (static_cast<double>(report.queue_delay) >
          options_.unstable_queue_intervals * static_cast<double>(interval)) {
        summary.stable = false;
        summary.unstable_at_batch =
            std::min(summary.unstable_at_batch, report.batch_id);
      }

      // --- Feedback loops. ---
      // The partitioner's Alg. 1 estimates (N_est, K_avg).
      ctx.ObserveBatchEstimates(report.num_tuples, report.num_keys);
      // Batch resizing baseline [12]: step the next interval toward the
      // fixed point processing_time = target * interval.
      if (ctx.resizer != nullptr) {
        current_interval_ =
            ctx.resizer->OnBatchCompleted(interval, report.processing_time);
      }
      // Alg. 4 elasticity.
      if (ctx.elastic != nullptr) {
        ctx.elastic->OnBatchCompleted(report.w, report.num_tuples,
                                      report.num_keys);
        ctx.map_tasks = ctx.elastic->map_tasks();
        ctx.reduce_tasks = ctx.elastic->reduce_tasks();
      }

      if (t + 1 == tenants_.size() && durable_ != nullptr &&
          options_.store.fsync == FsyncPolicy::kBatch) {
        // The kBatch durability point, once every tenant's batch of this
        // heartbeat is appended and before the last report is published:
        // everything up to and including this heartbeat is on disk; a crash
        // before it loses only the current batches' (torn) appends.
        WarnIfFailed(durable_->Sync(), "durable sync");
      }
      // The published batch's verdict, explained once, a pure function of
      // the report: the autopsy row, the adapt controller, the journal
      // outcome and the run summary all read it from the report.
      report.autopsy = ExplainBatch(report, options_.obs.autopsy);
      if (observe) Observe(tenant, report, start);

      // Telemetry → partitioning feedback (src/adapt/): the controller sees
      // this batch's report and verdict; an approved switch is applied here
      // — after Seal of this batch, before Begin of the next — so no
      // in-flight batch ever mixes techniques.
      if (ctx.adapt != nullptr) {
        const AdaptiveDecision decision =
            ctx.adapt->OnBatchCompleted(report, report.autopsy);
        if (decision.switch_now) {
          ctx.ApplyTechniqueSwitch(decision);
          summary.technique_switches.push_back(RunSummary::TechniqueSwitch{
              report.batch_id, decision.from, decision.to, decision.reason});
          if (std::string_view(decision.reason) == "skew") {
            ++summary.technique_switches_up;
          } else {
            ++summary.technique_switches_down;
          }
          if (journal_ != nullptr) {
            JournalSwitch js;
            js.owner = owner;
            js.after_batch = report.batch_id;
            js.from = static_cast<int32_t>(decision.from);
            js.to = static_cast<int32_t>(decision.to);
            js.reason = decision.reason;
            WarnIfFailed(journal_->AppendSwitch(js), "journal: switch append");
          }
        }
      }
      if (journal_ != nullptr) {
        // The published batch's fingerprint: signals, verdict, output hash.
        WarnIfFailed(
            journal_->AppendOutcome(owner, OutcomeFrom(report, report.autopsy)),
            "journal: outcome append");
      }
      summary.batches.push_back(std::move(report));
    }
    if (crashed_) break;

    // The pipeline accumulated every tenant's tuples, so its Alg. 1
    // estimates track the merged batch.
    if (merged != nullptr) ingest_estimates_.Feed(*merged, ingest_.get());
    if (journal_ != nullptr) {
      // Same cadence as the durable store: one journal durability point per
      // heartbeat covers every tenant's records.
      WarnIfFailed(journal_->SyncBatch(), "journal: sync");
    }
    if (HttpExporter* exporter = obs_->exporter(); exporter != nullptr) {
      HealthStatus health;
      health.data_loss = durable_recovery_.data_loss;
      for (const RunSummary& summary : summaries) {
        health.data_loss |= summary.data_loss;
      }
      health.init_status = init_status_.ok() ? "ok" : init_status_.ToString();
      health.last_batch_id = static_cast<int64_t>(batch_id);
      health.journal_lag_bytes =
          journal_ != nullptr ? journal_->unsynced_bytes() : 0;
      exporter->UpdateHealth(health);
    }
  }
  if (crashed_) mark_crashed();
  if (observe) obs_->OnRunEnd();
  return summaries;
}

Status MicroBatchEngine::VerifyRecoveryOfLastBatch() {
  if (!options_.replicate_input) {
    return Status::Invalid("replication disabled; enable replicate_input");
  }
  const QueryContext& ctx = *tenants_[0].ctx;
  if (ctx.last_replica == nullptr) {
    return Status::Invalid("no batch has been processed yet");
  }
  // Recompute from the replicated input blocks, exactly as the recovery
  // path would after losing the batch's state (§8) — over the cores that
  // are actually alive now, not the configured total: recovery after a node
  // loss runs on the shrunken cluster.
  BatchExecution redo = ctx.executor->Execute(
      *ctx.last_replica, ctx.reduce_tasks, PoolCores(), pool_.get());
  last_verify_recovery_cost_ = redo.map_makespan + redo.reduce_makespan;
  std::unordered_map<KeyId, double> original;
  for (const KV& kv : ctx.last_output) original[kv.key] = kv.value;
  if (redo.output.size() != ctx.last_output.size()) {
    return Status::Unknown("recomputed output cardinality mismatch");
  }
  for (const KV& kv : redo.output) {
    auto it = original.find(kv.key);
    if (it == original.end()) {
      return Status::Unknown("recomputed output contains unexpected key");
    }
    if (std::abs(it->second - kv.value) > 1e-9 * std::max(1.0, std::abs(it->second))) {
      return Status::Unknown("recomputed aggregate differs (not exactly-once)");
    }
  }
  return Status::OK();
}

}  // namespace prompt
