#include "engine/engine.h"

#include <algorithm>
#include <cmath>
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

/// The per-query slice of the engine options (QueryContext construction).
static QueryContextOptions QueryOptionsFrom(const EngineOptions& options) {
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

MicroBatchEngine::MicroBatchEngine(EngineOptions options, JobSpec job,
                                   std::unique_ptr<BatchPartitioner> partitioner,
                                   TupleSource* source)
    : options_(options), job_(std::move(job)), source_(source) {
  PROMPT_CHECK(partitioner != nullptr);
  PROMPT_CHECK(source_ != nullptr);
  PROMPT_CHECK(options_.batch_interval > 0);
  if (options_.adapt.enabled) {
    // The controller's calm test reads block-load and split-key signals, so
    // the partition-metrics pass must run regardless of what the caller set.
    options_.obs.collect_partition_metrics = true;
  }
  obs_ = std::make_unique<Observability>(options_.obs);
  if (!obs_->init_status().ok()) {
    PROMPT_LOG(kWarn) << "observability sink setup failed: "
                      << obs_->init_status().ToString();
  }
  // The single-tenant fast path: all per-query state (partitioner, window,
  // controllers, estimates) lives in one QueryContext the run loop drives.
  query_ = std::make_unique<QueryContext>(
      /*id=*/"default", QueryOptionsFrom(options_), job_,
      std::move(partitioner), obs_->registry());
  if (options_.mode == ExecutionMode::kReal) {
    pool_ = std::make_unique<ThreadPool>(options_.cores);
  }
  if (options_.store.enabled()) {
    // The durable tier backs the §8 BatchStore; no store without a cluster.
    options_.cluster_enabled = true;
  }
  if (options_.cluster_enabled) {
    cluster_ = std::make_unique<SimulatedCluster>(options_.cluster);
    store_ = std::make_unique<BatchStore>(cluster_.get());
  }
  if (options_.store.enabled()) {
    auto durable = DurableBlockStore::Open(options_.store);
    if (durable.ok()) {
      durable_ = std::move(durable).ValueUnsafe();
      durable_->BindMetrics(obs_->registry());
      store_->AttachDurable(durable_.get(), /*owner=*/0);
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
  if (options_.journal.enabled()) {
    const int32_t type = query_->current_technique;
    std::optional<PartitionerType> technique;
    if (type >= 0) technique = static_cast<PartitionerType>(type);
    auto journal = JournalWriter::Open(
        options_.journal, WriteSingleManifest({options_, job_, technique}));
    if (journal.ok()) {
      journal_ = std::move(journal).ValueUnsafe();
    } else {
      // Recording was explicitly requested; running unrecorded would break
      // the operator's replay guarantee silently. Same contract as the
      // durable store: surface a construction failure.
      Status failed = Status::IOError(
          "journal " + options_.journal.dir + " cannot be opened: " +
          journal.status().ToString());
      PROMPT_LOG(kError) << failed.ToString();
      if (init_status_.ok()) init_status_ = failed;
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

  const uint32_t cores =
      std::max<uint32_t>(1, cluster_->total_alive_cores());
  for (uint64_t id : durable_->LiveBatches(/*owner=*/0)) {
    Result<std::string> bytes = durable_->Get(/*owner=*/0, id);
    if (!bytes.ok()) {
      PROMPT_LOG(kWarn) << "recovery: cannot read batch " << id << ": "
                        << bytes.status().ToString();
      durable_recovery_.data_loss = true;
      continue;
    }
    Result<PartitionedBatch> decoded = DecodeBatch(*bytes);
    if (!decoded.ok()) {
      PROMPT_LOG(kWarn) << "recovery: cannot decode batch " << id << ": "
                        << decoded.status().ToString();
      durable_recovery_.data_loss = true;
      continue;
    }
    PartitionedBatch batch = std::move(decoded).ValueUnsafe();
    // Deterministic re-execution: partitioned input + the same reduce logic
    // give bit-identical per-key aggregates, so the recovered window equals
    // an uninterrupted run over the surviving batches.
    BatchExecution exec = query_->executor->Execute(
        batch, query_->reduce_tasks, cores, pool_.get());
    query_->window->AddBatch(std::move(exec.output));
    // Memory-tier placement only — the log already holds this batch, and
    // re-appending on every restart would grow the segments without bound.
    if (Result<uint32_t> placed = store_->Restore(batch); !placed.ok()) {
      PROMPT_LOG(kWarn) << "recovery: replica placement for batch " << id
                        << " failed: " << placed.status().ToString();
    }
    query_->window_state_nodes.push_back(
        QueryContext::WindowReplica{id, PickStateNode(id)});
    while (query_->window_state_nodes.size() > query_->window->depth()) {
      query_->window_state_nodes.pop_front();
    }
    ++durable_recovery_.batches_recovered;
    durable_recovery_.first_recovered_batch =
        std::min(durable_recovery_.first_recovered_batch, id);
    durable_recovery_.last_recovered_batch =
        std::max(durable_recovery_.last_recovered_batch, id);
    query_->next_batch_id = std::max(query_->next_batch_id, id + 1);
  }
  if (durable_recovery_.batches_recovered > 0) {
    // Resume the virtual clock where the crashed run's batching left off.
    next_batch_start_ =
        static_cast<TimeMicros>(durable_recovery_.last_recovered_batch + 1) *
        options_.batch_interval;
    PROMPT_LOG(kInfo) << "recovered " << durable_recovery_.batches_recovered
                      << " batch(es) [" << durable_recovery_.first_recovered_batch
                      << ".." << durable_recovery_.last_recovered_batch
                      << "] from " << options_.store.dir
                      << (durable_recovery_.data_loss
                              ? " (torn tail truncated: data loss)"
                              : "");
  }
}

BatchReport MicroBatchEngine::ProcessBatch(PartitionedBatch batch,
                                           TimeMicros interval) {
  BatchReport report;
  report.batch_id = batch.batch_id;
  report.batch_interval = interval;
  report.num_tuples = batch.num_tuples;
  report.num_keys = batch.num_keys;
  report.map_tasks = static_cast<uint32_t>(batch.blocks.size());
  report.reduce_tasks = query_->reduce_tasks;
  report.partition_cost = batch.partition_cost;
  report.sketch = batch.sketch;
  query_->MarkTechnique(&report);

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
  if (store_ != nullptr) {
    Result<uint32_t> copies = store_->Write(batch);
    if (!copies.ok()) {
      PROMPT_LOG(kWarn) << "batch replication failed: "
                        << copies.status().ToString();
    }
    if (durable_ != nullptr) {
      report.store_append_us = durable_->last_append_micros();
      report.store_bytes_appended = store_->last_write_bytes();
      report.store_spilled_copies = store_->last_spill_count();
    }
    // Gauge, not an event count: while the cluster is degraded every batch
    // reports how many in-window batches sit below the configured factor
    // (a later top-up in this same batch refreshes the field).
    report.under_replicated_batches =
        store_->UnderReplicatedCount(options_.cluster.replication_factor);
  }

  // Failure-detection point 1: the batch boundary. Manual KillNode calls
  // made between runs are recovered here too.
  for (uint32_t node : pending_node_losses_) {
    RecoverFromNodeLoss(node, &report);
  }
  pending_node_losses_.clear();
  PollFaults(batch.batch_id, FaultPoint::kBatchStart, &report);
  if (crashed_) return report;  // the process died before any stage ran

  const uint32_t cluster_cores =
      cluster_ != nullptr ? std::max<uint32_t>(1, cluster_->total_alive_cores())
                          : options_.cores;
  const uint32_t map_cores =
      options_.cores_track_tasks
          ? std::max<uint32_t>(1, static_cast<uint32_t>(batch.blocks.size()))
          : cluster_cores;
  const uint32_t reduce_cores =
      options_.cores_track_tasks ? std::max<uint32_t>(1, query_->reduce_tasks)
                                 : cluster_cores;

  // Execute both stages (scheduler uses the smaller of the two core counts
  // internally per stage via two calls).
  BatchExecution exec;
  {
    // BatchExecutor schedules each stage with one core count; when the two
    // differ (elasticity), run it with map cores and rescale the reduce
    // stage below.
    exec = query_->executor->Execute(batch, query_->reduce_tasks, map_cores, pool_.get());
    if (reduce_cores != map_cores) {
      StageSchedule rs = ScheduleStage(exec.reduce_task_costs, reduce_cores);
      exec.reduce_makespan = rs.makespan;
      exec.reduce_completions = std::move(rs.completion);
    }
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
  replay_current |= PollFaults(batch.batch_id, FaultPoint::kMapStage, &report);
  replay_current |=
      PollFaults(batch.batch_id, FaultPoint::kReduceStage, &report);
  if (crashed_) return report;  // died mid-stage: this batch never completes
  if (replay_current) {
    Result<BatchExecution> redo =
        store_ != nullptr
            ? ReplayBatchFromStore(batch.batch_id, &report)
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

  // Extra queries run their Map/Reduce stages over the same blocks
  // sequentially (one shared cluster), extending the batch's processing
  // time the way consecutive Spark jobs on one context would.
  for (ExtraQuery& extra : extra_queries_) {
    BatchExecution extra_exec =
        extra.executor->Execute(batch, query_->reduce_tasks, map_cores, pool_.get());
    report.processing_time +=
        extra_exec.map_makespan + extra_exec.reduce_makespan;
    extra.window->AddBatch(std::move(extra_exec.output));
  }
  if (!extra_queries_.empty()) {
    report.w = static_cast<double>(report.processing_time) /
               static_cast<double>(interval);
  }

  if (options_.replicate_input) {
    query_->last_replica = std::make_unique<PartitionedBatch>(batch);
    query_->last_output = exec.output;
  }
  if (store_ != nullptr && batch.batch_id >= job_.window_batches) {
    // §8 GC rule: a batch expiring from the window can never be replayed
    // again, so its replicas are dropped.
    store_->Evict(batch.batch_id - job_.window_batches);
  }
  if (journal_ != nullptr) {
    // Commutative hash of the per-key window contribution, taken at the
    // exact hand-off into the window: equal hashes every batch imply equal
    // window aggregates between record and replay.
    report.output_hash = HashBatchOutput(exec.output);
  }
  query_->window->AddBatch(std::move(exec.output));
  if (cluster_ != nullptr) {
    // Track which node hosts this batch's reduce-bucket state, mirroring the
    // window's retained history: losing that node later triggers a replay.
    query_->window_state_nodes.push_back(QueryContext::WindowReplica{
        batch.batch_id, PickStateNode(batch.batch_id)});
    while (query_->window_state_nodes.size() > query_->window->depth()) {
      query_->window_state_nodes.pop_front();
    }
  }
  if (durable_ != nullptr && options_.store.fsync == FsyncPolicy::kBatch) {
    // The kBatch durability point: everything up to and including this
    // batch is on disk once this returns; a crash before it loses only the
    // current batch's (torn) append.
    if (Status st = durable_->Sync(); !st.ok()) {
      PROMPT_LOG(kWarn) << "durable sync failed: " << st.ToString();
    }
  }
  return report;
}

Result<size_t> MicroBatchEngine::AddQuery(JobSpec job) {
  if (run_started_) {
    return Status::Invalid("AddQuery must be called before the first Run");
  }
  ExtraQuery extra;
  extra.executor = std::make_unique<BatchExecutor>(
      job, CostModel(options_.cost), query_->allocator.get(), options_.mode);
  extra.executor->BindMetrics(obs_->registry());
  extra.window = std::make_unique<WindowState>(job.reduce, job.window_batches);
  extra.job = std::move(job);
  extra_queries_.push_back(std::move(extra));
  return extra_queries_.size() - 1;
}

Result<const WindowState*> MicroBatchEngine::QueryWindow(
    size_t query_id) const {
  if (query_id >= extra_queries_.size()) {
    return Status::OutOfRange("no such query id");
  }
  return static_cast<const WindowState*>(extra_queries_[query_id].window.get());
}

Status MicroBatchEngine::KillNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->KillNode(node));
  // The node's memory died with it: its replica copies are gone for good
  // (reviving later restores cores only). Recovery — replay of in-window
  // batches and the replication top-up — runs at the next batch boundary,
  // the engine's failure-detection point.
  store_->DropNode(node);
  pending_node_losses_.push_back(node);
  return Status::OK();
}

Status MicroBatchEngine::ReviveNode(uint32_t node) {
  if (cluster_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_RETURN_NOT_OK(cluster_->ReviveNode(node));
  if (query_->elastic != nullptr) {
    query_->elastic->OnCapacityChange(cluster_->total_alive_cores());
    query_->map_tasks = query_->elastic->map_tasks();
    query_->reduce_tasks = query_->elastic->reduce_tasks();
  }
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

bool MicroBatchEngine::PollFaults(uint64_t batch_id, FaultPoint point,
                                  BatchReport* report) {
  if (fault_ == nullptr || cluster_ == nullptr) return false;
  bool killed = false;
  auto journal_fault = [&](const FaultEvent& event) {
    if (journal_ == nullptr) return;
    JournalFault jf;
    jf.batch_id = batch_id;
    jf.point = static_cast<uint8_t>(point);
    jf.kind = static_cast<uint8_t>(event.kind);
    jf.target = event.target;
    if (Status st = journal_->AppendFault(jf); !st.ok()) {
      PROMPT_LOG(kWarn) << "journal: fault append failed: " << st.ToString();
    }
  };
  for (const FaultEvent& event : fault_->Poll(batch_id, point, AliveNodes())) {
    if (event.kind == FaultKind::kCrash) {
      journal_fault(event);
      // The whole process dies: the durable store keeps only what was
      // fsynced (plus a torn tail for recovery to truncate); everything in
      // memory — window, replicas, this batch — is gone. The run stops.
      PROMPT_LOG(kWarn) << "fault injected: process crash at batch "
                        << batch_id;
      crashed_ = true;
      crashed_at_batch_ = batch_id;
      if (durable_ != nullptr) {
        if (Status st = durable_->SimulateCrash(/*tear_tail=*/true);
            !st.ok()) {
          PROMPT_LOG(kWarn) << "crash simulation failed: " << st.ToString();
        }
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
      store_->DropNode(event.target);
      RecoverFromNodeLoss(event.target, report);
      killed = true;
    } else if (event.kind == FaultKind::kReviveNode) {
      Status st = cluster_->ReviveNode(event.target);
      if (!st.ok()) continue;
      journal_fault(event);
      // The node rejoins with empty memory: capacity is back (the elastic
      // controller may scale out again) and the extra room lets the store
      // restore the replication factor.
      TopUpStoreReplication(report);
      if (query_->elastic != nullptr) {
        query_->elastic->OnCapacityChange(cluster_->total_alive_cores());
        query_->map_tasks = query_->elastic->map_tasks();
        query_->reduce_tasks = query_->elastic->reduce_tasks();
      }
    }
  }
  return killed;
}

void MicroBatchEngine::RecoverFromNodeLoss(uint32_t node, BatchReport* report) {
  report->recovered_from_failure = true;
  // Replay every in-window batch whose reduce-bucket state lived on the dead
  // node: recompute from replicated input and patch its window contribution.
  for (size_t i = 0; i < query_->window_state_nodes.size(); ++i) {
    QueryContext::WindowReplica& wr = query_->window_state_nodes[i];
    if (wr.node != node) continue;
    Result<BatchExecution> redo = ReplayBatchFromStore(wr.batch_id, report);
    if (!redo.ok()) {
      PROMPT_LOG(kWarn) << "in-window batch " << wr.batch_id
                        << " unrecoverable: " << redo.status().ToString();
      report->unrecoverable = true;
      continue;
    }
    Status st = query_->window->ReplaceBatch(i, std::move(redo->output));
    if (!st.ok()) {
      PROMPT_LOG(kWarn) << "window patch failed for batch " << wr.batch_id
                        << ": " << st.ToString();
      continue;
    }
    wr.node = PickStateNode(wr.batch_id);  // re-home on a survivor
  }
  // Re-replicate under-replicated batches back toward the target factor.
  TopUpStoreReplication(report);
  // Alg. 4 capacity feed: the controller sees the reduced cluster now, not
  // d batches of degraded W later.
  if (query_->elastic != nullptr) {
    query_->elastic->OnCapacityChange(cluster_->total_alive_cores());
    query_->map_tasks = query_->elastic->map_tasks();
    query_->reduce_tasks = query_->elastic->reduce_tasks();
  }
}

Result<BatchExecution> MicroBatchEngine::ReplayBatchFromStore(
    uint64_t batch_id, BatchReport* report) {
  if (store_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch replica, store_->Read(batch_id));
  // Alg. 2-flavoured re-plan: the replica's block count assumed the original
  // cluster; repack to at most the cores that survive.
  const uint32_t cores = std::max<uint32_t>(1, cluster_->total_alive_cores());
  RepackBlocks(&replica, cores);
  BatchExecution redo =
      query_->executor->Execute(replica, query_->reduce_tasks, cores, pool_.get());
  report->recovery_time += redo.map_makespan + redo.reduce_makespan;
  ++report->batches_replayed;
  return redo;
}

void MicroBatchEngine::TopUpStoreReplication(BatchReport* report) {
  if (store_ == nullptr) return;
  TopUpResult topup =
      store_->TopUpReplication(options_.cluster.replication_factor);
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
  if (store_ == nullptr) return Status::Invalid("cluster mode disabled");
  PROMPT_ASSIGN_OR_RETURN(PartitionedBatch batch, store_->Read(batch_id));
  BatchExecution redo = query_->executor->Execute(
      batch, query_->reduce_tasks,
      std::max<uint32_t>(1, cluster_->total_alive_cores()), pool_.get());
  return std::move(redo.output);
}

RunSummary MicroBatchEngine::Run(uint32_t num_batches) {
  run_started_ = true;
  RunSummary summary;
  if (crashed_) {
    summary.crashed = true;
    summary.crashed_at_batch = crashed_at_batch_;
    return summary;
  }
  summary.batches.reserve(num_batches);
  const bool observe = obs_->active();
  if (observe) obs_->OnRunStart(num_batches);

  for (uint32_t i = 0; i < num_batches; ++i) {
    const TimeMicros interval = current_interval_;
    const TimeMicros start = next_batch_start_;
    const TimeMicros end = start + interval;
    next_batch_start_ = end;

    // --- Batching phase: accumulate this interval's tuples. ---
    query_->partitioner->Begin(query_->map_tasks, start, end);
    if (ingest_ != nullptr) ingest_->BeginBatch(start, end);
    auto sink = [&](const Tuple& t) {
      // The flight-recorder tap: every consumed tuple, in consumption
      // order, before shard routing — replay re-forms identical batches
      // from `ts < end` at any shard count.
      if (journal_ != nullptr) journal_->RecordTuple(t);
      if (ingest_ != nullptr) {
        ingest_->Ingest(t);
      } else {
        query_->partitioner->OnTuple(t);
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

    PartitionedBatch batch;
    if (ingest_ != nullptr) {
      const AccumulatedBatch& merged = ingest_->SealBatch();
      if (!query_->partitioner->SealAccumulated(merged, query_->next_batch_id, &batch)) {
        // No quasi-sorted fast path: replay the merged batch through the
        // per-tuple interface in quasi-sorted order.
        merged.Replay([](KeyId) { return true; },
                      [&](const Tuple& t) { query_->partitioner->OnTuple(t); });
        batch = query_->partitioner->Seal(query_->next_batch_id);
      }
      ++query_->next_batch_id;
      // The merge runs in the release slack alongside Alg. 2, on the same
      // critical path toward the heartbeat — account it as decision cost.
      batch.partition_cost += ingest_->last_metrics().merge_latency;
    } else {
      batch = query_->partitioner->Seal(query_->next_batch_id++);
    }

    // Flight recorder: journal the sealed batch's tuples and wall-clock
    // inputs *before* processing, so a crashed batch's stream is on record;
    // under --replay the recorded inputs are injected here instead.
    const BatchEnv batch_env = SettleBatchEnv(
        options_.journal.inject, /*owner=*/0, &batch,
        ingest_ != nullptr ? &ingest_->last_metrics() : nullptr);
    if (journal_ != nullptr) {
      if (Status st = journal_->AppendBatchTuples(batch.batch_id); !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: tuple append failed: " << st.ToString();
      }
      if (Status st = journal_->AppendEnv(0, batch_env); !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: env append failed: " << st.ToString();
      }
    }

    // --- Processing phase: starts at the heartbeat, or when the pipeline
    // frees if earlier batches are still running (queueing). ---
    const TimeMicros proc_start = std::max(end, query_->pipeline_free_at);
    BatchReport report = ProcessBatch(std::move(batch), interval);
    if (crashed_) {
      // The process died inside this batch: its report is never published
      // (no window contribution, no feedback) — exactly what an external
      // SIGKILL leaves behind.
      summary.crashed = true;
      summary.crashed_at_batch = crashed_at_batch_;
      // The journal is the observer of the crash, not its victim: flush so
      // the crashed batch's tuples (already appended above) survive for
      // replay. An external SIGKILL would lose the unsynced tail instead —
      // and replay then runs exactly the published batches, consistently.
      if (journal_ != nullptr) {
        if (Status st = journal_->Sync(); !st.ok()) {
          PROMPT_LOG(kWarn) << "journal: crash flush failed: " << st.ToString();
        }
      }
      break;
    }
    report.queue_delay = proc_start - end;
    query_->pipeline_free_at = proc_start + report.processing_time;
    report.latency = query_->pipeline_free_at - start;
    if (ingest_ != nullptr) {
      // Fold the batching phase's per-shard stats into the report; this
      // embedded form is the only way callers see per-shard ingest state.
      report.ingest = ingest_->last_metrics();
      report.has_ingest = true;
      InjectIngestEnv(options_.journal.inject, /*owner=*/0, batch_env,
                      &report);
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
    // Receiver estimates for Alg. 1 (N_est, K_avg).
    query_->ObserveBatchEstimates(report.num_tuples, report.num_keys);
    if (ingest_ != nullptr) {
      ingest_->UpdateEstimates(static_cast<uint64_t>(query_->est_tuples),
                               static_cast<uint64_t>(query_->est_keys));
    }

    // Batch resizing baseline [12]: step the next interval toward the
    // fixed point processing_time = target * interval.
    if (query_->resizer != nullptr) {
      current_interval_ =
          query_->resizer->OnBatchCompleted(interval, report.processing_time);
    }

    // Alg. 4 elasticity.
    if (query_->elastic != nullptr) {
      ScaleDecision d = query_->elastic->OnBatchCompleted(
          report.w, report.num_tuples, report.num_keys);
      (void)d;
      query_->map_tasks = query_->elastic->map_tasks();
      query_->reduce_tasks = query_->elastic->reduce_tasks();
    }

    if (observe) {
      if (obs_->tracing_active()) {
        RecordBatchTrace(report, interval, start);
        obs_->OnBatchComplete(
            report, obs_->recorder()->EndBatch(report.num_tuples,
                                               report.num_keys,
                                               report.latency));
      } else {
        obs_->OnBatchComplete(report, BatchTrace{});
      }
    }

    // Telemetry → partitioning feedback (src/adapt/): the controller sees
    // this batch's report and autopsy verdict; an approved switch is applied
    // here — after Seal of this batch, before Begin of the next — so no
    // in-flight batch ever mixes techniques.
    if (query_->adapt != nullptr) {
      const BatchAutopsy autopsy = ExplainBatch(report, options_.obs.autopsy);
      const AdaptiveDecision decision =
          query_->adapt->OnBatchCompleted(report, autopsy);
      if (decision.switch_now) {
        query_->ApplyTechniqueSwitch(decision);
        summary.technique_switches.push_back(RunSummary::TechniqueSwitch{
            report.batch_id, decision.from, decision.to, decision.reason});
        if (std::string_view(decision.reason) == "skew") {
          ++summary.technique_switches_up;
        } else {
          ++summary.technique_switches_down;
        }
        if (journal_ != nullptr) {
          JournalSwitch js;
          js.owner = 0;
          js.after_batch = report.batch_id;
          js.from = static_cast<int32_t>(decision.from);
          js.to = static_cast<int32_t>(decision.to);
          js.reason = decision.reason;
          if (Status st = journal_->AppendSwitch(js); !st.ok()) {
            PROMPT_LOG(kWarn) << "journal: switch append failed: "
                              << st.ToString();
          }
        }
      }
    }

    if (journal_ != nullptr) {
      // The published batch's fingerprint: signals, verdict, output hash.
      // ExplainBatch is a pure function of the report, so this recompute
      // costs nothing in determinism even when the adaptive path already
      // ran it.
      const BatchAutopsy autopsy = ExplainBatch(report, options_.obs.autopsy);
      if (Status st = journal_->AppendOutcome(0, OutcomeFrom(report, autopsy));
          !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: outcome append failed: "
                          << st.ToString();
      }
      if (Status st = journal_->SyncBatch(); !st.ok()) {
        PROMPT_LOG(kWarn) << "journal: sync failed: " << st.ToString();
      }
    }

    if (HttpExporter* exporter = obs_->exporter(); exporter != nullptr) {
      HealthStatus health;
      health.data_loss = durable_recovery_.data_loss || summary.data_loss;
      health.init_status =
          init_status_.ok() ? "ok" : init_status_.ToString();
      health.last_batch_id = static_cast<int64_t>(report.batch_id);
      health.journal_lag_bytes =
          journal_ != nullptr ? journal_->unsynced_bytes() : 0;
      exporter->UpdateHealth(health);
    }

    summary.batches.push_back(report);
  }
  if (observe) obs_->OnRunEnd();
  return summary;
}

void MicroBatchEngine::RecordBatchTrace(const BatchReport& report,
                                        TimeMicros interval,
                                        TimeMicros batch_start) {
  TraceRecorder* rec = obs_->recorder();
  rec->BeginBatch(report.batch_id, batch_start);

  // Depth-0 spans tile the end-to-end latency:
  //   latency = interval + queue_delay + overflow + map + reduce (+ extras).
  rec->AddSpan("accumulate", 0, interval, 0);
  if (report.technique_switched) {
    // Annotation marking the first batch the switched-to technique sealed.
    std::string note = "adapt_switch:";
    note += report.switched_from >= 0
                ? PartitionerTypeName(
                      static_cast<PartitionerType>(report.switched_from))
                : "?";
    note += "->";
    note += report.technique >= 0
                ? PartitionerTypeName(
                      static_cast<PartitionerType>(report.technique))
                : "?";
    rec->AddSpan(note, 0, 0, 1);
  }
  if (report.has_ingest) {
    // Wall-clock annotations from the sharded batching phase, nested under
    // the accumulate interval (the barrier and merge run at the cut-off).
    rec->AddSpan("ingest_route", 0, report.ingest.ingest_wall, 1);
    rec->AddSpan("seal_barrier", interval, report.ingest.seal_barrier_latency,
                 1);
    rec->AddSpan("kway_merge", interval, report.ingest.merge_latency, 1);
  }
  if (report.sketch.sketch_mode) {
    // Annotation marking a heavy-hitter batch with its coverage (promille,
    // spans carry no float payload): sketch_mode:987 = 98.7% head coverage.
    std::string note = "sketch_mode:";
    note += std::to_string(
        static_cast<int>(report.sketch.head_coverage() * 1000.0));
    rec->AddSpan(note, 0, 0, 1);
  }
  if (report.store_append_us > 0) {
    // Durable-log append of the sealed batch, right at the cut-off (wall
    // clock, annotation depth: the virtual timeline is unaffected).
    rec->AddSpan("store_append", interval, report.store_append_us, 1);
  }
  // The B-BPFI plan runs inside the early-release slack; only its overflow
  // reaches the critical path (as the "plan_overflow" span below).
  const TimeMicros scaled_cost = static_cast<TimeMicros>(
      options_.cost.partition_cost_scale *
      static_cast<double>(report.partition_cost));
  const TimeMicros in_slack = scaled_cost - report.partition_overflow;
  if (in_slack > 0) rec->AddSpan("plan", interval - in_slack, in_slack, 1);

  TimeMicros cursor = interval;
  if (report.queue_delay > 0) {
    rec->AddSpan("queue", cursor, report.queue_delay, 0);
    cursor += report.queue_delay;
  }
  if (report.partition_overflow > 0) {
    rec->AddSpan("plan_overflow", cursor, report.partition_overflow, 0);
    cursor += report.partition_overflow;
  }
  rec->AddSpan("map", cursor, report.map_makespan, 0);
  cursor += report.map_makespan;
  rec->AddSpan("reduce", cursor, report.reduce_makespan, 0);
  cursor += report.reduce_makespan;
  // Recovery work (replays, re-replication) done while this batch held the
  // pipeline — modeled as running after the ordinary stages.
  if (report.recovery_time > 0) {
    rec->AddSpan("recovery", cursor, report.recovery_time, 0);
    cursor += report.recovery_time;
  }
  // Extra queries sharing the batching phase extend processing sequentially.
  const TimeMicros extras =
      report.processing_time -
      (report.partition_overflow + report.map_makespan +
       report.reduce_makespan + report.recovery_time);
  if (extras > 0) rec->AddSpan("extra_queries", cursor, extras, 0);
}

Status MicroBatchEngine::VerifyRecoveryOfLastBatch() {
  if (!options_.replicate_input) {
    return Status::Invalid("replication disabled; enable replicate_input");
  }
  if (query_->last_replica == nullptr) {
    return Status::Invalid("no batch has been processed yet");
  }
  // Recompute from the replicated input blocks, exactly as the recovery
  // path would after losing the batch's state (§8) — over the cores that
  // are actually alive now, not the configured total: recovery after a node
  // loss runs on the shrunken cluster.
  const uint32_t recovery_cores =
      cluster_ != nullptr ? std::max<uint32_t>(1, cluster_->total_alive_cores())
                          : options_.cores;
  BatchExecution redo = query_->executor->Execute(*query_->last_replica, query_->reduce_tasks,
                                           recovery_cores, pool_.get());
  last_verify_recovery_cost_ = redo.map_makespan + redo.reduce_makespan;
  std::unordered_map<KeyId, double> original;
  for (const KV& kv : query_->last_output) original[kv.key] = kv.value;
  if (redo.output.size() != query_->last_output.size()) {
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
