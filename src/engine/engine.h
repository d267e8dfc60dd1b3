// MicroBatchEngine: the distributed micro-batch stream-processing substrate
// (a from-scratch Spark-Streaming-style engine) that hosts the partitioning
// techniques under test. One batch loop serves every registered query: each
// heartbeat drains the source once, seals each query's batch, processes it
// on the query's share of the cores, and journals and observes it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adapt/adaptive_controller.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/elastic_controller.h"
#include "engine/batch_resizer.h"
#include "engine/cluster.h"
#include "core/partitioner.h"
#include "core/reduce_allocator.h"
#include "engine/execution.h"
#include "engine/window.h"
#include "fault/fault_injector.h"
#include "ingest/pipeline.h"
#include "obs/batch_report.h"
#include "obs/observability.h"
#include "query/multi_query.h"
#include "replay/journal.h"
#include "stats/ewma.h"
#include "stats/metrics.h"
#include "tenant/query_context.h"
#include "tenant/tenant_scheduler.h"
#include "workload/source.h"

namespace prompt {

/// \brief Engine configuration.
struct EngineOptions {
  /// Heartbeat period; fixed per run to honor the application's latency SLA
  /// (the paper's design constraint 1).
  TimeMicros batch_interval = Seconds(1);
  /// Initial Map parallelism = number of data blocks per batch (the paper
  /// bounds blocks by available cores).
  uint32_t map_tasks = 8;
  uint32_t reduce_tasks = 8;
  /// Simulated processing cores available to the scheduler.
  uint32_t cores = 8;
  /// When true (elasticity experiments), each stage gets as many cores as it
  /// has tasks — resources are "available on-demand" (§3.1 constraint 2).
  bool cores_track_tasks = false;
  /// Early Batch Release slack as a fraction of the interval (§4.2, ≤5%).
  double early_release_frac = 0.05;
  CostModelParams cost;
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// Alg. 3 Worst-Fit Reduce allocation (true) vs conventional hashing.
  bool use_prompt_reduce = true;
  bool elasticity_enabled = false;
  ElasticityOptions elasticity;
  /// Drift-aware adaptive technique switching (src/adapt/): when
  /// adapt.enabled, the engine feeds each batch's report + autopsy verdict
  /// to an AdaptivePartitionController and swaps the live partitioner
  /// across adapt.candidates between heartbeats. The run's initial
  /// partitioner must map to a factory type in the candidate set (the
  /// engine warns and runs static otherwise).
  AdaptiveOptions adapt;
  /// Observability configuration: partition-quality metrics, the metrics
  /// registry, per-batch structured traces and their sinks (src/obs/).
  ObservabilityOptions obs;
  /// Deterministic fault injection + in-loop recovery (src/fault/): a seeded
  /// schedule of node kills/revives and task delays/failures polled at stage
  /// boundaries, plus the retry/speculation policies applied when they fire.
  FaultOptions faults;
  /// §8 consistency: replicate each batch's input blocks so a failed batch
  /// can be recomputed exactly-once.
  bool replicate_input = false;
  /// Run over a simulated multi-node cluster instead of a flat core pool:
  /// replicated block placement, locality-aware Map scheduling, per-node
  /// batch replicas, node-failure injection (KillNode).
  bool cluster_enabled = false;
  ClusterOptions cluster;
  /// Durable block store (src/store/): when store.dir is set the engine
  /// opens an append-only segment log under it, every sealed batch is
  /// logged before any stage runs, and a fresh engine over the same dir
  /// recovers the surviving in-window batches on construction. The
  /// single-query constructor turns cluster mode on with it (the store
  /// backs the §8 BatchStore).
  StoreOptions store;
  /// Flight recorder (src/replay/): when journal.dir is set the engine
  /// records everything needed to reproduce this run bit-identically — the
  /// consumed tuple stream, per-batch outcome fingerprints, wall-clock
  /// inputs, fault firings, adaptive switches and the effective options
  /// manifest. journal.inject carries a recorded run's wall-clock inputs
  /// back in during --replay.
  JournalOptions journal;
  /// Adaptive batch resizing (Das et al. [12]) — a comparison baseline that
  /// grows/shrinks the batch interval instead of fixing it. Mutually
  /// exclusive with elasticity in experiments (the paper contrasts them).
  bool batch_resizing_enabled = false;
  BatchResizerOptions batch_resizer;
  /// Declare the run unstable once queueing delay exceeds this many
  /// intervals (back-pressure would have engaged).
  double unstable_queue_intervals = 8.0;
  /// Batching-phase ingest configuration (shard count, ring capacity,
  /// accumulator kind, Alg. 1 tuning): see IngestOptions in
  /// ingest/pipeline.h. ingest.shards = 1 keeps the seed's single-threaded
  /// path (source drained straight into the partitioner); > 1 routes tuples
  /// by hash(key) % shards to that many accumulator workers and k-way
  /// merges at the cut-off.
  IngestOptions ingest;
};

// BatchReport — the per-batch observability record — lives in
// obs/batch_report.h so report writers and sinks don't depend on the engine.

/// \brief Summary over a run.
struct RunSummary {
  std::vector<BatchReport> batches;
  bool stable = true;
  /// First batch id at which the queue exceeded the instability bound
  /// (UINT64_MAX when the run stayed stable).
  uint64_t unstable_at_batch = UINT64_MAX;

  // ---- Fault-tolerance aggregates over the run (sums of the per-batch
  // BatchReport recovery fields; zeros on a failure-free run).
  uint64_t batches_replayed = 0;
  uint64_t tasks_retried = 0;
  uint64_t tasks_speculated = 0;
  /// Node losses detected and handled inside the run loop.
  uint64_t failures_recovered = 0;
  TimeMicros total_recovery_time = 0;
  /// Worst single-batch recovery latency (the §8 recovery-latency metric).
  TimeMicros max_recovery_time = 0;
  /// True when any batch needed a replica that no longer existed
  /// (replication factor too low): exactly-once was not preserved.
  bool data_loss = false;

  /// A `crash:` fault fired: the run stopped at `crashed_at_batch` and the
  /// durable store dropped its unsynced tail (reopen the dir to recover).
  bool crashed = false;
  uint64_t crashed_at_batch = UINT64_MAX;

  // ---- Adaptive technique switching (src/adapt/), zeros on static runs.
  struct TechniqueSwitch {
    uint64_t after_batch;  ///< switch decided after this batch completed
    PartitionerType from;
    PartitionerType to;
    std::string reason;  ///< "skew" (escalation) or "calm" (de-escalation)
  };
  std::vector<TechniqueSwitch> technique_switches;
  uint64_t technique_switches_up = 0;    ///< escalations toward robustness
  uint64_t technique_switches_down = 0;  ///< de-escalations toward cheapness

  double MeanW(size_t warmup = 0) const;
  double MeanThroughputTuplesPerSec(TimeMicros interval,
                                    size_t warmup = 0) const;
};

/// The per-query slice of the engine options.
QueryContextOptions QueryOptionsFrom(const EngineOptions& options);

/// \brief One query the batch loop drives: the slice of the key space it
/// consumes, its weight in the core pool and the labels its metrics and
/// report stream carry (none for the single-query entry point).
struct TenantSetup {
  std::string id;
  QueryContextOptions options;
  JobSpec job;
  std::unique_ptr<BatchPartitioner> partitioner;
  KeyFilter filter;
  uint32_t weight = 1;
  MetricLabels labels;
};

/// \brief What the batch loop runs: the shared options, the tenants, and
/// the manifest its journal records (each entry point writes its own list).
struct EngineSetup {
  EngineOptions options;
  std::vector<TenantSetup> tenants;
  JournalManifest manifest;
};

/// \brief The batch loop's seal step over a sharded pipeline's merged batch
/// (StreamReceiver's too): the quasi-sorted fast path when the partitioner
/// has one and `filter` takes every key, else the filter's slice replayed
/// through OnTuple, then Seal.
PartitionedBatch SealMerged(BatchPartitioner* partitioner,
                            const AccumulatedBatch& merged,
                            const KeyFilter& filter, uint64_t batch_id);

/// \brief A published report's trace: depth-0 spans tile report.latency
/// (accumulate, then queue, plan_overflow, map, reduce and recovery as they
/// apply) and depth-1 spans annotate the interval (adapt_switch, the
/// sharded-ingest route, seal barrier and merge, sketch_mode, store_append,
/// and the plan inside the release slack). `batch_start` is the interval's
/// start on the engine clock; `partition_cost_scale` the cost model's
/// (EngineOptions::cost). Labels are the caller's to set.
BatchTrace TraceOf(const BatchReport& report, TimeMicros batch_start,
                   double partition_cost_scale);

/// \brief The Alg. 1 estimate feed of a sharded ingest pipeline (the batch
/// loop's and StreamReceiver's): EWMAs (alpha = 0.4) of each merged batch's
/// tuples and keys. In sketch mode num_keys() counts only promoted head
/// runs; feeding that back would collapse K_avg toward 1, blow up the auto
/// promote threshold (4 * N_est / K_avg) and lock the sketch out of
/// promoting, so the HLL estimate stands in.
class MergedBatchEstimates {
 public:
  /// Steps the EWMAs with `merged` and hands them to `pipeline` for its
  /// next BeginBatch.
  void Feed(const AccumulatedBatch& merged, ParallelIngestPipeline* pipeline);

 private:
  Ewma tuples_{0.4};
  Ewma keys_{0.4};
};

/// \brief Ties together source → partitioner → executor → window, repeating
/// the batching/processing pipeline with batching of batch x+1 overlapped
/// with processing of batch x (paper Fig. 2), for every registered query.
///
/// Each heartbeat: the scheduler divides the core pool by weight; the
/// source drains once, fanning tuples out to each tenant whose filter
/// matches (or into the shared sharded pipeline, merged once); then tenant
/// by tenant the batch is sealed, journaled, persisted, processed on the
/// tenant's share, fed back to its controllers, observed on its report
/// stream and fingerprinted. Virtual time is per tenant
/// (QueryContext::pipeline_free_at): one tenant's overflow queues behind
/// its own share only.
class MicroBatchEngine {
 public:
  /// The single-query entry point: one KEYS-all tenant. A store implies
  /// cluster mode here (the durable tier backs the §8 BatchStore).
  /// \param source not owned; must outlive the engine.
  MicroBatchEngine(EngineOptions options, JobSpec job,
                   std::unique_ptr<BatchPartitioner> partitioner,
                   TupleSource* source);
  /// The loop over `setup.tenants` (at least one). Tenant i's durable
  /// records and journal outcomes are namespaced by owner i. Without cluster
  /// mode a store is written per owner directly; with it, through each
  /// tenant's BatchStore. Fails into init_status() (e.g. a duplicate tenant
  /// id, or more tenants than cores).
  MicroBatchEngine(EngineSetup setup, TupleSource* source);
  ~MicroBatchEngine();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(MicroBatchEngine);

  /// Runs `num_batches` heartbeats; one summary per tenant, covering this
  /// call's batches. Callable repeatedly; state (windows, clocks, queues)
  /// carries over.
  std::vector<RunSummary> RunTenants(uint32_t num_batches);
  /// The first (for the single-query entry point, the only) tenant's part.
  RunSummary Run(uint32_t num_batches) {
    return std::move(RunTenants(num_batches).front());
  }

  size_t tenants() const { return tenants_.size(); }
  /// Tenant `i`'s complete per-query state (window, technique, clocks).
  const QueryContext& context(size_t i) const { return *tenants_[i].ctx; }
  const TenantScheduler& scheduler() const { return *scheduler_; }

  // ---- The first tenant's view (the single-query entry point's query).

  /// Current windowed query answer. Checkpoint() is available through this
  /// reference; restoring goes through RestoreWindow below.
  const WindowState& window() const { return *tenants_[0].ctx->window; }

  /// Replaces the window state from a WindowState::Checkpoint() blob (e.g.
  /// on planned restart). The checkpoint's window geometry must match.
  Status RestoreWindow(const std::string& checkpoint) {
    return tenants_[0].ctx->window->Restore(checkpoint);
  }

  /// Current parallelism (after any elastic scaling).
  uint32_t map_tasks() const { return tenants_[0].ctx->map_tasks; }
  uint32_t reduce_tasks() const { return tenants_[0].ctx->reduce_tasks; }

  /// §8 fault tolerance: recomputes the most recent batch from its
  /// replicated input blocks and verifies the recomputed output matches the
  /// original (exactly-once at batch granularity). Requires
  /// options.replicate_input. In cluster mode the recomputation is costed
  /// over the cluster's *currently alive* cores, not the configured total.
  Status VerifyRecoveryOfLastBatch();

  /// Virtual cost of the last VerifyRecoveryOfLastBatch recomputation
  /// (map + reduce makespans on the surviving cores). 0 before first call.
  TimeMicros last_verify_recovery_cost() const {
    return last_verify_recovery_cost_;
  }

  // ---- Cluster mode (options.cluster_enabled) ----

  /// Injects a node failure / recovery into the simulated cluster.
  Status KillNode(uint32_t node);
  Status ReviveNode(uint32_t node);

  /// Recomputes a batch's per-key output from the replicas surviving in the
  /// BatchStore — the §8 recovery path after losing a batch's state.
  /// KeyError if the batch already expired from the store; Unknown when all
  /// replicas died with their nodes.
  Result<std::vector<KV>> RecomputeBatchFromStore(uint64_t batch_id);

  const SimulatedCluster* cluster() const { return cluster_.get(); }
  const BatchStore* store() const { return tenants_[0].store.get(); }

  // ---- Durable store (options.store.dir non-empty) ----

  /// What the constructor recovered from the store directory.
  struct DurableRecovery {
    /// In-window batches decoded, re-executed and re-admitted to the
    /// windows, across all tenants.
    uint64_t batches_recovered = 0;
    uint64_t first_recovered_batch = UINT64_MAX;
    uint64_t last_recovered_batch = 0;
    /// Torn-tail records truncated away during the segment scan.
    uint64_t torn_records = 0;
    /// True when the log showed evidence of dropped writes (torn tail or an
    /// unreadable record): the recovered windows are complete only up to
    /// the fsync watermark.
    bool data_loss = false;
  };
  const DurableRecovery& durable_recovery() const { return durable_recovery_; }
  const DurableBlockStore* durable_store() const { return durable_.get(); }

  /// The flight recorder (null unless options.journal.dir is set).
  const JournalWriter* journal() const { return journal_.get(); }

  /// Not-OK when the constructor could not deliver something the setup
  /// demanded: tenants the scheduler rejects, a requested durable store
  /// that failed to open (the engine then runs memory-only, unrecorded, and
  /// data_loss is set) or a journal that failed to open. Callers must
  /// check this before the first Run.
  const Status& init_status() const { return init_status_; }

  /// True once a `crash:` fault fired; the engine refuses further Runs
  /// (build a fresh engine over the same store dir to model the restart).
  bool crashed() const { return crashed_; }

  const EngineOptions& options() const { return options_; }

  /// The engine's observability stack (registry, time series, sinks).
  /// Configure through EngineOptions::obs; attach extra sinks/observers
  /// before the first Run.
  Observability* observability() { return obs_.get(); }
  const Observability* observability() const { return obs_.get(); }

  /// Fan-out shortcut for observability()->AddObserver.
  void AddObserver(Observer* observer) { obs_->AddObserver(observer); }

 private:
  struct Tenant {
    std::unique_ptr<QueryContext> ctx;
    KeyFilter filter;
    Observability::Stream* stream = nullptr;
    /// Cluster mode: the tenant's replicated batches (§8), over the shared
    /// cluster and, with a store, logged under the tenant's owner id.
    std::unique_ptr<BatchStore> store;
    /// Nodes lost since this tenant last ran; recovered at its next batch
    /// boundary (the failure-detection point).
    std::vector<uint32_t> pending_node_losses;
  };

  /// Begins every tenant's batch and drains the source up to `end`; returns
  /// the sharded pipeline's merged batch, or null when tuples went straight
  /// into the partitioners.
  const AccumulatedBatch* Drain(TimeMicros start, TimeMicros end);
  /// Feeds `sink` every source tuple with ts < end, each through the
  /// journal tap first.
  template <typename Sink>
  void DrainUntil(TimeMicros end, Sink sink);
  PartitionedBatch Seal(Tenant& tenant, const AccumulatedBatch* merged);
  /// The cluster-free store path: logs a sealed batch under `owner` before
  /// any stage runs and drops the record leaving the window.
  void Persist(uint32_t owner, const QueryContext& ctx,
               const PartitionedBatch& batch);
  BatchReport ProcessBatch(Tenant& tenant, PartitionedBatch batch,
                           TimeMicros interval, uint32_t share);
  /// Publishes a report on the tenant's stream, with its trace when
  /// something consumes traces.
  void Observe(const Tenant& tenant, const BatchReport& report,
               TimeMicros batch_start);
  /// The cores a tenant's stages run on: its scheduler share of the pool,
  /// which in cluster mode is the cores alive now.
  uint32_t CoresFor(uint32_t share) const;
  /// The whole pool: the configured cores, or the alive cluster cores.
  uint32_t PoolCores() const;

  // ---- In-loop fault handling (src/fault/) ----
  /// Node ids currently alive (empty outside cluster mode).
  std::vector<uint32_t> AliveNodes() const;
  /// Deterministic alive node chosen to host a batch's reduce-bucket state.
  uint32_t PickStateNode(uint64_t batch_id) const;
  /// Records which alive node hosts `batch_id`'s reduce-bucket state,
  /// mirroring the window's retained history.
  void TrackStateNode(QueryContext& ctx, uint64_t batch_id);
  /// Feeds the alive cluster capacity to the query's elastic controller.
  void FeedCapacity(QueryContext& ctx);
  /// A node died: every tenant's replica copies on it are gone, and every
  /// tenant recovers from the loss at its next batch boundary.
  void LoseNode(uint32_t node);
  /// Applies the injector's kill/revive events scheduled at `point`; kills
  /// run the full §8 recovery routine for `tenant` now. Returns true when a
  /// kill fired.
  bool PollFaults(Tenant& tenant, uint64_t batch_id, FaultPoint point,
                  BatchReport* report);
  /// §8 recovery of `tenant` from its pending node losses: replay in-window
  /// batches whose bucket state lived there, top up replication, and feed
  /// the reduced capacity to the elastic controller.
  void RecoverNodeLosses(Tenant& tenant, BatchReport* report);
  /// Re-executes one batch from surviving store replicas on the currently
  /// alive cores (input repacked to fit, Alg. 2 style). Charges the redo to
  /// report->recovery_time and counts it in batches_replayed.
  Result<BatchExecution> ReplayBatchFromStore(Tenant& tenant,
                                              uint64_t batch_id,
                                              BatchReport* report);
  /// Re-replicates under-replicated batches toward the configured factor and
  /// charges the copy traffic to report->recovery_time.
  void TopUpStoreReplication(Tenant& tenant, BatchReport* report);
  /// Injected per-task delays/failures for this batch: applies the bounded
  /// retry policy and speculative re-execution to the map-task costs.
  /// Returns true when some task exhausted its retry budget (the batch must
  /// be replayed from replicated input).
  bool ApplyTaskPerturbations(uint64_t batch_id, uint32_t map_cores,
                              BatchExecution* exec, BatchReport* report);
  /// Replays surviving batches from the durable log into the windows.
  void RecoverFromDurableStore();

  EngineOptions options_;
  TupleSource* source_;
  std::unique_ptr<Observability> obs_;
  std::unique_ptr<TenantScheduler> scheduler_;
  /// Every query's mutable state, tenant-indexed (= store/journal owner).
  std::vector<Tenant> tenants_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<DurableBlockStore> durable_;
  std::unique_ptr<ParallelIngestPipeline> ingest_;  // shards > 1 or sketch
  MergedBatchEstimates ingest_estimates_;

  TimeMicros current_interval_ = 0;
  TimeMicros next_batch_start_ = 0;
  bool have_pending_ = false;
  Tuple pending_{};  ///< one-tuple lookahead across batch boundaries

  TimeMicros last_verify_recovery_cost_ = 0;

  std::unique_ptr<FaultInjector> fault_;

  // ---- Flight recorder (src/replay/) ----
  std::unique_ptr<JournalWriter> journal_;

  DurableRecovery durable_recovery_;
  Status init_status_;
  bool crashed_ = false;
  uint64_t crashed_at_batch_ = UINT64_MAX;
};

}  // namespace prompt
