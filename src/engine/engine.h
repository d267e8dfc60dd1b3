// MicroBatchEngine: the distributed micro-batch stream-processing substrate
// (a from-scratch Spark-Streaming-style engine) that hosts the partitioning
// techniques under test.
#pragma once

#include <deque>
#include <functional>
#include <memory>
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
#include "replay/journal.h"
#include "stats/metrics.h"
#include "tenant/query_context.h"
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
  /// recovers the surviving in-window batches on construction. Implies
  /// cluster mode (the store backs the §8 BatchStore).
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

/// \brief Ties together source → partitioner → executor → window, repeating
/// the batching/processing pipeline with batching of batch x+1 overlapped
/// with processing of batch x (paper Fig. 2).
class MicroBatchEngine {
 public:
  /// \param source not owned; must outlive the engine.
  MicroBatchEngine(EngineOptions options, JobSpec job,
                   std::unique_ptr<BatchPartitioner> partitioner,
                   TupleSource* source);
  ~MicroBatchEngine();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(MicroBatchEngine);

  /// Runs `num_batches` batch intervals and returns per-batch reports.
  /// Callable repeatedly; state (window, clock, queue) carries over.
  RunSummary Run(uint32_t num_batches);

  /// Current windowed query answer. Checkpoint() is available through this
  /// reference; restoring goes through RestoreWindow below.
  const WindowState& window() const { return *query_->window; }

  /// Replaces the window state from a WindowState::Checkpoint() blob (e.g.
  /// on planned restart). The checkpoint's window geometry must match.
  Status RestoreWindow(const std::string& checkpoint) {
    return query_->window->Restore(checkpoint);
  }

  /// Registers an additional streaming query sharing this engine's batching
  /// phase: the same partitioned blocks feed every query's Map/Reduce
  /// pipeline sequentially (key-based partitioning is query-agnostic, so
  /// batching work is done once). Must be called before the first Run.
  /// Returns an id for QueryWindow().
  Result<size_t> AddQuery(JobSpec job);

  /// Windowed answer of an extra query registered with AddQuery.
  Result<const WindowState*> QueryWindow(size_t query_id) const;

  /// Current parallelism (after any elastic scaling).
  uint32_t map_tasks() const { return query_->map_tasks; }
  uint32_t reduce_tasks() const { return query_->reduce_tasks; }

  /// The per-query state bag this engine drives (the single-tenant fast
  /// path: exactly one context, built in the constructor).
  const QueryContext& query_context() const { return *query_; }

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
  const BatchStore* store() const { return store_.get(); }

  // ---- Durable store (options.store.dir non-empty) ----

  /// What the constructor recovered from the store directory.
  struct DurableRecovery {
    /// In-window batches decoded, re-executed and re-admitted to the window.
    uint64_t batches_recovered = 0;
    uint64_t first_recovered_batch = UINT64_MAX;
    uint64_t last_recovered_batch = 0;
    /// Torn-tail records truncated away during the segment scan.
    uint64_t torn_records = 0;
    /// True when the log showed evidence of dropped writes (torn tail):
    /// the recovered window is complete only up to the fsync watermark.
    bool data_loss = false;
  };
  const DurableRecovery& durable_recovery() const { return durable_recovery_; }
  const DurableBlockStore* durable_store() const { return durable_.get(); }

  /// The flight recorder (null unless options.journal.dir is set).
  const JournalWriter* journal() const { return journal_.get(); }

  /// Not-OK when the constructor could not deliver something the options
  /// demanded — today: a requested durable store that failed to open (the
  /// engine then runs memory-only and data_loss is set). Callers that rely
  /// on durability must check this before the first Run.
  const Status& init_status() const { return init_status_; }

  /// True once a `crash:` fault fired; the engine refuses further Runs
  /// (build a fresh engine over the same store dir to model the restart).
  bool crashed() const { return crashed_; }

  const EngineOptions& options() const { return options_; }

  /// The engine's observability stack (registry, trace recorder, sinks).
  /// Configure through EngineOptions::obs; attach extra sinks/observers
  /// before the first Run.
  Observability* observability() { return obs_.get(); }
  const Observability* observability() const { return obs_.get(); }

  /// Fan-out shortcut for observability()->AddObserver.
  void AddObserver(Observer* observer) { obs_->AddObserver(observer); }

 private:
  BatchReport ProcessBatch(PartitionedBatch batch, TimeMicros interval);
  /// Lays the batch's timeline spans into the trace recorder (tracing only).
  void RecordBatchTrace(const BatchReport& report, TimeMicros interval,
                        TimeMicros batch_start);

  // ---- In-loop fault handling (src/fault/) ----
  /// Node ids currently alive (empty outside cluster mode).
  std::vector<uint32_t> AliveNodes() const;
  /// Deterministic alive node chosen to host a batch's reduce-bucket state.
  uint32_t PickStateNode(uint64_t batch_id) const;
  /// Applies the injector's kill/revive events scheduled at `point`; kills
  /// run the full §8 recovery routine. Returns true when a kill fired.
  bool PollFaults(uint64_t batch_id, FaultPoint point, BatchReport* report);
  /// §8 recovery after `node` died: drop its replica copies, replay
  /// in-window batches whose bucket state lived there, top up replication,
  /// and feed the reduced capacity to the elastic controller.
  void RecoverFromNodeLoss(uint32_t node, BatchReport* report);
  /// Re-executes one batch from surviving store replicas on the currently
  /// alive cores (input repacked to fit, Alg. 2 style). Charges the redo to
  /// report->recovery_time and counts it in batches_replayed.
  Result<BatchExecution> ReplayBatchFromStore(uint64_t batch_id,
                                              BatchReport* report);
  /// Re-replicates under-replicated batches toward the configured factor and
  /// charges the copy traffic to report->recovery_time.
  void TopUpStoreReplication(BatchReport* report);
  /// Injected per-task delays/failures for this batch: applies the bounded
  /// retry policy and speculative re-execution to the map-task costs.
  /// Returns true when some task exhausted its retry budget (the batch must
  /// be replayed from replicated input).
  bool ApplyTaskPerturbations(uint64_t batch_id, uint32_t map_cores,
                              BatchExecution* exec, BatchReport* report);

  EngineOptions options_;
  JobSpec job_;
  TupleSource* source_;
  /// All per-query mutable state: the live partitioner, window, elasticity /
  /// resizing / adaptive controllers, EWMA estimates, replication
  /// bookkeeping. The engine drives exactly one context; the multi-tenant
  /// scheduler (src/tenant/) drives N of them over one shared ingest.
  std::unique_ptr<QueryContext> query_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<BatchStore> store_;
  std::unique_ptr<DurableBlockStore> durable_;
  std::unique_ptr<ParallelIngestPipeline> ingest_;  // ingest.shards > 1
  std::unique_ptr<Observability> obs_;

  // Extra queries sharing the batching phase (AddQuery).
  struct ExtraQuery {
    JobSpec job;
    std::unique_ptr<BatchExecutor> executor;
    std::unique_ptr<WindowState> window;
  };
  std::vector<ExtraQuery> extra_queries_;
  bool run_started_ = false;

  TimeMicros current_interval_ = 0;
  TimeMicros next_batch_start_ = 0;
  bool have_pending_ = false;
  Tuple pending_{};  ///< one-tuple lookahead across batch boundaries

  TimeMicros last_verify_recovery_cost_ = 0;

  // ---- Fault-injection / recovery state (cluster mode) ----
  std::unique_ptr<FaultInjector> fault_;
  /// Nodes killed through the public KillNode API whose recovery runs at the
  /// next batch boundary (the engine's failure-detection point).
  std::vector<uint32_t> pending_node_losses_;

  /// Replays surviving batches from the durable log into the window (ctor).
  void RecoverFromDurableStore();

  // ---- Flight recorder (src/replay/) ----
  std::unique_ptr<JournalWriter> journal_;

  DurableRecovery durable_recovery_;
  Status init_status_;
  bool crashed_ = false;
  uint64_t crashed_at_batch_ = UINT64_MAX;
};

}  // namespace prompt
