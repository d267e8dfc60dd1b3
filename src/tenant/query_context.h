// QueryContext: one query's mutable state — the live partitioner, the
// window, the per-query controllers (elasticity, batch resizing, adaptive
// switching), the EWMA workload estimates feeding Alg. 1, and the
// replication bookkeeping. MicroBatchEngine's batch loop drives one context
// per tenant over one shared ingest pipeline; the single-query engine is
// its one-tenant case.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "adapt/adaptive_controller.h"
#include "core/elastic_controller.h"
#include "core/partitioner.h"
#include "core/reduce_allocator.h"
#include "engine/batch_resizer.h"
#include "engine/execution.h"
#include "engine/job.h"
#include "engine/window.h"
#include "obs/batch_report.h"
#include "obs/metrics_registry.h"

namespace prompt {

/// \brief The per-query slice of EngineOptions: everything a QueryContext
/// needs to build and drive its own pipeline stages (QueryOptionsFrom in
/// engine/engine.h); shared-substrate settings (cores, ingest shards,
/// cluster, faults) stay with the engine.
struct QueryContextOptions {
  uint32_t map_tasks = 8;
  uint32_t reduce_tasks = 8;
  CostModelParams cost;
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// Alg. 3 Worst-Fit Reduce allocation (true) vs conventional hashing.
  bool use_prompt_reduce = true;
  bool elasticity_enabled = false;
  ElasticityOptions elasticity;
  bool batch_resizing_enabled = false;
  BatchResizerOptions batch_resizer;
  /// Drift-aware adaptive technique switching (src/adapt/).
  AdaptiveOptions adapt;
};

/// \brief One streaming query's complete mutable state.
///
/// The context is a state bag driven by an engine, not an engine itself: the
/// batch loop (MicroBatchEngine::RunTenants) decides when to Begin/Seal the
/// partitioner, execute stages and feed the controllers; the context owns
/// the objects and the cross-batch bookkeeping so N queries can coexist
/// without sharing any of it.
class QueryContext {
 public:
  /// \param registry nullptr disables component metrics; `labels` is
  /// appended to every metric the context's components register (a
  /// multi-tenant engine's tenants pass {{"tenant", id}}).
  QueryContext(std::string id, const QueryContextOptions& options, JobSpec job,
               std::unique_ptr<BatchPartitioner> partitioner,
               MetricsRegistry* registry, MetricLabels labels = {});
  PROMPT_DISALLOW_COPY_AND_ASSIGN(QueryContext);

  const std::string& id() const { return id_; }
  const QueryContextOptions& options() const { return options_; }
  const MetricLabels& labels() const { return labels_; }

  /// Steps the EWMA workload estimates (Alg. 1's N_est / K_avg feed,
  /// alpha = 0.4) with one completed batch and forwards them to the live
  /// partitioner. A shared ingest pipeline is fed from the merged batch
  /// instead (MergedBatchEstimates in engine/engine.h).
  void ObserveBatchEstimates(uint64_t tuples, uint64_t keys);

  /// Swaps the live partitioner for `decision.to` between heartbeats: the
  /// outgoing technique sealed the batch that just completed, the incoming
  /// one begins the next batch, so no in-flight batch mixes techniques. The
  /// new instance is warm-started from the EWMA estimates.
  void ApplyTechniqueSwitch(const AdaptiveDecision& decision);

  /// Stamps the live technique into the report, plus the switch annotation
  /// when ApplyTechniqueSwitch ran since the previous batch.
  void MarkTechnique(BatchReport* report);

  // ---- Owned per-query components. Public: the engines drive these
  // directly, exactly as they drove the flat members before the extraction.
  JobSpec job;
  std::unique_ptr<BatchPartitioner> partitioner;
  std::unique_ptr<ReduceAllocator> allocator;
  std::unique_ptr<BatchExecutor> executor;
  std::unique_ptr<WindowState> window;
  std::unique_ptr<ElasticController> elastic;        ///< elasticity_enabled
  std::unique_ptr<BatchIntervalController> resizer;  ///< batch_resizing_enabled
  std::unique_ptr<AdaptivePartitionController> adapt;  ///< adapt.enabled

  // ---- Cross-batch scalar state.
  uint32_t map_tasks;
  uint32_t reduce_tasks;
  /// PartitionerType of the live partitioner (-1 when its name maps to no
  /// factory type); stamped into every BatchReport.
  int32_t current_technique = -1;
  bool pending_switch_mark = false;
  int32_t switched_from = -1;
  uint64_t next_batch_id = 0;
  /// When this query's processing pipeline frees (virtual time). Per-query:
  /// under the weighted-fair scheduler one tenant's overflow queues behind
  /// its own slots, never another tenant's.
  TimeMicros pipeline_free_at = 0;

  // EWMA estimates feeding Alg. 1's N_est and K_avg.
  double est_tuples = 0;
  double est_keys = 0;
  bool est_init = false;

  // Replica of the last batch's input + output for recovery verification.
  std::unique_ptr<PartitionedBatch> last_replica;
  std::vector<KV> last_output;

  /// Which alive node hosts each in-window batch's reduce-bucket state,
  /// oldest first, mirroring the window's retained history.
  struct WindowReplica {
    uint64_t batch_id;
    uint32_t node;
  };
  std::deque<WindowReplica> window_state_nodes;

 private:
  std::string id_;
  QueryContextOptions options_;
  MetricLabels labels_;
};

}  // namespace prompt
