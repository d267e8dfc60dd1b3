// Multi-tenant query serving: N QueryContexts multiplexed over one shared
// ingest pipeline by a weighted-fair TenantScheduler.
//
// Each heartbeat:
//   1. the scheduler hands every tenant its deterministic slot share
//      (weights only — a tenant's overflow queues behind its *own* slots);
//   2. the shared source drains once; tuples fan out to each tenant whose
//      KeyFilter matches (sharded ingest merges once, then each tenant
//      replays its slice of the merged quasi-sorted runs);
//   3. every tenant seals and processes its own batch on its granted slots,
//      with its own window, technique/adaptive-ladder state, autopsy stream
//      and tenant-labeled metrics.
// Virtual time is per tenant (QueryContext::pipeline_free_at), so a noisy
// neighbor's queueing never shows up in a calm tenant's latency — the
// isolation property bench/multi_tenant_isolation asserts.
//
// Not in this engine (single-tenant only for now): cluster mode / fault
// injection, elasticity, batch resizing, report-row sinks. The shared
// substrate here is the ingest pipeline and the slot pool.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "ingest/pipeline.h"
#include "obs/autopsy.h"
#include "obs/observability.h"
#include "query/multi_query.h"
#include "replay/journal.h"
#include "tenant/query_context.h"
#include "tenant/tenant_scheduler.h"
#include "workload/source.h"

namespace prompt {

class ThreadPool;

/// \brief Shared-substrate configuration. Per-query knobs (technique,
/// adaptive ladder, weight, filter, window) come from each TenantQuerySpec.
struct MultiTenantEngineOptions {
  /// Heartbeat period — the shared slide every tenant's window rides
  /// (ParseQueryFile rejects specs whose SLIDEs differ).
  TimeMicros batch_interval = Seconds(1);
  /// Task-slot pool the scheduler divides each heartbeat (the cluster's
  /// cores). Must be >= the number of tenants.
  uint32_t total_slots = 16;
  /// Per-tenant Map parallelism (data blocks per batch) and Reduce buckets.
  uint32_t map_tasks = 8;
  uint32_t reduce_tasks = 8;
  CostModelParams cost;
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// Alg. 3 Worst-Fit Reduce allocation for every tenant (vs hashing).
  bool use_prompt_reduce = true;
  /// Early Batch Release slack as a fraction of the interval (§4.2).
  double early_release_frac = 0.05;
  /// Per-tenant instability bound on queueing delay, in intervals.
  double unstable_queue_intervals = 8.0;
  /// Shared ingest pipeline configuration. ingest.shards = 1 routes tuples
  /// straight into each matching tenant's partitioner; > 1 accumulates once
  /// (Alg. 1 sharded) and each tenant replays its filtered slice of the
  /// merge.
  IngestOptions ingest;
  /// Shared observability stack. Autopsy rows carry a `tenant` column; the
  /// exporter serves per-tenant stores at /timeseries.json?tenant=<id>.
  ObservabilityOptions obs;
  /// Template for adaptive tenants: thresholds, window and partitioner
  /// config come from here; enabled/d/candidates come from each spec.
  AdaptiveOptions adapt_base;
  /// Durable block store shared by every tenant (src/store/): batch ids are
  /// namespaced by tenant index, each tenant's sealed batch is logged
  /// before processing, and Create() recovers every tenant's surviving
  /// in-window batches from the same directory.
  StoreOptions store;
  /// Flight recorder (src/replay/): when journal.dir is set, every tuple,
  /// sealed-batch boundary, per-tenant outcome fingerprint, adaptive switch
  /// and wall-clock input is journaled; outcome records are namespaced by
  /// tenant index, mirroring the durable store's owner namespace.
  JournalOptions journal;
};

/// \brief What a multi-tenant journal records (engine/manifest.h): the
/// shared options and one `tenant` line per spec.
struct MultiRunManifest {
  MultiTenantEngineOptions options;
  std::vector<TenantQuerySpec> specs;
};
JournalManifest WriteMultiManifest(const MultiRunManifest& run);
/// The strict read; a recorded store is pointed at `store_dir`.
Result<MultiRunManifest> ReadMultiManifest(const JournalManifest& manifest,
                                           const std::string& store_dir);

/// \brief One tenant's results for a Run call.
struct TenantRunResult {
  std::string id;
  RunSummary summary;
  /// Slots granted to this tenant over the run's heartbeats.
  uint64_t slots_granted = 0;
  /// Dominant autopsy verdict of each batch, in batch order (the per-tenant
  /// autopsy stream in summary form; the JSONL rows carry the full detail).
  std::vector<BatchCause> causes;
  /// causes[] histogram, indexed by BatchCause.
  std::array<uint64_t, kBatchCauses> cause_counts{};
};

/// \brief All tenants' results for a Run call, tenant-indexed.
struct MultiTenantRunSummary {
  std::vector<TenantRunResult> tenants;
};

/// \brief The multi-tenant serving engine.
class MultiTenantEngine {
 public:
  /// \param source not owned; must outlive the engine. Invalid when specs is
  /// empty, ids collide, or the slot pool cannot cover one slot per tenant.
  static Result<std::unique_ptr<MultiTenantEngine>> Create(
      MultiTenantEngineOptions options, std::vector<TenantQuerySpec> specs,
      TupleSource* source);
  ~MultiTenantEngine();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(MultiTenantEngine);

  /// Runs `num_batches` heartbeats. Callable repeatedly; per-tenant state
  /// (windows, virtual clocks, adaptive rungs) carries over, results cover
  /// this call's batches only.
  MultiTenantRunSummary Run(uint32_t num_batches);

  size_t tenants() const { return tenants_.size(); }
  const std::string& id(size_t tenant) const;
  /// The tenant's complete per-query state (window, technique, clocks).
  const QueryContext& context(size_t tenant) const;
  const WindowState& window(size_t tenant) const;

  const TenantScheduler& scheduler() const { return *scheduler_; }
  Observability* observability() { return obs_.get(); }
  const Observability* observability() const { return obs_.get(); }
  const MultiTenantEngineOptions& options() const { return options_; }

  /// What Create() recovered from the shared store directory.
  struct DurableRecovery {
    uint64_t batches_recovered = 0;  ///< across all tenants
    uint64_t torn_records = 0;
    /// Torn tail or undecodable record: at least one logged batch did not
    /// survive (reported, never fabricated).
    bool data_loss = false;
  };
  const DurableRecovery& durable_recovery() const { return durable_recovery_; }
  const DurableBlockStore* durable_store() const { return durable_.get(); }
  /// The flight recorder, or null when options.journal is disabled.
  const JournalWriter* journal() const { return journal_.get(); }

 private:
  struct Tenant {
    TenantQuerySpec spec;
    std::unique_ptr<QueryContext> ctx;
    // Tenant-labeled instrumentation (null when metrics are disabled).
    Counter* batches_total = nullptr;
    Counter* tuples_total = nullptr;
    HistogramMetric* latency_us = nullptr;
    Gauge* slots_gauge = nullptr;
    Gauge* w_gauge = nullptr;
  };

  MultiTenantEngine(MultiTenantEngineOptions options, TupleSource* source);

  /// The lean per-tenant processing phase: overflow accounting, partition
  /// metrics, Map/Reduce execution on `slots` cores, window update.
  BatchReport ProcessTenantBatch(Tenant* tenant, PartitionedBatch batch,
                                 TimeMicros interval, uint32_t slots);

  MultiTenantEngineOptions options_;
  TupleSource* source_;
  std::unique_ptr<Observability> obs_;
  std::unique_ptr<TenantScheduler> scheduler_;
  std::unique_ptr<ParallelIngestPipeline> ingest_;  // ingest.shards > 1
  std::unique_ptr<ThreadPool> pool_;                // mode == kReal
  std::unique_ptr<DurableBlockStore> durable_;      // store.dir non-empty
  std::unique_ptr<JournalWriter> journal_;          // journal.dir non-empty
  DurableRecovery durable_recovery_;
  std::vector<Tenant> tenants_;

  TimeMicros next_batch_start_ = 0;
  bool have_pending_ = false;
  Tuple pending_{};  ///< one-tuple lookahead across batch boundaries

  // Shared-ingest EWMA estimates (merged totals across all tenants).
  double est_tuples_ = 0;
  double est_keys_ = 0;
  bool est_init_ = false;
};

}  // namespace prompt
