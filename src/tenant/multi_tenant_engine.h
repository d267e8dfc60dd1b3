// Multi-tenant query serving: N query specs over MicroBatchEngine's one
// batch loop. Create maps the options and specs onto the loop — one tenant
// per spec, with its own technique or adaptive ladder, key filter, weight,
// window, `tenant`-labeled metrics, time series and autopsy rows — and Run
// regroups the loop's reports per tenant.
//
// Each heartbeat:
//   1. the scheduler hands every tenant its deterministic slot share
//      (weights only — a tenant's overflow queues behind its *own* slots);
//   2. the shared source drains once; tuples fan out to each tenant whose
//      KeyFilter matches (sharded ingest merges once, then each tenant
//      seals its slice of the merged quasi-sorted runs);
//   3. every tenant seals and processes its own batch on its granted slots.
// Virtual time is per tenant (QueryContext::pipeline_free_at), so a noisy
// neighbor's queueing never shows up in a calm tenant's latency — the
// isolation property bench/multi_tenant_isolation asserts.
//
// Cluster mode, fault injection, elasticity and batch resizing run in the
// loop, but these options do not expose them yet: they would need their
// own manifest keys. Without cluster mode the store logs each tenant's
// batches under its own owner id.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "obs/batch_report.h"
#include "query/multi_query.h"
#include "replay/journal.h"
#include "workload/source.h"

namespace prompt {

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
  ~MultiTenantEngine() = default;
  PROMPT_DISALLOW_COPY_AND_ASSIGN(MultiTenantEngine);

  /// Runs `num_batches` heartbeats. Callable repeatedly; per-tenant state
  /// (windows, virtual clocks, adaptive rungs) carries over, results cover
  /// this call's batches only.
  MultiTenantRunSummary Run(uint32_t num_batches);

  size_t tenants() const { return engine_->tenants(); }
  const std::string& id(size_t tenant) const { return context(tenant).id(); }
  /// The tenant's complete per-query state (window, technique, clocks).
  const QueryContext& context(size_t tenant) const {
    return engine_->context(tenant);
  }
  const WindowState& window(size_t tenant) const {
    return *context(tenant).window;
  }

  const TenantScheduler& scheduler() const { return engine_->scheduler(); }
  Observability* observability() { return engine_->observability(); }
  const Observability* observability() const {
    return engine_->observability();
  }
  const MultiTenantEngineOptions& options() const { return options_; }

  /// What Create() recovered from the shared store directory, across all
  /// tenants.
  using DurableRecovery = MicroBatchEngine::DurableRecovery;
  const DurableRecovery& durable_recovery() const {
    return engine_->durable_recovery();
  }
  const DurableBlockStore* durable_store() const {
    return engine_->durable_store();
  }
  /// The flight recorder, or null when options.journal is disabled.
  const JournalWriter* journal() const { return engine_->journal(); }

 private:
  MultiTenantEngine(MultiTenantEngineOptions options,
                    std::unique_ptr<MicroBatchEngine> engine)
      : options_(std::move(options)), engine_(std::move(engine)) {}

  MultiTenantEngineOptions options_;
  std::unique_ptr<MicroBatchEngine> engine_;
};

}  // namespace prompt
