// Batch execution: runs the Map stage over data blocks, routes intermediate
// key clusters to Reduce buckets (Alg. 3 or hashing), runs the Reduce stage,
// and reports both real outputs and modeled/measured task durations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/reduce_allocator.h"
#include "engine/cost_model.h"
#include "engine/job.h"
#include "engine/scheduler.h"
#include "model/batch.h"
#include "obs/metrics_registry.h"

namespace prompt {

/// \brief How task durations are obtained.
enum class ExecutionMode {
  /// Durations come from the cost model; Map/Reduce logic still executes so
  /// query outputs are real, but timing is deterministic virtual time.
  kSimulated,
  /// Tasks run on a thread pool and durations are measured wall time.
  kReal,
};

/// \brief Everything observable about one executed batch.
struct BatchExecution {
  TimeMicros map_makespan = 0;
  TimeMicros reduce_makespan = 0;
  std::vector<TimeMicros> map_task_costs;
  std::vector<TimeMicros> reduce_task_costs;
  /// Completion time of each reduce task relative to reduce-stage start
  /// (Fig. 13's per-batch reduce-completion spread).
  std::vector<TimeMicros> reduce_completions;
  std::vector<uint64_t> bucket_tuples;
  std::vector<uint64_t> bucket_clusters;
  /// Exact per-key aggregates of this batch (consumed by the window state),
  /// bucket by bucket. The entry order is not part of the contract.
  std::vector<KV> output;

  TimeMicros processing_time() const { return map_makespan + reduce_makespan; }
};

class ThreadPool;

/// \brief Executes micro-batches for a fixed job.
class BatchExecutor {
 public:
  /// \param allocator routes each Map task's clusters to Reduce buckets;
  ///        not owned. Pass a PromptReduceAllocator for Prompt's processing
  ///        phase or HashReduceAllocator for the conventional shuffle.
  BatchExecutor(JobSpec job, CostModel cost_model, ReduceAllocator* allocator,
                ExecutionMode mode);

  /// Runs the Map and Reduce stages of `batch` with `reduce_tasks` buckets
  /// on `cores` cores. The number of Map tasks equals batch.blocks.size().
  BatchExecution Execute(const PartitionedBatch& batch, uint32_t reduce_tasks,
                         uint32_t cores, ThreadPool* pool = nullptr);

  /// Publishes per-task cost distributions and stage counters into
  /// `registry`. nullptr disables (the default) — Execute then records
  /// nothing beyond the returned BatchExecution. `labels` is appended to
  /// every registered series (multi-tenant runs pass {{"tenant", id}}).
  void BindMetrics(MetricsRegistry* registry, const MetricLabels& labels = {});

  const JobSpec& job() const { return job_; }

 private:
  JobSpec job_;
  CostModel cost_model_;
  ReduceAllocator* allocator_;
  ExecutionMode mode_;

  // Optional instrumentation handles (all null or all set).
  Counter* map_tasks_total_ = nullptr;
  Counter* reduce_tasks_total_ = nullptr;
  HistogramMetric* map_task_cost_us_ = nullptr;
  HistogramMetric* reduce_task_cost_us_ = nullptr;
};

}  // namespace prompt
