#include "engine/execution.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/thread_pool.h"

namespace prompt {

namespace {

/// One Map task's output: its key clusters in first-emission order (the
/// list the allocator reads), each cluster's partial aggregate, and whether
/// the Map function emitted any key other than its tuple's.
struct MapTaskOutput {
  std::vector<KeyCluster> clusters;
  std::vector<double> partials;
  bool rekeyed = false;
};

/// Where a Reduce task finds one of its clusters.
struct ClusterRef {
  uint32_t task;
  uint32_t cluster;
};

/// Runs the Map function over a block and groups output into clusters
/// (same-key pairs, with split flags from the block reference table).
MapTaskOutput RunMapTask(const JobSpec& job, const DataBlock& block) {
  const ReduceFunction& reduce = *job.reduce;
  const double identity = reduce.Identity();
  MapTaskOutput out;
  out.clusters.reserve(block.cardinality());
  out.partials.reserve(block.cardinality());
  FlatMap<uint32_t> cluster_of(block.cardinality() + 8);
  std::vector<KV> emitted;
  emitted.reserve(2);
  // A block holds each key's tuples as one contiguous run, so consecutive
  // emissions mostly share a key and reuse its cluster without a lookup.
  uint32_t last = 0;
  for (const Tuple& t : block.tuples()) {
    emitted.clear();
    job.map->Map(t, &emitted);
    for (const KV& kv : emitted) {
      out.rekeyed |= kv.key != t.key;
      if (out.clusters.empty() || out.clusters[last].key != kv.key) {
        bool inserted = false;
        uint32_t& c = cluster_of.GetOrInsert(kv.key, &inserted);
        if (inserted) {
          c = static_cast<uint32_t>(out.clusters.size());
          out.clusters.push_back(KeyCluster{kv.key, 0, false});
          out.partials.push_back(identity);
        }
        last = c;
      }
      out.partials[last] = reduce.Combine(out.partials[last], kv.value);
      ++out.clusters[last].size;
    }
  }
  // Split flags from the block reference table (written at batching time).
  for (const KeyFragment& f : block.fragments()) {
    if (!f.split) continue;
    if (const uint32_t* c = cluster_of.Find(f.key)) out.clusters[*c].split = true;
  }
  return out;
}

/// Reduces one bucket's clusters, listed in Map-task order. A non-split
/// cluster is its key's only cluster in the batch and passes straight
/// through; split keys (every key, when `merge_all`) merge in task order.
/// `merging` counts the clusters that merge.
std::vector<KV> RunReduceTask(const ReduceFunction& reduce,
                              const std::vector<MapTaskOutput>& map_outputs,
                              const ClusterRef* first, const ClusterRef* last,
                              size_t merging, bool merge_all) {
  const double identity = reduce.Identity();
  std::vector<KV> out;
  out.reserve(static_cast<size_t>(last - first));
  FlatMap<uint32_t> entry_of(merging);
  for (const ClusterRef* ref = first; ref < last; ++ref) {
    const MapTaskOutput& task = map_outputs[ref->task];
    const KeyCluster& c = task.clusters[ref->cluster];
    const double partial = task.partials[ref->cluster];
    if (!c.split && !merge_all) {
      out.push_back(KV{c.key, reduce.Combine(identity, partial)});
      continue;
    }
    bool inserted = false;
    uint32_t& e = entry_of.GetOrInsert(c.key, &inserted);
    if (inserted) {
      e = static_cast<uint32_t>(out.size());
      out.push_back(KV{c.key, identity});
    }
    out[e].value = reduce.Combine(out[e].value, partial);
  }
  return out;
}

}  // namespace

BatchExecutor::BatchExecutor(JobSpec job, CostModel cost_model,
                             ReduceAllocator* allocator, ExecutionMode mode)
    : job_(std::move(job)),
      cost_model_(cost_model),
      allocator_(allocator),
      mode_(mode) {
  PROMPT_CHECK(allocator_ != nullptr);
}

void BatchExecutor::BindMetrics(MetricsRegistry* registry,
                                const MetricLabels& labels) {
  if (registry == nullptr) return;
  map_tasks_total_ = registry->GetCounter("prompt_map_tasks_total", labels);
  reduce_tasks_total_ =
      registry->GetCounter("prompt_reduce_tasks_total", labels);
  map_task_cost_us_ =
      registry->GetHistogram("prompt_map_task_cost_us", labels);
  reduce_task_cost_us_ =
      registry->GetHistogram("prompt_reduce_task_cost_us", labels);
}

BatchExecution BatchExecutor::Execute(const PartitionedBatch& batch,
                                      uint32_t reduce_tasks, uint32_t cores,
                                      ThreadPool* pool) {
  PROMPT_CHECK(reduce_tasks >= 1);
  PROMPT_CHECK(cores >= 1);
  BatchExecution exec;
  const size_t m = batch.blocks.size();
  const bool on_pool = mode_ == ExecutionMode::kReal && pool != nullptr;
  std::vector<MapTaskOutput> map_outputs(m);
  exec.map_task_costs.assign(m, 0);

  // --- Map stage ---
  if (on_pool) {
    for (size_t i = 0; i < m; ++i) {
      pool->Submit([this, i, &batch, &map_outputs, &exec] {
        Stopwatch watch;
        map_outputs[i] = RunMapTask(job_, batch.blocks[i]);
        exec.map_task_costs[i] = std::max<TimeMicros>(1, watch.ElapsedMicros());
      });
    }
    pool->WaitIdle();
  } else {
    for (size_t i = 0; i < m; ++i) {
      map_outputs[i] = RunMapTask(job_, batch.blocks[i]);
      exec.map_task_costs[i] = cost_model_.MapTaskCost(
          batch.blocks[i].size(), batch.blocks[i].cardinality());
    }
  }
  exec.map_makespan = ScheduleStage(exec.map_task_costs, cores).makespan;

  // --- Shuffle: each Map task independently assigns its clusters to the
  // Reduce buckets (Alg. 3 for Prompt, hashing for the baselines). A key
  // changed by the Map function may have non-split clusters in several
  // blocks, so then every cluster merges. ---
  exec.bucket_tuples.assign(reduce_tasks, 0);
  exec.bucket_clusters.assign(reduce_tasks, 0);
  std::vector<size_t> bucket_merging(reduce_tasks, 0);
  bool merge_all = false;
  for (const MapTaskOutput& out : map_outputs) merge_all |= out.rekeyed;
  std::vector<std::vector<uint32_t>> assignments(m);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<KeyCluster>& clusters = map_outputs[i].clusters;
    assignments[i] = allocator_->Assign(clusters, reduce_tasks);
    PROMPT_CHECK(assignments[i].size() == clusters.size());
    for (size_t c = 0; c < clusters.size(); ++c) {
      const uint32_t j = assignments[i][c];
      PROMPT_CHECK(j < reduce_tasks);
      exec.bucket_tuples[j] += clusters[c].size;
      ++exec.bucket_clusters[j];
      if (clusters[c].split || merge_all) ++bucket_merging[j];
    }
  }
  // One counting pass lists each bucket's clusters in Map-task order, the
  // order in which split keys' partials merge.
  std::vector<size_t> bucket_begin(reduce_tasks + 1, 0);
  for (uint32_t j = 0; j < reduce_tasks; ++j) {
    bucket_begin[j + 1] = bucket_begin[j] + exec.bucket_clusters[j];
  }
  std::vector<ClusterRef> refs(bucket_begin[reduce_tasks]);
  std::vector<size_t> next(bucket_begin.begin(), bucket_begin.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    for (size_t c = 0; c < assignments[i].size(); ++c) {
      refs[next[assignments[i][c]]++] =
          ClusterRef{static_cast<uint32_t>(i), static_cast<uint32_t>(c)};
    }
  }

  // --- Reduce stage: one task per bucket ---
  std::vector<std::vector<KV>> bucket_outputs(reduce_tasks);
  exec.reduce_task_costs.assign(reduce_tasks, 0);
  auto reduce_bucket = [&, this](uint32_t j) {
    bucket_outputs[j] = RunReduceTask(
        *job_.reduce, map_outputs, refs.data() + bucket_begin[j],
        refs.data() + bucket_begin[j + 1], bucket_merging[j], merge_all);
  };
  if (on_pool) {
    for (uint32_t j = 0; j < reduce_tasks; ++j) {
      pool->Submit([j, &reduce_bucket, &exec] {
        Stopwatch watch;
        reduce_bucket(j);
        exec.reduce_task_costs[j] =
            std::max<TimeMicros>(1, watch.ElapsedMicros());
      });
    }
    pool->WaitIdle();
  } else {
    for (uint32_t j = 0; j < reduce_tasks; ++j) {
      reduce_bucket(j);
      exec.reduce_task_costs[j] = cost_model_.ReduceTaskCost(ReduceTaskInput{
          exec.bucket_tuples[j], exec.bucket_clusters[j]});
    }
  }
  StageSchedule reduce_schedule = ScheduleStage(exec.reduce_task_costs, cores);
  exec.reduce_makespan = reduce_schedule.makespan;
  exec.reduce_completions = std::move(reduce_schedule.completion);

  if (map_tasks_total_ != nullptr) {
    map_tasks_total_->Increment(m);
    reduce_tasks_total_->Increment(reduce_tasks);
    for (TimeMicros c : exec.map_task_costs) {
      map_task_cost_us_->Observe(static_cast<double>(c));
    }
    for (TimeMicros c : exec.reduce_task_costs) {
      reduce_task_cost_us_->Observe(static_cast<double>(c));
    }
  }

  // --- Batch output: the buckets' outputs back to back. Without a
  // key-changing Map each key occurs once: a non-split key lives in one
  // block (one cluster in the batch), and every Map task hashes a split key
  // to the same bucket. ---
  size_t entries = 0;
  for (const std::vector<KV>& out : bucket_outputs) entries += out.size();
  exec.output.reserve(entries);
  for (const std::vector<KV>& out : bucket_outputs) {
    exec.output.insert(exec.output.end(), out.begin(), out.end());
  }
  return exec;
}

}  // namespace prompt
