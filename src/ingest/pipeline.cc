#include "ingest/pipeline.h"

#include <algorithm>
#include <span>
#include <string>

#include "common/hash.h"
#include "ingest/merge.h"

namespace prompt {

namespace {

// Per-shard Alg. 1 options: a shard sees ~1/S of the tuples and (with a
// well-mixed key hash) ~1/S of the keys, so N_est and K_avg shrink together
// and the initial frequency step f = N_est / (K_avg * budget) — and with it
// the per-key update cadence — matches the single-accumulator setting.
AccumulatorOptions ScaleForShard(AccumulatorOptions base, uint32_t shards) {
  base.estimated_tuples =
      std::max<uint64_t>(1, base.estimated_tuples / shards);
  base.avg_keys = std::max<uint64_t>(1, base.avg_keys / shards);
  return base;
}

// Tuples in a sealed batch's key runs, which tile the front of its tuple
// array (the tail buckets tile the rest).
uint64_t RunTuples(const AccumulatedBatch& batch) {
  return batch.tail().empty() ? batch.num_tuples()
                              : batch.tail().front().offset;
}

}  // namespace

const char* KeyModeName(KeyMode mode) {
  switch (mode) {
    case KeyMode::kExact:
      return "exact";
    case KeyMode::kSketch:
      return "sketch";
  }
  return "unknown";
}

bool ParseKeyMode(std::string_view name, KeyMode* out) {
  if (name == "exact") {
    *out = KeyMode::kExact;
    return true;
  }
  if (name == "sketch") {
    *out = KeyMode::kSketch;
    return true;
  }
  return false;
}

ParallelIngestPipeline::ParallelIngestPipeline(IngestOptions options)
    : options_(options) {
  PROMPT_CHECK(options_.shards >= 1);
  PROMPT_CHECK(options_.ring_capacity >= 2);
  const AccumulatorKind kind = options_.key_mode == KeyMode::kSketch
                                   ? AccumulatorKind::kSketch
                                   : AccumulatorKind::kFlat;
  shard_options_ =
      ScaleForShard(options_.accumulator_options, options_.shards);
  shards_.reserve(options_.shards);
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        options_.ring_capacity, MakeAccumulator(kind, shard_options_)));
    shards_.back()->stats.ring_capacity = shards_.back()->ring.capacity();
  }
  for (uint32_t i = 0; i < options_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

ParallelIngestPipeline::~ParallelIngestPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ParallelIngestPipeline::UpdateEstimates(uint64_t estimated_tuples,
                                             uint64_t avg_keys) {
  options_.accumulator_options.estimated_tuples =
      std::max<uint64_t>(1, estimated_tuples);
  options_.accumulator_options.avg_keys = std::max<uint64_t>(1, avg_keys);
}

void ParallelIngestPipeline::BindMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  ring_stalls_total_ =
      registry->GetCounter("prompt_ingest_ring_stalls_total");
  seal_barrier_us_ = registry->GetHistogram("prompt_ingest_seal_barrier_us");
  merge_us_ = registry->GetHistogram("prompt_ingest_merge_us");
  for (uint32_t i = 0; i < num_shards(); ++i) {
    shards_[i]->tuples_total = registry->GetCounter(
        "prompt_ingest_tuples_total", {{"shard", std::to_string(i)}});
  }
}

void ParallelIngestPipeline::PushMsg(uint32_t shard, const IngestMsg& msg) {
  if (shards_[shard]->ring.TryPush(msg)) return;
  if (ring_stalls_total_ != nullptr) ring_stalls_total_->Increment();
  SpinBackoff backoff;
  do {
    backoff.Pause();
  } while (!shards_[shard]->ring.TryPush(msg));
}

void ParallelIngestPipeline::BeginBatch(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(!batch_open_);
  batch_start_ = start;
  batch_end_ = end;
  shard_options_ =
      ScaleForShard(options_.accumulator_options, num_shards());
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealed_count_ = 0;
    copied_count_ = 0;
  }
  ++batch_epoch_;
  IngestMsg begin;
  begin.kind = IngestMsg::kBegin;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    Shard& shard = *shards_[i];
    shard.routed_this_batch = 0;
    shard.stats.ring_high_water = 0;
    // Batch params and scaled options are published above; the ring push's
    // release store orders them before the worker's kBegin.
    PushMsg(i, begin);
  }
  batch_open_ = true;
  ingest_watch_.Restart();
}

void ParallelIngestPipeline::Ingest(const Tuple& t) {
  const uint32_t s =
      static_cast<uint32_t>(HashKey(t.key) % num_shards());
  Shard& shard = *shards_[s];
  IngestMsg msg;
  msg.tuple = t;
  msg.kind = IngestMsg::kTuple;
  PushMsg(s, msg);
  ++shard.routed_this_batch;
  // Occupancy is sampled, not tracked per push: reading both ring indices
  // every tuple would reintroduce the shared-line traffic the cached-index
  // ring avoids.
  if ((++shard.ring_occupancy_probe & 255u) == 0) {
    shard.stats.ring_high_water =
        std::max<uint64_t>(shard.stats.ring_high_water, shard.ring.size());
  }
}

const AccumulatedBatch& ParallelIngestPipeline::SealBatch() {
  PROMPT_CHECK(batch_open_);
  metrics_.ingest_wall = ingest_watch_.ElapsedMicros();

  IngestMsg seal;
  seal.kind = IngestMsg::kSeal;
  for (uint32_t i = 0; i < num_shards(); ++i) PushMsg(i, seal);

  // Phase 1: the seal barrier. Every worker drains its ring (FIFO order
  // guarantees it has consumed all of this batch's tuples), seals its
  // accumulator and reports in.
  Stopwatch barrier_watch;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return sealed_count_ == num_shards(); });
  }
  metrics_.seal_barrier_latency = barrier_watch.ElapsedMicros();

  // Phase 2: copy + merge. The merged array holds every shard's runs, in
  // shard order, then global tail bucket 0 (shard 0's bucket 0, shard 1's,
  // ...), bucket 1, and so on. Workers copy their own slices while this
  // thread merges the run lists.
  Stopwatch merge_watch;
  uint64_t total = 0;
  size_t num_buckets = 0;
  for (auto& shard : shards_) {
    shard->run_offset = total;
    total += RunTuples(shard->sealed);
    shard->tail_offsets.resize(shard->sealed.tail().size());
    num_buckets = std::max(num_buckets, shard->sealed.tail().size());
  }
  std::vector<TailBucket> merged_tail(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    merged_tail[b].offset = total;
    for (auto& shard : shards_) {
      if (b >= shard->tail_offsets.size()) continue;
      shard->tail_offsets[b] = total;
      total += shard->sealed.tail()[b].tuples;
    }
    merged_tail[b].tuples = total - merged_tail[b].offset;
  }
  merged_tuples_.resize(total);
  {
    std::lock_guard<std::mutex> lock(mu_);
    copy_epoch_ = batch_epoch_;
    cv_.notify_all();
  }

  std::vector<std::span<const SortedKeyRun>> inputs;
  inputs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    inputs.emplace_back(shard->sealed.keys());
  }
  LoserTree tree(std::move(inputs));
  std::vector<SortedKeyRun> runs;
  runs.reserve(tree.remaining());
  SortedKeyRun run;
  uint32_t source = 0;
  while (tree.Next(&run, &source)) {
    run.offset += shards_[source]->run_offset;
    runs.push_back(run);
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return copied_count_ == num_shards(); });
  }
  metrics_.merge_latency = merge_watch.ElapsedMicros();

  SketchBatchStats stats;
  if (options_.key_mode == KeyMode::kSketch) {
    stats.sketch_mode = true;
    for (const auto& shard : shards_) {
      // Shards see disjoint key sets, so additive fields sum exactly; the
      // untracked-frequency ceiling is the worst shard's floor.
      const SketchBatchStats& s = shard->sealed.stats();
      stats.head_tuples += s.head_tuples;
      stats.tail_tuples += s.tail_tuples;
      stats.tracked_keys += s.tracked_keys;
      stats.promoted_keys += s.promoted_keys;
      stats.distinct_estimate += s.distinct_estimate;
      stats.min_count = std::max(stats.min_count, s.min_count);
      stats.error_frac +=
          s.error_frac * static_cast<double>(s.head_tuples + s.tail_tuples);
    }
    stats.error_frac = total == 0
                           ? 0.0
                           : stats.error_frac / static_cast<double>(total);
  }
  merged_batch_ = AccumulatedBatch(merged_tuples_, std::move(runs),
                                   std::move(merged_tail), stats);
  metrics_.shards.clear();
  metrics_.shards.reserve(shards_.size());
  for (const auto& shard : shards_) metrics_.shards.push_back(shard->stats);
  metrics_.total_tuples = total;
  if (seal_barrier_us_ != nullptr) {
    seal_barrier_us_->Observe(
        static_cast<double>(metrics_.seal_barrier_latency));
    merge_us_->Observe(static_cast<double>(metrics_.merge_latency));
    for (const auto& shard : shards_) {
      shard->tuples_total->Increment(shard->stats.tuples);
    }
  }
  batch_open_ = false;
  return merged_batch_;
}

void ParallelIngestPipeline::WorkerLoop(uint32_t index) {
  Shard& shard = *shards_[index];
  SpinBackoff backoff;
  uint64_t my_epoch = 0;
  for (;;) {
    IngestMsg msg;
    if (!shard.ring.TryPop(&msg)) {
      if (stopped_) return;
      backoff.Pause();
      continue;
    }
    backoff.Reset();
    switch (msg.kind) {
      case IngestMsg::kTuple:
        shard.accumulator->OnTuple(msg.tuple);
        break;
      case IngestMsg::kBegin:
        shard.accumulator->set_options(shard_options_);
        shard.accumulator->Begin(batch_start_, batch_end_);
        ++my_epoch;
        break;
      case IngestMsg::kSeal: {
        Stopwatch seal_watch;
        shard.sealed = shard.accumulator->Seal();
        shard.stats.seal_latency = seal_watch.ElapsedMicros();
        shard.stats.tuples = shard.accumulator->num_tuples();
        shard.stats.keys = shard.accumulator->num_keys();
        {
          std::unique_lock<std::mutex> lock(mu_);
          ++sealed_count_;
          cv_.notify_all();
          cv_.wait(lock, [this, my_epoch] {
            return copy_epoch_ >= my_epoch || stopped_;
          });
          if (stopped_) return;
        }
        Stopwatch copy_watch;
        const AccumulatedBatch& sealed = shard.sealed;
        const std::span<const Tuple> runs =
            sealed.tuples().first(RunTuples(sealed));
        std::copy(runs.begin(), runs.end(),
                  merged_tuples_.begin() + shard.run_offset);
        for (size_t b = 0; b < sealed.tail().size(); ++b) {
          const std::span<const Tuple> bucket = sealed.tuples(sealed.tail()[b]);
          std::copy(bucket.begin(), bucket.end(),
                    merged_tuples_.begin() + shard.tail_offsets[b]);
        }
        shard.stats.copy_latency = copy_watch.ElapsedMicros();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++copied_count_;
          cv_.notify_all();
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace prompt
