// Sharded parallel ingest pipeline: multi-core frequency-aware buffering
// with a heartbeat k-way merge.
//
// The seed's batching phase is single-threaded — one thread drains the
// ingestion queue into one accumulator — so Alg. 1 throughput is capped by
// one core. Prompt's design shards cleanly: per-key accumulator state is
// independent across disjoint key sets, so tuples routed by hash(key) % S
// land in S private accumulators that never share state. At the
// early-release cut-off a seal barrier stops all shards and a loser-tree
// k-way merge interleaves the per-shard quasi-sorted run lists into one
// global quasi-sorted list with exact counts, which feeds Alg. 2
// (BuildPromptPlan) unchanged.
//
// Thread roles:
//   router (caller of Ingest)  --SPSC ring-->  shard worker 0..S-1
// Each ring is strictly single-producer/single-consumer. Batch control
// (Begin/Seal) travels in-band through the rings, so a worker has consumed
// every tuple of a batch before it sees the batch's seal message — no
// separate flush protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "core/accumulator_api.h"
#include "ingest/spsc_ring.h"
#include "obs/metrics_registry.h"
#include "stats/metrics.h"

namespace prompt {

/// \brief How per-key frequency state is tracked during ingest.
enum class KeyMode {
  /// Exact per-key state for every distinct key (the paper's §2.2.4
  /// position). Memory is O(distinct keys).
  kExact,
  /// Heavy-hitter mode (DESIGN.md §17): a Space-Saving sketch bounds exact
  /// state to the head; tail tuples flow through hash buckets with no
  /// per-key state. Memory is O(sketch capacity + tuples).
  kSketch,
};

/// Canonical lowercase name ("exact" / "sketch") for flags and logs.
const char* KeyModeName(KeyMode mode);

/// Parses "exact" / "sketch". Returns false on unknown names, leaving *out
/// untouched.
bool ParseKeyMode(std::string_view name, KeyMode* out);

/// \brief Batching-phase ingest configuration. This is the grouped options
/// block exposed as `EngineOptions::ingest` (and mirrored by the receiver
/// and multi-tenant engine); the pipeline itself consumes it directly.
struct IngestOptions {
  /// Shard workers (>= 1). The engine runs the accumulator inline on the
  /// router thread at 1; the pipeline itself accepts 1 and still exercises
  /// the full route/seal/merge path on a single worker thread.
  uint32_t shards = 1;
  /// Per-shard SPSC ring capacity (rounded up to a power of two). A full
  /// ring blocks the router — back-pressure toward the source.
  size_t ring_capacity = 16 * 1024;
  /// Exact vs heavy-hitter ingest: every shard runs the flat accumulator
  /// (kExact) or the sketch accumulator (kSketch). In sketch mode the
  /// per-shard sketches are folded into global batch telemetry at the seal
  /// barrier and global tail bucket i is every shard's bucket i, in shard
  /// order (same tail hash on every shard, so bucket i holds the same key
  /// slice everywhere).
  KeyMode key_mode = KeyMode::kExact;
  /// Base (whole-batch) Alg. 1 options — the budget / N_est / K_avg
  /// overrides. Each shard receives a proportionally scaled copy:
  /// estimated_tuples / S and avg_keys / S, same budget — the per-key
  /// frequency step then matches the single-accumulator setting.
  AccumulatorOptions accumulator_options;
};

/// \brief S shard workers, each owning a private Accumulator (created via
/// MakeAccumulator), fed over lock-free SPSC rings; sealed per-shard runs
/// are k-way merged at the heartbeat into one AccumulatedBatch with exact
/// per-key counts.
///
/// Lifecycle per batch interval, driven by one router thread:
///   BeginBatch(start, end) -> Ingest(t)* -> SealBatch()
/// The view returned by SealBatch stays valid until the next SealBatch.
class ParallelIngestPipeline {
 public:
  explicit ParallelIngestPipeline(IngestOptions options);
  ~ParallelIngestPipeline();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(ParallelIngestPipeline);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Receiver EWMA feedback (N_est, K_avg), divided across shards at the
  /// next BeginBatch.
  void UpdateEstimates(uint64_t estimated_tuples, uint64_t avg_keys);

  /// Opens a batch interval [start, end) on every shard.
  void BeginBatch(TimeMicros start, TimeMicros end);

  /// Routes one tuple to its shard (hash(key) % S). Blocks (with backoff)
  /// when the shard's ring is full.
  void Ingest(const Tuple& t);

  /// Seal barrier + merge: stops every shard, waits for their seals, has
  /// the workers copy their sealed tuples into one merged array at offsets
  /// the router computes while the router loser-tree-merges the quasi-sorted
  /// run lists, and returns the combined batch view.
  const AccumulatedBatch& SealBatch();

  /// Ingest observability for the batch most recently sealed.
  const IngestMetrics& last_metrics() const { return metrics_; }

  /// Publishes cumulative ingest activity (per-shard routed tuples, router
  /// stalls on full rings, seal/merge latency distributions) into
  /// `registry`. nullptr disables (the default). Call from the router thread
  /// before the first BeginBatch.
  void BindMetrics(MetricsRegistry* registry);

 private:
  struct IngestMsg {
    enum Kind : uint32_t { kTuple = 0, kBegin = 1, kSeal = 2 };
    Tuple tuple{};
    uint32_t kind = kTuple;
  };

  struct Shard {
    Shard(size_t ring_capacity, std::unique_ptr<Accumulator> acc)
        : ring(ring_capacity), accumulator(std::move(acc)) {}

    SpscRing<IngestMsg> ring;
    std::thread worker;
    std::unique_ptr<Accumulator> accumulator;

    // Seal handshake (written by the worker, read by the router after the
    // barrier; the pipeline mutex orders the non-atomic fields).
    AccumulatedBatch sealed;
    // Where the worker copies its runs and each of its tail buckets in the
    // merged array; set by the router between barrier phases.
    uint64_t run_offset = 0;
    std::vector<uint64_t> tail_offsets;
    ShardIngestStats stats;
    uint64_t routed_this_batch = 0;  // router-side counter
    uint32_t ring_occupancy_probe = 0;
    Counter* tuples_total = nullptr;  // optional instrumentation (router-side)
  };

  void WorkerLoop(uint32_t index);
  void PushMsg(uint32_t shard, const IngestMsg& msg);

  IngestOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Batch parameters published before the kBegin message is pushed; the
  // ring's release/acquire pair orders them for the workers.
  TimeMicros batch_start_ = 0;
  TimeMicros batch_end_ = 0;
  AccumulatorOptions shard_options_;

  // Two-phase seal barrier (mutex + condvar; shards may outnumber cores, so
  // parking beats spinning).
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t sealed_count_ = 0;
  uint32_t copied_count_ = 0;
  uint64_t copy_epoch_ = 0;   // workers copy when this reaches their epoch
  uint64_t batch_epoch_ = 0;  // per-worker progress tracking

  // Merged tuples backing the returned AccumulatedBatch view.
  std::vector<Tuple> merged_tuples_;
  AccumulatedBatch merged_batch_;

  IngestMetrics metrics_;
  Stopwatch ingest_watch_;
  bool batch_open_ = false;

  // Optional instrumentation handles (all null or all set), router-side.
  Counter* ring_stalls_total_ = nullptr;
  HistogramMetric* seal_barrier_us_ = nullptr;
  HistogramMetric* merge_us_ = nullptr;
  /// Atomic: idle workers poll it outside the mutex.
  std::atomic<bool> stopped_{false};
};

}  // namespace prompt
