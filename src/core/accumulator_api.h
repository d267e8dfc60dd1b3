// The Accumulator seam: everything a caller needs to drive Alg. 1 batch
// buffering without naming a concrete implementation. Implementations are
// selected through MakeAccumulator(kind, options); the engine, the sharded
// ingest pipeline, and the partitioners all program against this interface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/clock.h"
#include "model/sketch_stats.h"
#include "model/tuple.h"

namespace prompt {

/// \brief Knobs specific to the sketch (heavy-hitter) accumulator. Inert for
/// the exact one.
struct SketchSettings {
  /// Space-Saving counter slots. Doubles as the cap on keys promoted to
  /// exact tracking, so head state is O(capacity) by construction.
  uint32_t capacity = 4096;
  /// Hash buckets the untracked tail flows through (no per-key state; each
  /// bucket is one contiguous range of the sealed batch). Must be >= 1.
  uint32_t tail_buckets = 64;
};

/// \brief Tuning knobs of the buffering mechanism.
struct AccumulatorOptions {
  /// Maximum rank refreshes allowed per key per batch interval (the
  /// `budget` of Alg. 1). Bounds total update work.
  uint32_t budget = 16;
  /// Estimated tuples in the interval (N_est), from the receiver's EWMA of
  /// past data rates. Used to derive the initial frequency step
  /// f = N_est / (K_avg * budget).
  uint64_t estimated_tuples = 100000;
  /// Average distinct keys over past batches (K_avg).
  uint64_t avg_keys = 1000;
  /// Heavy-hitter mode settings (used only by AccumulatorKind::kSketch).
  SketchSettings sketch;
};

/// \brief Selects the Alg. 1 accumulator implementation. The values are
/// fixed: parameterized test names print them.
enum class AccumulatorKind {
  /// Exact per-key state: open addressing over an append-only tuple log,
  /// with the key order materialized once at seal (core/flat_accumulator.h).
  kFlat = 1,
  /// Heavy-hitter mode (DESIGN.md §17): a Space-Saving sketch decides which
  /// keys earn exact counters and runs; everything else flows through
  /// hash-partitioned tail buckets with no per-key state. Key-proportional
  /// memory is O(sketch capacity), not O(distinct keys).
  kSketch = 2,
};

/// Canonical lowercase name ("flat" / "sketch") for logs.
const char* AccumulatorKindName(AccumulatorKind kind);

/// \brief One entry of the sealed quasi-sorted key list:
/// `⟨key, count, tupleList⟩`, the tuple list being the `count` tuples from
/// `offset` in the batch's tuple array, in arrival order.
struct SortedKeyRun {
  KeyId key = 0;
  uint64_t count = 0;
  uint64_t offset = 0;
};

/// \brief One hash bucket of the sketch accumulator's tail: the `tuples`
/// tuples from `offset` whose keys never earned exact state. All tuples of a
/// given tail key land in exactly one bucket (bucket = hash(key) % bucket
/// count), so a bucket can be placed on one block without splitting any tail
/// key.
struct TailBucket {
  uint64_t offset = 0;
  uint64_t tuples = 0;
};

/// \brief View over a sealed batch: quasi-sorted keys (descending frequency)
/// over one array of tuples in which each key's tuples are contiguous.
///
/// Layout: the key runs tile the front of tuples() and the tail buckets
/// (sketch mode) tile the rest, in bucket order. Every producer — the
/// accumulators and the sharded pipeline's merge — writes that layout, and
/// only they decide where a run sits. The array is not owned: it lives until
/// the owning accumulator's next Begin(), or for a merged batch until the
/// pipeline's next SealBatch().
class AccumulatedBatch {
 public:
  AccumulatedBatch() = default;
  AccumulatedBatch(std::span<const Tuple> tuples,
                   std::vector<SortedKeyRun> keys,
                   std::vector<TailBucket> tail = {},
                   SketchBatchStats stats = {})
      : tuples_(tuples),
        keys_(std::move(keys)),
        tail_(std::move(tail)),
        stats_(stats) {}

  uint64_t num_tuples() const { return tuples_.size(); }
  uint64_t num_keys() const { return keys_.size(); }

  /// Keys in (quasi-)descending frequency order; `count` is the *exact*
  /// final frequency (the hash table always has exact counts — only the
  /// ordering is approximate, coming from the budget-limited ranking).
  const std::vector<SortedKeyRun>& keys() const { return keys_; }

  /// Tail buckets (empty for exact accumulators). Tail tuples are NOT
  /// covered by keys(); consumers that iterate runs must also read these.
  const std::vector<TailBucket>& tail() const { return tail_; }

  /// Sketch-mode telemetry (`stats().sketch_mode` gates interpretation).
  const SketchBatchStats& stats() const { return stats_; }

  /// Every tuple of the batch, runs first, then tail buckets.
  std::span<const Tuple> tuples() const { return tuples_; }
  std::span<const Tuple> tuples(const SortedKeyRun& run) const {
    return tuples_.subspan(run.offset, run.count);
  }
  std::span<const Tuple> tuples(const TailBucket& bucket) const {
    return tuples_.subspan(bucket.offset, bucket.tuples);
  }

  /// Applies f(const Tuple&) to up to `limit` tuples of the run after the
  /// first `skip`. Fragmented keys consume their run in segments: fragment i
  /// passes skip = sum of earlier fragment sizes.
  template <typename F>
  void ForEachTuple(const SortedKeyRun& run, uint64_t skip, uint64_t limit,
                    F&& f) const {
    const std::span<const Tuple> all = tuples(run);
    const uint64_t from = std::min<uint64_t>(skip, all.size());
    for (const Tuple& t :
         all.subspan(from, std::min<uint64_t>(limit, all.size() - from))) {
      f(t);
    }
  }

  /// Applies f(const Tuple&) to every tuple whose key passes `keep`: the key
  /// runs in run order, then the tail buckets in bucket order. This is how a
  /// partitioner without a quasi-sorted fast path consumes the batch; the
  /// tail is part of the replay, or never-promoted keys would vanish.
  template <typename Keep, typename F>
  void Replay(Keep&& keep, F&& f) const {
    for (const SortedKeyRun& run : keys_) {
      if (!keep(run.key)) continue;
      for (const Tuple& t : tuples(run)) f(t);
    }
    for (const TailBucket& bucket : tail_) {
      for (const Tuple& t : tuples(bucket)) {
        if (keep(t.key)) f(t);
      }
    }
  }

 private:
  std::span<const Tuple> tuples_;
  std::vector<SortedKeyRun> keys_;
  std::vector<TailBucket> tail_;
  SketchBatchStats stats_;
};

/// \brief Algorithm 1 batch buffering behind a stable seam.
///
/// Lifecycle: Begin(start, end) opens an interval, OnTuple() ingests, and
/// Seal() (or SealWithPostSort()) closes it, returning a view that stays
/// valid until the next Begin(). Reset() additionally releases the large
/// buffers — use it when an accumulator goes idle for a while (e.g. a
/// de-provisioned ingest shard) rather than between back-to-back batches,
/// where Begin()'s capacity reuse is the point.
class Accumulator {
 public:
  virtual ~Accumulator() = default;

  /// Implementation name, matching AccumulatorKindName().
  virtual const char* name() const = 0;

  /// Starts a new batch interval [start, end). Clears all logical state but
  /// keeps buffer capacity for reuse.
  virtual void Begin(TimeMicros start, TimeMicros end) = 0;

  /// Ingests one tuple; `t.ts` doubles as Time_Now (tuples arrive in
  /// timestamp order per the model's assumptions).
  virtual void OnTuple(const Tuple& t) = 0;

  /// Ends the interval, producing the quasi-sorted key list without an
  /// explicit sorting pass over all keys.
  virtual AccumulatedBatch Seal() = 0;

  /// Post-sort baseline (Fig. 14a): ignores the maintained ordering and
  /// exactly sorts keys by final frequency at seal time — the paper's
  /// "Post-Sort" ablation.
  virtual AccumulatedBatch SealWithPostSort() = 0;

  /// Clears state AND releases buffer capacity back to the allocator.
  virtual void Reset() = 0;

  virtual uint64_t num_tuples() const = 0;
  virtual uint64_t num_keys() const = 0;

  /// Total budgeted rank refreshes in the current batch (bounded by
  /// num_keys * budget).
  virtual uint64_t ordering_updates() const = 0;

  /// Bytes of buffer capacity currently held (tuple storage + hash table +
  /// ordering structures). Capacity accounting for admission/elasticity
  /// decisions; grows amortized, only Reset() gives it back.
  virtual size_t capacity_bytes() const = 0;

  /// Bytes of *key-proportional* state only: hash tables, per-key records,
  /// sketches, ordering structures — excluding tuple buffers, which are
  /// O(tuples) in every mode. This is the memory-wall axis heavy-hitter mode
  /// exists to bound: O(distinct keys) for the exact accumulator,
  /// O(sketch capacity) for kSketch.
  virtual size_t key_state_bytes() const = 0;

  virtual const AccumulatorOptions& options() const = 0;
  /// Takes effect at the next Begin().
  virtual void set_options(const AccumulatorOptions& o) = 0;
};

/// Factory: the only place a concrete accumulator type is named outside its
/// own translation unit.
std::unique_ptr<Accumulator> MakeAccumulator(AccumulatorKind kind,
                                             AccumulatorOptions options = {});

}  // namespace prompt
