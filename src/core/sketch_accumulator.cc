#include "core/sketch_accumulator.h"

#include <algorithm>
#include <span>

#include "common/hash.h"
#include "core/rank_order.h"
#include "core/scatter.h"

namespace prompt {

namespace {
/// Tail-bucket hash seed. Fixed and shared by every shard so a tail key maps
/// to the same bucket everywhere — the invariant that lets the pipeline
/// concatenate per-shard buckets and the partitioner place each bucket on
/// one block without splitting tail keys.
constexpr uint64_t kTailBucketSeed = 0x7a11u;
}  // namespace

SketchAccumulator::SketchAccumulator(AccumulatorOptions options)
    : options_(options),
      sketch_(std::make_unique<SpaceSaving>(
          std::max<uint32_t>(1, options.sketch.capacity))),
      table_(1024) {}

const char* SketchAccumulator::name() const {
  return AccumulatorKindName(AccumulatorKind::kSketch);
}

void SketchAccumulator::Begin(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(end > start);
  rule_ = BudgetRule(options_, end);
  num_tuples_ = 0;
  head_tuples_ = 0;
  tail_tuples_ = 0;
  ordering_updates_ = 0;
  table_.Clear();
  states_.clear();
  log_.clear();
  log_slot_.clear();
  hll_.Clear();

  const uint32_t want_capacity = std::max<uint32_t>(1, options_.sketch.capacity);
  if (sketch_->capacity() != want_capacity) {
    sketch_ = std::make_unique<SpaceSaving>(want_capacity);
  } else {
    sketch_->Clear();
  }
  const uint32_t buckets = std::max<uint32_t>(1, options_.sketch.tail_buckets);
  tail_buckets_.assign(buckets, TailBucket{});

  // The promotion threshold: a key earns exact state once it looks several
  // times heavier than the average key. Clamped below so uniform streams
  // (N_est ~ K_avg) don't promote the entire key space.
  promote_threshold_ = std::max<uint64_t>(
      8, 4 * options_.estimated_tuples /
             std::max<uint64_t>(1, options_.avg_keys));
}

void SketchAccumulator::Reset() {
  num_tuples_ = 0;
  head_tuples_ = 0;
  tail_tuples_ = 0;
  ordering_updates_ = 0;
  table_ = FlatMap<uint32_t>(1024);
  std::vector<KeyState>().swap(states_);
  std::vector<TailBucket>().swap(tail_buckets_);
  std::vector<Tuple>().swap(log_);
  std::vector<uint32_t>().swap(log_slot_);
  std::vector<Tuple>().swap(sealed_);
  sketch_ = std::make_unique<SpaceSaving>(
      std::max<uint32_t>(1, options_.sketch.capacity));
  hll_.Clear();
}

size_t SketchAccumulator::key_state_bytes() const {
  return sketch_->capacity_bytes() + hll_.memory_bytes() +
         table_.capacity_bytes() + states_.capacity() * sizeof(KeyState) +
         tail_buckets_.capacity() * sizeof(TailBucket);
}

size_t SketchAccumulator::capacity_bytes() const {
  return key_state_bytes() +
         (log_.capacity() + sealed_.capacity()) * sizeof(Tuple) +
         log_slot_.capacity() * sizeof(uint32_t);
}

uint32_t SketchAccumulator::Promote(KeyId key, uint64_t estimate,
                                    TimeMicros now) {
  // The key leaves the sketch — its counter slot goes back to tracking tail
  // candidates — and starts an exact run with the current tuple. Earlier
  // occurrences stay in its tail bucket; rank_base preserves them in the
  // seal ordering.
  sketch_->Remove(key);
  const uint32_t state_idx = static_cast<uint32_t>(states_.size());
  table_.GetOrInsert(key) = state_idx;
  states_.push_back(
      KeyState{rule_.First(now), estimate > 0 ? estimate - 1 : 0, key, 0});
  return static_cast<uint32_t>(tail_buckets_.size()) + state_idx;
}

void SketchAccumulator::OnTuple(const Tuple& t) {
  const TimeMicros now = t.ts;
  ++num_tuples_;
  log_.push_back(t);

  // Head path: the key already has exact state. Only head keys pay for
  // rank refreshes, so rank work is bounded by capacity * budget whatever
  // the distinct-key count.
  if (uint32_t* state_idx = table_.Find(t.key)) {
    log_slot_.push_back(static_cast<uint32_t>(tail_buckets_.size()) +
                        *state_idx);
    ++head_tuples_;
    if (rule_.Count(states_[*state_idx], num_tuples_, now)) {
      ++ordering_updates_;
    }
    return;
  }

  // Tail path: sketch first, then decide promotion.
  hll_.Add(t.key);
  sketch_->Add(t.key);
  const uint64_t estimate = sketch_->Estimate(t.key);
  if (estimate >= promote_threshold_ &&
      states_.size() < options_.sketch.capacity) {
    log_slot_.push_back(Promote(t.key, estimate, now));
    ++head_tuples_;
    return;
  }

  const uint32_t bucket = static_cast<uint32_t>(
      HashKey(t.key, kTailBucketSeed) % tail_buckets_.size());
  log_slot_.push_back(bucket);
  ++tail_buckets_[bucket].tuples;
  ++tail_tuples_;
}

void SketchAccumulator::MergeSketchFrom(const SketchAccumulator& other) {
  sketch_->Merge(*other.sketch_);
  const Status s = hll_.Merge(other.hll_);
  PROMPT_CHECK_MSG(s.ok(), "HLL precision mismatch across shards");
}

SketchBatchStats SketchAccumulator::ComputeStats() const {
  SketchBatchStats stats;
  stats.sketch_mode = true;
  stats.head_tuples = head_tuples_;
  stats.tail_tuples = tail_tuples_;
  stats.tracked_keys = sketch_->size();
  stats.promoted_keys = states_.size();
  stats.min_count = sketch_->MinCount();
  stats.distinct_estimate = static_cast<uint64_t>(hll_.Estimate());
  uint64_t error_sum = 0;
  for (const SpaceSaving::Entry& e : sketch_->entries()) error_sum += e.error;
  const uint64_t n = std::max<uint64_t>(1, num_tuples_);
  stats.error_frac = static_cast<double>(error_sum) / static_cast<double>(n);
  return stats;
}

void SketchAccumulator::PlaceRuns() {
  uint64_t offset = 0;
  for (KeyState& ks : states_) {
    ks.cursor = offset;
    offset += ks.freq_current;
  }
  for (TailBucket& bucket : tail_buckets_) {
    bucket.offset = offset;
    offset += bucket.tuples;
  }
}

AccumulatedBatch SketchAccumulator::MakeBatch(std::vector<SortedKeyRun> keys) {
  const size_t num_buckets = tail_buckets_.size();
  std::vector<uint64_t> bucket_cursor(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    bucket_cursor[b] = tail_buckets_[b].offset;
  }
  sealed_.resize(log_.size());
  ScatterBySlot(
      log_, log_slot_,
      [this, &bucket_cursor, num_buckets](uint32_t slot) -> uint64_t& {
        return slot < num_buckets ? bucket_cursor[slot]
                                  : states_[slot - num_buckets].cursor;
      },
      sealed_.data());
  return AccumulatedBatch(sealed_, std::move(keys), tail_buckets_,
                          ComputeStats());
}

AccumulatedBatch SketchAccumulator::Seal() {
  // Rank promoted keys by their best full-batch frequency estimate
  // (rank_base folds in pre-promotion occurrences) while counts stay exact.
  // Deterministic: (rank desc, key desc) total order. A rank_base can put a
  // rank above the counting bound; those few keys are comparison-sorted.
  // At most sketch-capacity keys are promoted, so the order's buffers are
  // not kept across batches.
  PlaceRuns();
  RankOrderScratch scratch;
  const std::span<const RankedItem> order = OrderByRank(
      static_cast<uint32_t>(states_.size()),
      [this](uint32_t i) {
        return states_[i].rank_base + states_[i].freq_updated;
      },
      [this](uint32_t i) { return states_[i].key; }, KeyTies::kDescending,
      &scratch);
  std::vector<SortedKeyRun> keys;
  keys.reserve(order.size());
  for (const RankedItem& item : order) {
    keys.push_back(RunOf(states_[item.index]));
  }
  return MakeBatch(std::move(keys));
}

AccumulatedBatch SketchAccumulator::SealWithPostSort() {
  // Exact sort by rank_base + the final count, smaller key first on ties.
  struct Ranked {
    uint64_t rank;
    SortedKeyRun run;
  };
  PlaceRuns();
  std::vector<Ranked> entries;
  entries.reserve(states_.size());
  for (const KeyState& ks : states_) {
    entries.push_back(Ranked{ks.rank_base + ks.freq_current, RunOf(ks)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Ranked& a, const Ranked& b) {
              return a.rank != b.rank ? a.rank > b.rank
                                      : a.run.key < b.run.key;
            });
  std::vector<SortedKeyRun> keys;
  keys.reserve(entries.size());
  for (const Ranked& e : entries) keys.push_back(e.run);
  return MakeBatch(std::move(keys));
}

}  // namespace prompt
