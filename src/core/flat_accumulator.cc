#include "core/flat_accumulator.h"

#include <algorithm>
#include <bit>

#include "core/scatter.h"

namespace prompt {

const char* FlatAccumulator::name() const {
  return AccumulatorKindName(AccumulatorKind::kFlat);
}

void FlatAccumulator::Begin(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(end > start);
  batch_start_ = start;
  batch_end_ = end;
  num_tuples_ = 0;
  ordering_updates_ = 0;
  table_.Clear();
  states_.clear();
  log_.clear();
  log_slot_.clear();
  // Identical step seeding to the legacy path: f <- N_est / (K_avg * budget).
  const uint64_t denom =
      std::max<uint64_t>(1, options_.avg_keys * options_.budget);
  initial_f_step_ = std::max<uint64_t>(1, options_.estimated_tuples / denom);
}

void FlatAccumulator::Reset() {
  num_tuples_ = 0;
  ordering_updates_ = 0;
  table_ = RobinHoodMap<uint32_t>(1024);
  std::vector<KeyState>().swap(states_);
  std::vector<Tuple>().swap(log_);
  std::vector<uint32_t>().swap(log_slot_);
  std::vector<Tuple>().swap(sealed_);
  for (auto& bucket : radix_buckets_) std::vector<SealEntry>().swap(bucket);
}

size_t FlatAccumulator::capacity_bytes() const {
  return key_state_bytes() +
         (log_.capacity() + sealed_.capacity()) * sizeof(Tuple) +
         log_slot_.capacity() * sizeof(uint32_t);
}

void FlatAccumulator::RankUpdate(KeyState& ks, TimeMicros now) {
  // The legacy path repositions the key in the CountTree here; the flat path
  // only refreshes the rank fields — the order is materialized at Seal().
  // Every arithmetic step below mirrors LegacyChainAccumulator::TreeUpdate.
  ++ordering_updates_;
  ks.freq_updated = ks.freq_current;
  if (ks.budget_left > 0) --ks.budget_left;
  const uint64_t n_c = std::max<uint64_t>(1, num_tuples_);
  const uint64_t base =
      std::max<uint64_t>(1, options_.estimated_tuples /
                                std::max<uint32_t>(1, options_.budget));
  ks.f_step = std::max<uint64_t>(1, base * ks.freq_current / n_c);
  const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
  ks.t_next =
      now + remaining / std::max<uint32_t>(1, ks.budget_left ? ks.budget_left : 1);
}

void FlatAccumulator::OnTuple(const Tuple& t) {
  const TimeMicros now = t.ts;
  ++num_tuples_;

  bool inserted = false;
  uint32_t& state_idx = table_.GetOrInsert(t.key, &inserted);
  if (inserted) state_idx = static_cast<uint32_t>(states_.size());
  log_.push_back(t);
  log_slot_.push_back(state_idx);
  if (inserted) {
    KeyState ks;
    ks.key = t.key;
    ks.freq_current = 1;
    ks.freq_updated = 1;
    ks.budget_left = options_.budget;
    ks.f_step = initial_f_step_;
    const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
    ks.t_next = now + remaining / std::max<uint32_t>(1, options_.budget);
    states_.push_back(ks);
    return;
  }

  KeyState& ks = states_[state_idx];
  ++ks.freq_current;

  if (ks.budget_left == 0) return;  // budget exhausted: rank stays stale
  const uint64_t delta_freq = ks.freq_current - ks.freq_updated;
  if (delta_freq >= ks.f_step || now >= ks.t_next) RankUpdate(ks, now);
}

SortedKeyRun FlatAccumulator::PlaceRun(KeyState& ks, uint64_t* offset) {
  ks.cursor = *offset;
  *offset += ks.freq_current;
  return SortedKeyRun{ks.key, ks.freq_current, ks.cursor};
}

AccumulatedBatch FlatAccumulator::MakeBatch(std::vector<SortedKeyRun> keys) {
  sealed_.resize(log_.size());
  ScatterBySlot(
      log_, log_slot_,
      [this](uint32_t slot) -> uint64_t& { return states_[slot].cursor; },
      sealed_.data());
  return AccumulatedBatch(sealed_, std::move(keys));
}

AccumulatedBatch FlatAccumulator::Seal() {
  // Two-phase radix-partitioned merge reproducing the CountTree's reverse
  // in-order traversal: descending (freq_updated, key), larger key first on
  // ties, while the emitted counts stay the exact freq_current.
  //
  // Phase 1: scatter every key into one of 64 buckets by the bit-width of
  // its freq_updated (>= 1 always). Buckets are already ordered relative to
  // each other — every key in a higher bucket outranks every key in a lower
  // one — so phase 2 only sorts within buckets, each a small fraction of K.
  for (auto& bucket : radix_buckets_) bucket.clear();
  uint64_t offset = 0;
  for (KeyState& ks : states_) {
    const int bw = std::bit_width(ks.freq_updated);
    radix_buckets_[bw - 1].push_back(
        SealEntry{ks.freq_updated, PlaceRun(ks, &offset)});
  }

  // Phase 2: exact-sort each bucket, concatenate high-to-low.
  std::vector<SortedKeyRun> keys;
  keys.reserve(states_.size());
  for (int b = 63; b >= 0; --b) {
    std::vector<SealEntry>& bucket = radix_buckets_[b];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(),
              [](const SealEntry& a, const SealEntry& b) {
                return a.freq_updated != b.freq_updated
                           ? a.freq_updated > b.freq_updated
                           : a.run.key > b.run.key;
              });
    for (const SealEntry& e : bucket) keys.push_back(e.run);
  }
  return MakeBatch(std::move(keys));
}

AccumulatedBatch FlatAccumulator::SealWithPostSort() {
  std::vector<SortedKeyRun> keys;
  keys.reserve(states_.size());
  uint64_t offset = 0;
  for (KeyState& ks : states_) keys.push_back(PlaceRun(ks, &offset));
  std::sort(keys.begin(), keys.end(),
            [](const SortedKeyRun& a, const SortedKeyRun& b) {
              return a.count != b.count ? a.count > b.count : a.key < b.key;
            });
  return MakeBatch(std::move(keys));
}

}  // namespace prompt
