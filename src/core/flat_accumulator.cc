#include "core/flat_accumulator.h"

#include <algorithm>
#include <span>

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
  rank_scratch_ = RankOrderScratch();
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

void FlatAccumulator::PlaceRuns() {
  uint64_t offset = 0;
  for (KeyState& ks : states_) {
    ks.cursor = offset;
    offset += ks.freq_current;
  }
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
  // Reproduces the CountTree's reverse in-order traversal: descending
  // (freq_updated, key), larger key first on ties, while the emitted counts
  // stay the exact freq_current.
  PlaceRuns();
  const std::span<const RankedItem> order = OrderByRank(
      static_cast<uint32_t>(states_.size()),
      [this](uint32_t i) { return states_[i].freq_updated; },
      [this](uint32_t i) { return states_[i].key; }, KeyTies::kDescending,
      &rank_scratch_);
  std::vector<SortedKeyRun> keys;
  keys.reserve(order.size());
  for (const RankedItem& item : order) {
    keys.push_back(RunOf(states_[item.index]));
  }
  return MakeBatch(std::move(keys));
}

AccumulatedBatch FlatAccumulator::SealWithPostSort() {
  PlaceRuns();
  std::vector<SortedKeyRun> keys;
  keys.reserve(states_.size());
  for (const KeyState& ks : states_) keys.push_back(RunOf(ks));
  std::sort(keys.begin(), keys.end(),
            [](const SortedKeyRun& a, const SortedKeyRun& b) {
              return a.count != b.count ? a.count > b.count : a.key < b.key;
            });
  return MakeBatch(std::move(keys));
}

}  // namespace prompt
