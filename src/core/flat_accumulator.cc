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
  rule_ = BudgetRule(options_, end);
  num_tuples_ = 0;
  ordering_updates_ = 0;
  table_.Clear();
  states_.clear();
  log_.clear();
  log_slot_.clear();
}

void FlatAccumulator::Reset() {
  num_tuples_ = 0;
  ordering_updates_ = 0;
  table_ = FlatMap<uint32_t>(1024);
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

void FlatAccumulator::OnTuple(const Tuple& t) {
  ++num_tuples_;
  bool inserted = false;
  uint32_t& state_idx = table_.GetOrInsert(t.key, &inserted);
  if (inserted) state_idx = static_cast<uint32_t>(states_.size());
  log_.push_back(t);
  log_slot_.push_back(state_idx);
  if (inserted) {
    states_.push_back(KeyState{rule_.First(t.ts), t.key, 0});
  } else if (rule_.Count(states_[state_idx], num_tuples_, t.ts)) {
    ++ordering_updates_;
  }
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
  // Descending (freq_updated, key), larger key first on ties, while the
  // emitted counts stay the exact freq_current.
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
