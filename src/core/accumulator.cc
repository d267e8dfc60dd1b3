#include "core/accumulator.h"

#include <algorithm>

namespace prompt {

const char* LegacyChainAccumulator::name() const {
  return AccumulatorKindName(AccumulatorKind::kLegacyChain);
}

void LegacyChainAccumulator::Begin(TimeMicros start, TimeMicros end) {
  PROMPT_CHECK(end > start);
  batch_start_ = start;
  batch_end_ = end;
  num_tuples_ = 0;
  tree_updates_ = 0;
  table_.Clear();
  tree_.Clear();
  arena_.clear();
  next_.clear();
  // f <- N_est / (K_avg * budget): the best step under a uniform-key
  // assumption (§4.1). Each key then adapts its own step as it is observed.
  const uint64_t denom =
      std::max<uint64_t>(1, options_.avg_keys * options_.budget);
  initial_f_step_ = std::max<uint64_t>(1, options_.estimated_tuples / denom);
}

void LegacyChainAccumulator::Reset() {
  num_tuples_ = 0;
  tree_updates_ = 0;
  table_ = FlatMap<KeyState>();
  tree_.Reset();
  std::vector<Tuple>().swap(arena_);
  std::vector<uint32_t>().swap(next_);
  std::vector<Tuple>().swap(sealed_);
}

size_t LegacyChainAccumulator::capacity_bytes() const {
  return (arena_.capacity() + sealed_.capacity()) * sizeof(Tuple) +
         next_.capacity() * sizeof(uint32_t) + table_.capacity_bytes() +
         tree_.capacity_bytes();
}

void LegacyChainAccumulator::TreeUpdate(KeyId key, KeyState& ks,
                                        TimeMicros now) {
  tree_.Update(key, ks.freq_updated, ks.freq_current);
  ++tree_updates_;
  ks.freq_updated = ks.freq_current;
  if (ks.budget_left > 0) --ks.budget_left;
  // f.step = (N_est / budget) * Freq_Current / N_C  (Alg. 1 line 13):
  // frequent keys need proportionally more arrivals before their next
  // repositioning, keeping per-key updates within budget.
  const uint64_t n_c = std::max<uint64_t>(1, num_tuples_);
  const uint64_t base =
      std::max<uint64_t>(1, options_.estimated_tuples /
                                std::max<uint32_t>(1, options_.budget));
  ks.f_step = std::max<uint64_t>(1, base * ks.freq_current / n_c);
  // t.step = remaining interval / remaining budget (Alg. 1 line 19).
  const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
  ks.t_next =
      now + remaining / std::max<uint32_t>(1, ks.budget_left ? ks.budget_left : 1);
}

void LegacyChainAccumulator::OnTuple(const Tuple& t) {
  const TimeMicros now = t.ts;
  ++num_tuples_;

  const uint32_t tuple_idx = static_cast<uint32_t>(arena_.size());
  arena_.push_back(t);
  next_.push_back(kChainEnd);

  bool inserted = false;
  KeyState& ks = table_.GetOrInsert(t.key, &inserted);
  if (inserted) {
    // New key (Alg. 1 lines 24-30): chain the tuple, create a CountTree node
    // with count 1, and initialize its budget steps.
    ks.freq_current = 1;
    ks.freq_updated = 1;
    ks.budget_left = options_.budget;
    ks.f_step = initial_f_step_;
    const TimeMicros remaining = std::max<TimeMicros>(0, batch_end_ - now);
    ks.t_next = now + remaining / std::max<uint32_t>(1, options_.budget);
    ks.head = ks.tail = tuple_idx;
    tree_.Insert(t.key, 1);
    return;
  }

  // Existing key (Alg. 1 lines 4-23): chain the tuple, then decide whether
  // this arrival triggers a budgeted CountTree repositioning.
  next_[ks.tail] = tuple_idx;
  ks.tail = tuple_idx;
  ++ks.freq_current;

  if (ks.budget_left == 0) return;  // budget exhausted: count stays stale
  const uint64_t delta_freq = ks.freq_current - ks.freq_updated;
  if (delta_freq >= ks.f_step) {
    TreeUpdate(t.key, ks, now);
  } else if (now >= ks.t_next) {
    TreeUpdate(t.key, ks, now);
  }
  // else: key not yet eligible for an update (line 21).
}

SortedKeyRun LegacyChainAccumulator::AppendRun(KeyId key,
                                              const KeyState& ks) {
  const SortedKeyRun run{key, ks.freq_current, sealed_.size()};
  for (uint32_t i = ks.head; i != kChainEnd; i = next_[i]) {
    sealed_.push_back(arena_[i]);
  }
  return run;
}

AccumulatedBatch LegacyChainAccumulator::Seal() {
  sealed_.clear();
  sealed_.reserve(arena_.size());
  std::vector<SortedKeyRun> keys;
  keys.reserve(tree_.size());
  // Reverse in-order traversal: quasi-sorted, highest tree count first. The
  // emitted counts are the exact HTable frequencies; only the *order* is
  // approximate when budgets ran out.
  tree_.ForEachDescending([this, &keys](KeyId k, uint64_t) {
    const KeyState* ks = table_.Find(k);
    PROMPT_CHECK(ks != nullptr);
    keys.push_back(AppendRun(k, *ks));
  });
  return AccumulatedBatch(sealed_, std::move(keys));
}

AccumulatedBatch LegacyChainAccumulator::SealWithPostSort() {
  std::vector<std::pair<KeyId, const KeyState*>> order;
  order.reserve(table_.size());
  table_.ForEach([&order](KeyId k, const KeyState& ks) {
    order.emplace_back(k, &ks);
  });
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->freq_current != b.second->freq_current
               ? a.second->freq_current > b.second->freq_current
               : a.first < b.first;
  });
  sealed_.clear();
  sealed_.reserve(arena_.size());
  std::vector<SortedKeyRun> keys;
  keys.reserve(order.size());
  for (const auto& [key, ks] : order) keys.push_back(AppendRun(key, *ks));
  return AccumulatedBatch(sealed_, std::move(keys));
}

}  // namespace prompt
