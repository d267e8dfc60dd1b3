// Alg. 1's per-key update budget (paper §4.1): the state machine that
// decides, tuple by tuple, when a key's rank is refreshed. The flat and the
// sketch accumulator both run this one definition.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/clock.h"
#include "core/accumulator_api.h"

namespace prompt {

/// \brief One key's budget state: its exact count (Freq_Current), the count
/// its rank last took (Freq_Updated), the rank refreshes it has left, and
/// the frequency and time steps its next refresh waits for.
struct KeyBudget {
  uint64_t freq_current = 0;
  uint64_t freq_updated = 0;
  uint64_t f_step = 1;
  TimeMicros t_next = 0;
  uint32_t budget_left = 0;
};

/// \brief The budget rule of one batch interval, fixed at Begin() from the
/// accumulator options and the interval's end.
class BudgetRule {
 public:
  BudgetRule() = default;
  BudgetRule(const AccumulatorOptions& options, TimeMicros batch_end)
      : budget_(options.budget),
        step_base_(std::max<uint64_t>(
            1, options.estimated_tuples /
                   std::max<uint32_t>(1, options.budget))),
        initial_f_step_(std::max<uint64_t>(
            1, options.estimated_tuples /
                   std::max<uint64_t>(1, options.avg_keys * options.budget))),
        batch_end_(batch_end) {}

  /// A key's first tuple, at `now` (Alg. 1 lines 24-30): count 1, the full
  /// budget, f.step = N_est / (K_avg * budget) and t.step = the rest of the
  /// interval / budget.
  KeyBudget First(TimeMicros now) const {
    KeyBudget k;
    k.freq_current = 1;
    k.freq_updated = 1;
    k.f_step = initial_f_step_;
    k.t_next = now + Remaining(now) / std::max<uint32_t>(1, budget_);
    k.budget_left = budget_;
    return k;
  }

  /// Counts one more tuple of the key, at `now`, the `batch_tuples`-th of
  /// the batch (Alg. 1 lines 4-23). Once the key has gained f.step tuples or
  /// reached t.step since its last refresh, and has budget left, its rank
  /// takes the current count and both steps are re-derived:
  /// f.step = (N_est / budget) * Freq_Current / N_C (frequent keys wait
  /// proportionally longer) and t.step = the rest of the interval / the
  /// budget left. Returns whether the rank was refreshed.
  bool Count(KeyBudget& k, uint64_t batch_tuples, TimeMicros now) const {
    ++k.freq_current;
    if (k.budget_left == 0) return false;
    if (k.freq_current - k.freq_updated < k.f_step && now < k.t_next) {
      return false;
    }
    k.freq_updated = k.freq_current;
    --k.budget_left;
    k.f_step = std::max<uint64_t>(
        1, step_base_ * k.freq_current / std::max<uint64_t>(1, batch_tuples));
    k.t_next = now + Remaining(now) / std::max<uint32_t>(1, k.budget_left);
    return true;
  }

 private:
  TimeMicros Remaining(TimeMicros now) const {
    return std::max<TimeMicros>(0, batch_end_ - now);
  }

  uint32_t budget_ = 0;
  uint64_t step_base_ = 1;       ///< N_est / budget
  uint64_t initial_f_step_ = 1;  ///< N_est / (K_avg * budget)
  TimeMicros batch_end_ = 0;
};

}  // namespace prompt
