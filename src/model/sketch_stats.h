// Sketch-mode (heavy-hitter ingest) batch telemetry, shared by the
// accumulator layer that produces it and the partitioned-batch model that
// carries it to the engine's observability stack.
#pragma once

#include <cstdint>

namespace prompt {

/// \brief Heavy-hitter mode telemetry for one batch. `sketch_mode` is false
/// (and the rest zero) when the batch came from an exact accumulator.
struct SketchBatchStats {
  bool sketch_mode = false;
  uint64_t head_tuples = 0;        ///< tuples in exact key runs
  uint64_t tail_tuples = 0;        ///< tuples flowing through tail buckets
  uint64_t tracked_keys = 0;       ///< live Space-Saving counters at seal
  uint64_t promoted_keys = 0;      ///< keys holding exact state
  uint64_t min_count = 0;          ///< sketch floor: max untracked frequency
  uint64_t distinct_estimate = 0;  ///< HyperLogLog estimate of distinct keys
  double error_frac = 0.0;         ///< sketch over-estimate mass / batch tuples

  /// Fraction of the batch's tuples covered by exact key runs.
  double head_coverage() const {
    const uint64_t n = head_tuples + tail_tuples;
    return n == 0 ? 0.0 : static_cast<double>(head_tuples) / n;
  }
};

}  // namespace prompt
