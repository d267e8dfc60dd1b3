// Per-batch skew autopsy: answers "why was batch N slow" by joining the
// batch's report (trace-span totals, partition plan quality, ingest state,
// recovery accounting) and attributing the latency beyond the ideal balanced
// schedule to a dominant cause. Attribution is rule-based and fully
// deterministic — same report, same verdict — so tests can assert exact
// causes on synthetic workloads. Records flow through the standard
// RecordSink path as JSONL `autopsy` rows and render as a human table via
// `promptctl --explain <batch>`. The batch loop explains each published
// batch once; the verdict travels with the report (BatchReport::autopsy).
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>

#include "common/clock.h"
#include "obs/batch_report.h"
#include "obs/record.h"

namespace prompt {

/// Stable wire name (JSONL records, test assertions, --explain output).
std::string_view BatchCauseName(BatchCause cause);

/// \brief Attribution thresholds.
struct AutopsyOptions {
  /// A batch is "healthy" (kNone) unless some cause's excess reaches
  /// max(min_excess_us, min_excess_frac * batch_interval).
  double min_excess_frac = 0.01;
  TimeMicros min_excess_us = 1000;
  /// Ring occupancy at or above this fraction counts as back-pressure.
  double ring_pressure_threshold = 0.75;
};

/// \brief Runs the attribution rules over one batch report.
///
/// The rules (documented in DESIGN.md §10):
///  - queueing            = report.queue_delay
///  - recovery            = report.recovery_time
///  - split_key_overflow  = report.partition_overflow (the plan's work is
///                          dominated by heavy-key splitting; overflow past
///                          the Early-Batch-Release slack is its signature)
///  - straggler_core      = map_makespan * (1 - avg_block/max_block) when
///                          the partition-metrics pass ran (0 otherwise)
///  - bucket_skew         = (max - mean) reduce completion time
///  - ingest_backpressure = seal_barrier + merge latency when some ring's
///                          occupancy reached ring_pressure_threshold
///  - sketch_saturated    = the straggler_core excess instead, when a
///                          sketch-mode batch's head coverage is below 0.5
/// Dominant = argmax excess, earlier enum value wins ties; kNone when the
/// max is below the noise floor.
BatchAutopsy ExplainBatch(const BatchReport& report,
                          const AutopsyOptions& options = {});

/// \brief Lowers an autopsy to the canonical record row (JSONL sinks):
/// record=autopsy, batch_id, dominant, total/threshold and one
/// excess_<cause>_us column per cause.
Record AutopsyRecord(const BatchAutopsy& autopsy);

/// \brief Human-readable verdict + per-cause table (promptctl --explain).
void WriteAutopsyText(const BatchAutopsy& autopsy, const BatchReport& report,
                      std::ostream* out);

}  // namespace prompt
