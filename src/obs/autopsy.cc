#include "obs/autopsy.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"

namespace prompt {

namespace {
/// Sketch-mode head coverage below this fraction reattributes the Map
/// imbalance excess from straggler_core to sketch_saturated: most tuples
/// flowed through unsplittable tail buckets, so the plan could not balance
/// no matter what Alg. 2 did — the sketch capacity is the lever.
constexpr double kSketchCoverageThreshold = 0.5;
}  // namespace

std::string_view BatchCauseName(BatchCause cause) {
  switch (cause) {
    case BatchCause::kNone:
      return "none";
    case BatchCause::kQueueing:
      return "queueing";
    case BatchCause::kRecovery:
      return "recovery";
    case BatchCause::kSplitKeyOverflow:
      return "split_key_overflow";
    case BatchCause::kStragglerCore:
      return "straggler_core";
    case BatchCause::kBucketSkew:
      return "bucket_skew";
    case BatchCause::kIngestBackpressure:
      return "ingest_backpressure";
    case BatchCause::kSketchSaturated:
      return "sketch_saturated";
    case BatchCause::kCauseCount:
      break;
  }
  return "unknown";
}

BatchAutopsy ExplainBatch(const BatchReport& report,
                          const AutopsyOptions& options) {
  BatchAutopsy a;
  a.batch_id = report.batch_id;

  const PartitionMetrics& pm = report.partition_metrics;
  a.block_load_ratio =
      pm.avg_block_size > 0
          ? static_cast<double>(pm.max_block_size) / pm.avg_block_size
          : 1.0;
  a.split_key_frac = pm.distinct_keys > 0
                         ? static_cast<double>(pm.split_keys) /
                               static_cast<double>(pm.distinct_keys)
                         : 0.0;
  a.ring_occupancy = report.has_ingest ? MaxRingOccupancyFrac(report.ingest) : 0.0;

  auto set = [&a](BatchCause cause, TimeMicros excess) {
    a.excess[static_cast<size_t>(cause)] = std::max<TimeMicros>(0, excess);
  };
  set(BatchCause::kQueueing, report.queue_delay);
  set(BatchCause::kRecovery, report.recovery_time);
  set(BatchCause::kSplitKeyOverflow, report.partition_overflow);
  // Straggler excess: the share of the Map makespan a balanced plan (every
  // block at the average load) would not have spent. Needs the
  // partition-metrics pass; without it max/avg are zero and the rule is mute.
  // When the batch ran in sketch mode with collapsed head coverage, the same
  // excess is attributed to sketch saturation instead (never both): the
  // imbalance came from unsplittable tail buckets, not Alg. 2's plan, and
  // the fix is a larger sketch capacity rather than more map tasks.
  if (report.sketch.sketch_mode) {
    a.head_coverage = report.sketch.head_coverage();
  }
  if (pm.max_block_size > 0 && a.block_load_ratio > 1.0) {
    const auto imbalance_excess =
        static_cast<TimeMicros>(static_cast<double>(report.map_makespan) *
                                (1.0 - 1.0 / a.block_load_ratio));
    const bool saturated = report.sketch.sketch_mode &&
                           a.head_coverage < kSketchCoverageThreshold;
    set(saturated ? BatchCause::kSketchSaturated : BatchCause::kStragglerCore,
        imbalance_excess);
  }
  // Bucket-skew excess: how far the slowest reduce bucket dragged past the
  // stage's mean completion — the Fig. 13 spread, in microseconds.
  set(BatchCause::kBucketSkew,
      static_cast<TimeMicros>((report.reduce_completion_max_ms -
                               report.reduce_completion_mean_ms) *
                              1000.0));
  // Ring back-pressure only counts once a ring ran near capacity: the
  // router was (or was about to start) stalling on a full SPSC ring.
  if (report.has_ingest &&
      a.ring_occupancy >= options.ring_pressure_threshold) {
    set(BatchCause::kIngestBackpressure,
        report.ingest.seal_barrier_latency + report.ingest.merge_latency);
  }

  a.threshold = std::max<TimeMicros>(
      options.min_excess_us,
      static_cast<TimeMicros>(options.min_excess_frac *
                              static_cast<double>(report.batch_interval)));
  TimeMicros best = 0;
  for (size_t c = 0; c < kBatchCauses; ++c) {
    a.total_excess += a.excess[c];
    // Strict > keeps the earliest cause on ties — the deterministic order.
    if (a.excess[c] > best) {
      best = a.excess[c];
      a.dominant = static_cast<BatchCause>(c);
    }
  }
  if (best < a.threshold) a.dominant = BatchCause::kNone;
  return a;
}

Record AutopsyRecord(const BatchAutopsy& autopsy) {
  Record r;
  r.Set("record", "autopsy")
      .Set("batch_id", autopsy.batch_id)
      .Set("dominant", std::string(BatchCauseName(autopsy.dominant)))
      .Set("total_excess_us", static_cast<int64_t>(autopsy.total_excess))
      .Set("threshold_us", static_cast<int64_t>(autopsy.threshold));
  for (size_t c = 1; c < kBatchCauses; ++c) {
    const auto cause = static_cast<BatchCause>(c);
    r.Set("excess_" + std::string(BatchCauseName(cause)) + "_us",
          static_cast<int64_t>(autopsy.excess[c]));
  }
  r.Set("block_load_ratio", autopsy.block_load_ratio)
      .Set("split_key_frac", autopsy.split_key_frac)
      .Set("ring_occupancy", autopsy.ring_occupancy)
      .Set("head_coverage", autopsy.head_coverage);
  return r;
}

void WriteAutopsyText(const BatchAutopsy& autopsy, const BatchReport& report,
                      std::ostream* out) {
  *out << "autopsy for batch " << autopsy.batch_id << ": dominant="
       << BatchCauseName(autopsy.dominant) << "  (latency "
       << static_cast<double>(report.latency) / 1000.0 << "ms over a "
       << static_cast<double>(report.batch_interval) / 1000.0
       << "ms interval, noise floor "
       << static_cast<double>(autopsy.threshold) / 1000.0 << "ms)\n";
  TableSink table(out, /*column_width=*/22);
  for (size_t c = 1; c < kBatchCauses; ++c) {
    const auto cause = static_cast<BatchCause>(c);
    Record row;
    row.Set("cause", std::string(BatchCauseName(cause)))
        .Set("excess_ms",
             static_cast<double>(autopsy.excess[c]) / 1000.0)
        .Set("dominant", cause == autopsy.dominant ? "<==" : "");
    table.Write(row);
  }
  *out << "context: block_load_ratio=" << autopsy.block_load_ratio
       << " split_key_frac=" << autopsy.split_key_frac
       << " ring_occupancy=" << autopsy.ring_occupancy
       << " head_coverage=" << autopsy.head_coverage
       << " queue_ms=" << static_cast<double>(report.queue_delay) / 1000.0
       << " recovery_ms="
       << static_cast<double>(report.recovery_time) / 1000.0 << "\n";
}

}  // namespace prompt
