// The one per-batch record. Every per-batch product — the report row, the
// trace (TraceOf, engine/engine.h), the time-series point, the autopsy row
// and the journal's outcome fingerprint — is a projection of a BatchReport.
// Lives in src/obs/ (not the engine) so every consumer — report_io, sinks,
// bench figure writers, external Observers — shares one definition without
// pulling in the engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/clock.h"
#include "model/sketch_stats.h"
#include "stats/metrics.h"

namespace prompt {

/// \brief Causes a batch's excess latency can be attributed to (the skew
/// autopsy, obs/autopsy.h). Order is the tie-break: on equal excess the
/// earlier cause wins (deterministic).
enum class BatchCause : size_t {
  kNone = 0,            ///< every excess source below the noise floor
  kQueueing,            ///< waited behind earlier batches (W > 1 upstream)
  kRecovery,            ///< replays / re-replication after a failure
  kSplitKeyOverflow,    ///< B-BPFI plan ran past the release slack
  kStragglerCore,       ///< one Map block dominated the stage makespan
  kBucketSkew,          ///< uneven reduce buckets spread completion times
  kIngestBackpressure,  ///< an ingest ring ran near capacity at the cut-off
  kSketchSaturated,     ///< sketch-mode head coverage collapsed: unsplittable
                        ///< tail buckets drove the Map imbalance
  kCauseCount
};

inline constexpr size_t kBatchCauses =
    static_cast<size_t>(BatchCause::kCauseCount);

/// \brief One batch's explained verdict.
struct BatchAutopsy {
  uint64_t batch_id = 0;
  BatchCause dominant = BatchCause::kNone;
  /// Excess microseconds attributed to each cause (kNone stays 0).
  std::array<TimeMicros, kBatchCauses> excess{};
  /// Sum of all per-cause excess.
  TimeMicros total_excess = 0;
  /// Noise floor the dominant cause had to clear.
  TimeMicros threshold = 0;

  // Context the rules fired on (for the human-readable table).
  double block_load_ratio = 1.0;
  double split_key_frac = 0;
  double ring_occupancy = 0;
  /// 1.0 outside sketch mode (exact tracking covers everything).
  double head_coverage = 1.0;

  TimeMicros excess_of(BatchCause cause) const {
    return excess[static_cast<size_t>(cause)];
  }
};

/// \brief Everything the engine reports about one processed micro-batch.
struct BatchReport {
  uint64_t batch_id = 0;
  /// Interval this batch accumulated over (varies under batch resizing).
  TimeMicros batch_interval = 0;
  uint64_t num_tuples = 0;
  uint64_t num_keys = 0;
  uint32_t map_tasks = 0;
  uint32_t reduce_tasks = 0;
  /// Cores the batch's query was granted this heartbeat: its weighted-fair
  /// share of the pool (the whole pool for a single query).
  uint32_t slots = 0;
  TimeMicros partition_cost = 0;      ///< measured partitioner decision time
  TimeMicros partition_overflow = 0;  ///< part exceeding the release slack
  TimeMicros map_makespan = 0;
  TimeMicros reduce_makespan = 0;
  TimeMicros processing_time = 0;  ///< overflow + map + reduce makespans
  TimeMicros queue_delay = 0;      ///< wait behind earlier batches
  TimeMicros latency = 0;          ///< end-to-end: interval + queue + proc
  double w = 0;                    ///< processing_time / batch_interval
  PartitionMetrics partition_metrics;  ///< zeros unless collection enabled
  double reduce_bucket_bsi = 0;        ///< Eqn. 3 over this batch's buckets
  /// Reduce-task completion spread within the batch (Fig. 13): mean and
  /// max-min band of completion times relative to reduce-stage start.
  double reduce_completion_mean_ms = 0;
  double reduce_completion_min_ms = 0;
  double reduce_completion_max_ms = 0;
  /// Map tasks that read their block remotely (cluster mode only).
  uint32_t remote_map_tasks = 0;

  // ---- Adaptive technique switching (src/adapt/). The engine stamps the
  // technique that partitioned this batch; -1 when the partitioner's name
  // maps to no factory type (custom partitioners).
  int32_t technique = -1;  ///< PartitionerType enum value
  /// First batch sealed by a new technique after an adaptive switch.
  bool technique_switched = false;
  int32_t switched_from = -1;  ///< previous PartitionerType; -1 otherwise

  // ---- Fault-tolerance accounting (src/fault/), zeros on healthy batches.
  /// In-window batches recomputed from replicated input this interval
  /// (includes the current batch when it was replayed after a mid-stage
  /// node loss).
  uint32_t batches_replayed = 0;
  /// Failed map-task attempts recovered by the bounded-retry policy.
  uint32_t tasks_retried = 0;
  /// Stragglers that got a speculative backup copy (first-finish wins).
  uint32_t tasks_speculated = 0;
  /// Batches below the replication target after recovery ran (0 when the
  /// top-up restored every batch to the configured factor).
  uint32_t under_replicated_batches = 0;
  /// Virtual time spent on recovery work (replays, re-execution after node
  /// loss, re-replication traffic); included in processing_time and traced
  /// as the depth-0 `recovery` span.
  TimeMicros recovery_time = 0;
  /// A node loss was detected and handled while this batch processed.
  bool recovered_from_failure = false;
  /// Replicas needed for recovery were gone (replication factor too low):
  /// exactly-once could not be preserved for at least one batch.
  bool unrecoverable = false;

  // ---- Durable block store (src/store/), zeros when no store is attached.
  /// Wall-clock cost of appending this batch to the durable log.
  TimeMicros store_append_us = 0;
  /// Serialized batch bytes appended to the durable log this interval.
  uint64_t store_bytes_appended = 0;
  /// Memory-tier copies spilled to stay under the node memory budget
  /// (the batch stays readable from disk).
  uint32_t store_spilled_copies = 0;

  /// Heavy-hitter ingest telemetry (DESIGN.md §17). `sketch.sketch_mode` is
  /// false (all fields zero) unless the batch was accumulated with
  /// key_mode = sketch; then head_coverage() / error_frac feed the
  /// kHeadCoverage / kSketchErrorFrac time-series signals and ExplainBatch's
  /// sketch-saturation rule.
  SketchBatchStats sketch;

  /// Per-shard ingest observability of this batch's batching phase.
  /// Populated (has_ingest = true) when the engine runs the sharded ingest
  /// pipeline (EngineOptions::ingest.shards > 1); default otherwise.
  IngestMetrics ingest;
  bool has_ingest = false;

  /// Order-independent hash of the batch's per-key window contribution.
  /// Computed only while the flight recorder (src/replay/) is journaling —
  /// equal hashes on every batch imply bit-identical window aggregates.
  uint64_t output_hash = 0;

  /// The published batch's verdict, explained once by the batch loop from
  /// the fields above (ExplainBatch, obs/autopsy.h); every consumer — the
  /// adapt controller, the autopsy row, the journal outcome, the run
  /// summaries and `promptctl --explain` — reads it from here.
  BatchAutopsy autopsy;
};

}  // namespace prompt
