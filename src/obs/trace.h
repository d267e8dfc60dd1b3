// Per-batch structured tracing. Every batch interval produces one
// BatchTrace: a flat span list over the batch's timeline (accumulate →
// seal barrier → k-way merge → B-BPFI plan → queue → map → reduce), where
// depth-0 spans tile the end-to-end latency and deeper spans annotate what
// happened inside them. A trace is a pure projection of the batch's report
// (TraceOf, engine/engine.h), built only when a trace sink or an observer
// consumes it. Traces are exported one JSONL record per batch
// (src/obs/sink.h) and are the before/after evidence for every perf PR.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace prompt {

/// \brief One span of a batch trace.
///
/// `start` and `duration` are on the batch's timeline, microseconds relative
/// to the batch interval's start. Depth-0 spans partition the end-to-end
/// latency (they must not overlap); spans with depth >= 1 are annotations
/// nested inside the preceding shallower span and may measure wall time
/// (e.g. the ingest seal barrier) rather than virtual time.
struct TraceSpan {
  std::string name;
  TimeMicros start = 0;
  TimeMicros duration = 0;
  uint32_t depth = 0;
};

/// \brief One batch's trace: identity, totals and the span list.
struct BatchTrace {
  uint64_t batch_id = 0;
  /// The labels of the report stream the batch was published on (a
  /// tenant's {{"tenant", id}}); empty for a single-query run.
  std::vector<std::pair<std::string, std::string>> labels;
  /// Batch interval start on the engine's timeline (virtual time).
  TimeMicros batch_start = 0;
  /// Reported end-to-end latency the depth-0 spans should account for.
  TimeMicros latency = 0;
  uint64_t num_tuples = 0;
  uint64_t num_keys = 0;
  std::vector<TraceSpan> spans;

  /// Sum of depth-0 span durations — the accounted share of `latency`.
  TimeMicros TopLevelTotal() const {
    TimeMicros total = 0;
    for (const TraceSpan& s : spans) {
      if (s.depth == 0) total += s.duration;
    }
    return total;
  }

  /// Fraction of the reported latency covered by depth-0 spans (1.0 when
  /// they tile it exactly; the integration bar is >= 0.95).
  double Coverage() const {
    if (latency <= 0) return 1.0;
    return static_cast<double>(TopLevelTotal()) / static_cast<double>(latency);
  }

  const TraceSpan* FindSpan(std::string_view name) const {
    for (const TraceSpan& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

}  // namespace prompt
