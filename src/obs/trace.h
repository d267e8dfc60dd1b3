// Per-batch structured tracing. Every batch interval produces one
// BatchTrace: a flat span list over the batch's timeline (accumulate →
// seal barrier → k-way merge → B-BPFI plan → queue → map → reduce), where
// depth-0 spans tile the end-to-end latency and deeper spans annotate what
// happened inside them. Traces are exported one JSONL record per batch
// (src/obs/sink.h) and are the before/after evidence for every perf PR.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"

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

/// \brief Builds one BatchTrace per batch.
///
/// Two ways to record spans, freely mixed within a batch:
///  - AddSpan(): explicit placement, used by the engine to lay the virtual
///    batch timeline (interval, queueing, makespans) after the fact;
///  - StartSpan(): RAII wall-clock scopes for code whose cost is real time
///    (ingest seal/merge). Nesting of live scopes sets the span depth.
///
/// Not thread-safe; one recorder belongs to one driver thread (the engine
/// loop). Cross-thread measurements enter as already-measured durations via
/// AddSpan.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  PROMPT_DISALLOW_COPY_AND_ASSIGN(TraceRecorder);

  /// Opens the trace of a new batch; any previous batch must be ended.
  void BeginBatch(uint64_t batch_id, TimeMicros batch_start) {
    PROMPT_CHECK(!open_);
    open_ = true;
    current_ = BatchTrace{};
    current_.batch_id = batch_id;
    current_.batch_start = batch_start;
    open_scopes_ = 0;
    wall_.Restart();
  }

  bool open() const { return open_; }

  /// Records a span at an explicit position on the batch timeline.
  void AddSpan(std::string_view name, TimeMicros start, TimeMicros duration,
               uint32_t depth = 0) {
    PROMPT_CHECK(open_);
    current_.spans.push_back(
        TraceSpan{std::string(name), start, duration, depth});
  }

  /// \brief RAII wall-clock span; closes (records duration) on destruction.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : recorder_(other.recorder_), index_(other.index_) {
      other.recorder_ = nullptr;
    }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }

    /// Closes the span early (idempotent).
    void End() {
      if (recorder_ != nullptr) {
        recorder_->EndScope(index_);
        recorder_ = nullptr;
      }
    }

   private:
    friend class TraceRecorder;
    Scope(TraceRecorder* recorder, size_t index)
        : recorder_(recorder), index_(index) {}

    TraceRecorder* recorder_;
    size_t index_;
  };

  /// Opens a wall-clock span; depth = number of currently open scopes.
  Scope StartSpan(std::string_view name) {
    PROMPT_CHECK(open_);
    const size_t index = current_.spans.size();
    current_.spans.push_back(TraceSpan{std::string(name),
                                       wall_.ElapsedMicros(), 0, open_scopes_});
    ++open_scopes_;
    return Scope(this, index);
  }

  /// Closes the batch, filling totals, and returns the finished trace. The
  /// reference stays valid until the next BeginBatch.
  const BatchTrace& EndBatch(uint64_t num_tuples, uint64_t num_keys,
                             TimeMicros latency) {
    PROMPT_CHECK(open_);
    PROMPT_CHECK_MSG(open_scopes_ == 0, "EndBatch with open trace scopes");
    current_.num_tuples = num_tuples;
    current_.num_keys = num_keys;
    current_.latency = latency;
    open_ = false;
    return current_;
  }

  /// The trace under construction (open) or most recently ended.
  const BatchTrace& current() const { return current_; }

 private:
  void EndScope(size_t index) {
    PROMPT_CHECK(open_scopes_ > 0);
    --open_scopes_;
    TraceSpan& span = current_.spans[index];
    span.duration = wall_.ElapsedMicros() - span.start;
  }

  BatchTrace current_;
  Stopwatch wall_;
  uint32_t open_scopes_ = 0;
  bool open_ = false;
};

}  // namespace prompt
