// Span recording for the traced run: the harness wraps each call it makes
// into an engine layer in a span (name, start, end, parent; the batch id is
// the trace id). Spans stay in memory and are written once, as JSONL, at
// exit. A layer's self time is its span's duration minus the time its child
// spans cover.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/reduce_allocator.h"
#include "harness.h"

namespace wallbench {

/// Span names. The part before the first '.' is the layer (a src/ module);
/// "batch" is the per-batch root, whose self time is harness glue.
enum SpanName : uint8_t {
  kBatch,
  kIngestRoute,       // ParallelIngestPipeline::Ingest, over the batch
  kIngestSealMerge,   // ParallelIngestPipeline::SealBatch
  kCoreAccumulate,    // Accumulator::Begin + OnTuple, over the batch
  kCoreSeal,          // Accumulator::Seal
  kCorePlan,          // BuildPromptPlan
  kCoreMaterialize,   // MaterializePlan
  kCoreReduceAssign,  // PromptReduceAllocator::Assign (inside Execute)
  kEngineExecute,     // BatchExecutor::Execute
  kEngineWindow,      // WindowState::AddBatch
  kStoreEncode,       // EncodeBatch
  kStoreAppend,       // DurableBlockStore::Put
  kStoreEvict,        // DurableBlockStore::Evict
  kStoreSync,         // DurableBlockStore::Sync
  kStoreRecover,      // DurableBlockStore::Open + recovered re-execution
  kReplayAppend,      // JournalWriter::RecordTuple/Append*, SettleBatchEnv
  kReplaySync,        // JournalWriter::SyncBatch
  kTenantFanout,      // KeyFilter::Matches + per-tenant OnTuple
  kBaselinesOnTuple,  // Hash / PK2 partitioner OnTuple (inside the fan-out)
  kBaselinesSeal,     // Hash / PK2 partitioner Seal
  kObsAutopsy,        // ExplainBatch
  kSpanNames,
};

inline const char* SpanNameText(uint8_t name) {
  static const char* const kText[kSpanNames] = {
      "batch",           "ingest.route",    "ingest.seal_merge",
      "core.accumulate", "core.seal",       "core.plan",
      "core.materialize", "core.reduce_assign", "engine.execute",
      "engine.window",   "store.encode",    "store.append",
      "store.evict",     "store.sync",      "store.recover",
      "replay.append",   "replay.sync",     "tenant.fanout",
      "baselines.on_tuple", "baselines.seal", "obs.autopsy",
  };
  return name < kSpanNames ? kText[name] : "?";
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t trace = 0;  ///< batch id (UINT64_MAX for set-up spans)
  int32_t parent = -1;
  uint8_t name = 0;
};

/// \brief In-memory span recorder for one thread (the harness's). Spans
/// nest: Begin() parents the new span on the innermost open one.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  int32_t Begin(uint8_t name, uint64_t trace) {
    Span s;
    s.name = name;
    s.trace = trace;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  /// The innermost open span's trace id (the current batch).
  uint64_t current_trace() const {
    return open_.empty() ? UINT64_MAX : spans_[open_.back()].trace;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (ns) of every span: duration minus its direct children's.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  /// Writes one JSON object per span to `f`, tagged with `segment`.
  /// Returns false on an IO error.
  bool WriteJsonl(FILE* f, int segment) const {
    const std::vector<int64_t> self = SelfTimes();
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (std::fprintf(
              f,
              "{\"segment\":%d,\"trace\":%lld,\"span\":%zu,\"parent\":%d,"
              "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
              "\"self_ns\":%lld}\n",
              segment,
              s.trace == UINT64_MAX ? -1LL : static_cast<long long>(s.trace),
              i, s.parent, SpanNameText(s.name),
              static_cast<long long>(s.start_ns - t0),
              static_cast<long long>(s.end_ns - t0),
              static_cast<long long>(self[i])) < 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// \brief Scoped span.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, uint8_t name, uint64_t trace)
      : rec_(rec), id_(rec->Begin(name, trace)) {}
  ~SpanScope() { rec_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

/// \brief Alg. 3 allocator that spans each Assign call. BatchExecutor takes
/// its allocator by pointer, so the traced executor gets this one and the
/// Assign calls it makes from inside Execute become child spans.
class TimedAllocator final : public prompt::ReduceAllocator {
 public:
  explicit TimedAllocator(SpanRecorder* rec) : rec_(rec) {}
  const char* name() const override { return inner_.name(); }
  std::vector<uint32_t> Assign(const std::vector<prompt::KeyCluster>& clusters,
                               uint32_t num_buckets) override {
    SpanScope span(rec_, kCoreReduceAssign, rec_->current_trace());
    return inner_.Assign(clusters, num_buckets);
  }

 private:
  SpanRecorder* rec_;
  prompt::PromptReduceAllocator inner_;
};

}  // namespace wallbench
