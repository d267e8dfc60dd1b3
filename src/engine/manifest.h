// The flight-recorder manifest schema (DESIGN.md §16): each engine names the
// options it records once, in one field list in key order, which records a
// run and strictly rebuilds its options on replay, so the two cannot drift:
//   v("map_tasks", o.map_tasks, AtLeast(1));
//   if (v.Optional(o.faults.enabled())) { ...fields... }
// The two-tenant list is in tenant/multi_tenant_engine.cc.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "replay/journal.h"

namespace prompt {

inline constexpr char kJournalFormat[] = "prompt-journal-v1";

/// \brief The values a numeric field accepts (ends included): every recorded
/// number is a count, duration, cost or fraction, so never negative.
struct Range {
  double lo = 0;
  double hi = std::numeric_limits<double>::infinity();
};
inline Range AtLeast(double lo) { return Range{lo}; }
/// A modeled cost coefficient: at most one second per task, tuple, key,
/// cluster or KiB (the partition-cost scale is a factor under the same
/// cap). A batch of up to 2^41 tuples then models under 2^63 µs, so every
/// cast of a modeled duration to TimeMicros stays defined.
inline constexpr Range kCostRange{0, 1e6};

// ---- Value codecs. FormatValue gives a value's manifest text; ParseValue
// reads text back into the type or fails. A read value must also format
// back to the same text, which rules out spaces, signs, padding and aliases.

inline Status Known(bool ok, const std::string& what, std::string_view text) {
  if (ok) return Status::OK();
  return Status::Invalid("'" + std::string(text) + "' is not " + what);
}
template <std::integral T>
std::string FormatValue(T value) {
  return std::to_string(+value);  // a bool records as 0 or 1
}
template <std::integral T>
Status ParseValue(std::string_view text, T* out) {
  std::conditional_t<std::same_as<T, bool>, unsigned, T> value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  *out = static_cast<T>(value);
  return Known(ec == std::errc() && end == text.data() + text.size(),
               "an integer of the field's width", text);
}
std::string FormatValue(double value);  // "%.17g": round-trips exactly
Status ParseValue(std::string_view text, double* out);  // finite only
inline std::string FormatValue(const std::string& value) { return value; }
inline Status ParseValue(std::string_view text, std::string* out) {
  *out = std::string(text);
  return Known(!text.empty(), "a query", text);
}
inline std::string FormatValue(ExecutionMode value) {
  return value == ExecutionMode::kReal ? "real" : "simulated";
}
inline Status ParseValue(std::string_view text, ExecutionMode* out) {
  *out = text == "real" ? ExecutionMode::kReal : ExecutionMode::kSimulated;
  return Known(text == "real" || text == "simulated", "a mode", text);
}
inline std::string FormatValue(KeyMode value) { return KeyModeName(value); }
inline Status ParseValue(std::string_view text, KeyMode* out) {
  return Known(ParseKeyMode(text, out), "a key mode", text);
}
inline std::string FormatValue(FsyncPolicy value) {
  return FsyncPolicyName(value);
}
inline Status ParseValue(std::string_view text, FsyncPolicy* out) {
  PROMPT_ASSIGN_OR_RETURN(*out, ParseFsyncPolicy(std::string(text)));
  return Status::OK();
}
/// The starting technique; nullopt, a custom partitioner, records as
/// "custom", which names no factory type and so never replays.
inline std::string FormatValue(const std::optional<PartitionerType>& value) {
  return value ? PartitionerTypeName(*value) : "custom";
}
inline Status ParseValue(std::string_view text,
                         std::optional<PartitionerType>* out) {
  PROMPT_ASSIGN_OR_RETURN(*out, PartitionerTypeFromName(std::string(text)));
  return Status::OK();
}
/// A non-empty comma-separated technique ladder.
std::string FormatValue(const std::vector<PartitionerType>& value);
Status ParseValue(std::string_view text, std::vector<PartitionerType>* out);
/// A schedule with events; its policy knobs are fields of their own.
inline std::string FormatValue(const FaultOptions& value) {
  return FormatFaultSchedule(value);
}
inline Status ParseValue(std::string_view text, FaultOptions* out) {
  PROMPT_ASSIGN_OR_RETURN(*out, ParseFaultSchedule(std::string(text)));
  return Known(out->enabled(), "a fault schedule", text);
}

/// \brief Runs a field list. Over const options it writes one key=value line
/// per field. Over mutable options it reads, strictly: an absent key keeps
/// its default (older journals replay); a present one must parse into its
/// type and range and format back to the same text (so a read re-records
/// byte-identically); a repeated or unclaimed key fails. The first failure
/// is kept, named by its key.
class ManifestVisitor {
 public:
  explicit ManifestVisitor(JournalManifest* out) : out_(out) {}
  /// `dir` is what a DirFlag field recorded as 1 restores.
  ManifestVisitor(const JournalManifest& in, std::string dir)
      : in_(&in), dir_(std::move(dir)), used_(in.entries().size(), false) {}

  template <typename T>
  void operator()(std::string_view key, T& value, Range range = {}) {
    if constexpr (std::is_const_v<T>) {
      out_->Set(std::string(key), FormatValue(value));
    } else if (const auto texts = Take(key, false); !texts.empty()) {
      T parsed = value;
      if (Check(key, Parse(texts[0], &parsed, range))) value = parsed;
    }
  }
  /// One line per element, all under `key`, parsed together.
  template <typename Values>
  void Lines(std::string_view key, Values& values) {
    if constexpr (std::is_const_v<Values>) {
      for (const auto& value : values) (*this)(key, value);
    } else if (const auto texts = Take(key, true); !texts.empty()) {
      Values parsed;
      Status st = ParseLines(texts, &parsed);
      for (size_t i = 0; st.ok() && i < texts.size(); ++i) {
        st = Recorded(texts[i], FormatValue(parsed[i]));
      }
      if (Check(key, st)) values = std::move(parsed);
    }
  }
  void Const(std::string_view key, const char* text) {
    if (out_ != nullptr) return out_->Set(std::string(key), text);
    for (const std::string& found : Take(key, false)) {
      Check(key, Recorded(found, text));
    }
  }
  /// An optional group is written if the options hold it, read if present.
  bool Optional(bool held) const { return held || out_ == nullptr; }
  /// Only whether the run had the directory: journals replay from anywhere.
  template <typename Dir>
  void DirFlag(std::string_view key, Dir& dir) {
    std::conditional_t<std::is_const_v<Dir>, const bool, bool> had =
        !dir.empty();
    (*this)(key, had);
    if constexpr (!std::is_const_v<Dir>) dir = had ? dir_ : dir;
  }

  /// Keeps `st`, named by `key`, unless a failure is already kept.
  bool Check(std::string_view key, const Status& st);
  /// The kept failure, else Invalid for the first key no field claimed.
  Status Finish(const char* schema) const;

 private:
  template <typename T>
  static Status Parse(const std::string& text, T* value, const Range& range) {
    PROMPT_RETURN_NOT_OK(ParseValue(text, value));
    if constexpr (std::is_arithmetic_v<T>) {
      const double number = static_cast<double>(*value);
      PROMPT_RETURN_NOT_OK(Known(number >= range.lo && number <= range.hi,
                                 "in [" + FormatValue(range.lo) + ", " +
                                     FormatValue(range.hi) + "]",
                                 text));
    }
    return Recorded(text, FormatValue(*value));
  }
  /// `text` must be exactly how the writer records its value.
  static Status Recorded(std::string_view text, const std::string& recorded) {
    return Known(text == recorded, "how '" + recorded + "' is recorded", text);
  }
  /// Every value recorded under `key`; more than one fails unless
  /// `repeatable`.
  std::vector<std::string> Take(std::string_view key, bool repeatable);

  JournalManifest* out_ = nullptr;
  const JournalManifest* in_ = nullptr;
  std::string dir_;
  std::vector<bool> used_;
  Status status_;
};

// ---- Groups both engines record.

template <typename Cost>
void CostFields(ManifestVisitor& v, Cost& c) {
  v("cost.map_task_fixed_us", c.map_task_fixed_us, kCostRange);
  v("cost.map_per_tuple_us", c.map_per_tuple_us, kCostRange);
  v("cost.map_per_key_us", c.map_per_key_us, kCostRange);
  v("cost.reduce_task_fixed_us", c.reduce_task_fixed_us, kCostRange);
  v("cost.reduce_per_tuple_us", c.reduce_per_tuple_us, kCostRange);
  v("cost.reduce_per_cluster_us", c.reduce_per_cluster_us, kCostRange);
  v("cost.partition_cost_scale", c.partition_cost_scale, kCostRange);
  v("cost.replicate_per_kib_us", c.replicate_per_kib_us, kCostRange);
}

template <typename Adapt>
void AdaptThresholdFields(ManifestVisitor& v, Adapt& a) {
  v("adapt.grace", a.grace);
  v("adapt.window", a.window, AtLeast(1));
  v("adapt.calm_block_load_ratio", a.calm_block_load_ratio);
  v("adapt.calm_split_key_frac", a.calm_split_key_frac);
}

template <typename Config>
void PartitionerConfigFields(ManifestVisitor& v, Config& c) {
  v.Const("partitioner.accumulator", "flat");
  v("partitioner.post_sort", c.prompt.post_sort);
  v("partitioner.cam_candidates", c.cam_candidates);
  v("partitioner.sketch_capacity", c.sketch_capacity, AtLeast(1));
}

template <typename Obs>
void ObsFields(ManifestVisitor& v, Obs& o) {
  v("obs.collect_partition_metrics", o.collect_partition_metrics);
  v("obs.autopsy.min_excess_frac", o.autopsy.min_excess_frac);
  v("obs.autopsy.min_excess_us", o.autopsy.min_excess_us);
  v("obs.autopsy.ring_pressure_threshold", o.autopsy.ring_pressure_threshold);
}

template <typename Store>
void StoreFields(ManifestVisitor& v, Store& s) {
  v.DirFlag("store.enabled", s.dir);
  v("store.fsync", s.fsync);
  v("store.memory_budget_bytes", s.memory_budget_bytes);
  v("store.retain_bytes", s.retain_bytes);
  v("store.retain_batches", s.retain_batches);
}

template <typename Ingest>
void IngestFields(ManifestVisitor& v, Ingest& i) {
  v("ingest.shards", i.shards, AtLeast(1));
  v("ingest.ring_capacity", i.ring_capacity, AtLeast(2));
  v.Const("ingest.accumulator", "flat");
  // Alg. 1's update budget, written only off its default.
  if (v.Optional(i.accumulator_options.budget != AccumulatorOptions{}.budget)) {
    v("ingest.budget", i.accumulator_options.budget);
  }
  v("ingest.key_mode", i.key_mode);
  if (v.Optional(i.key_mode == KeyMode::kSketch)) {
    auto& sketch = i.accumulator_options.sketch;
    v("ingest.sketch_capacity", sketch.capacity, AtLeast(1));
    v("ingest.tail_buckets", sketch.tail_buckets, AtLeast(1));
  }
}

/// \brief What a single-tenant journal records: the options, the job (its
/// query text is options.journal.query) and the starting technique.
struct SingleRunManifest {
  EngineOptions options;
  JobSpec job;
  std::optional<PartitionerType> technique;
};

/// Compiles a recorded query (ParseQuery sits above the engine library).
using QueryCompiler = Result<JobSpec> (*)(const std::string& query);

JournalManifest WriteSingleManifest(const SingleRunManifest& run);
/// The strict read; a recorded query is compiled with `compile_query` and a
/// recorded store is pointed at `store_dir`.
Result<SingleRunManifest> ReadSingleManifest(const JournalManifest& manifest,
                                             const std::string& store_dir,
                                             QueryCompiler compile_query);

}  // namespace prompt
