// Flight recorder (DESIGN.md §16): an append-only run journal that captures
// everything needed to reproduce a run bit-identically — the raw tuple
// stream (key-run encoded), per-batch outcome fingerprints (time-series
// signals, autopsy verdict, window output hash), adaptive-switch decisions,
// fault firings and the effective engine options — in the durable store's
// segment format (store/segment.h: "PSG1" header, CRC32C-framed records,
// torn tails truncated on open).
//
// A journal directory holds numbered `seg-NNNNNN.log` files whose record
// payloads share the DurableBlockStore convention:
//   [kind u8][owner u32][batch_id u64][body]
// with journal-specific kinds (disjoint from the store's put/tombstone).
// `owner` is 0 for the single-tenant engine and the tenant index under the
// multi-tenant engine; the tuple stream is always recorded once, pre-fan-out
// (owner 0).
//
// Every engine construction appends a run-start marker, so one directory
// records a whole crash/restart lineage: replay partitions the record
// stream into *attempts* and drives one fresh engine per attempt, exactly
// as the recorded processes ran.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/partitioner.h"
#include "model/job.h"
#include "model/tuple.h"
#include "obs/autopsy.h"
#include "obs/batch_report.h"
#include "obs/timeseries.h"
#include "store/block_store.h"
#include "workload/source.h"

namespace prompt {

/// \brief Journal record kinds. Values are disjoint from the block store's
/// put(1)/tombstone(2) so a mixed-up directory fails loudly instead of
/// decoding garbage.
enum class JournalRecordKind : uint8_t {
  kManifest = 16,     ///< key=value text: the effective run configuration
  kRunStart = 17,     ///< one per engine construction (an "attempt")
  kBatchTuples = 18,  ///< key-run encoded tuples consumed for one batch
  kOutcome = 19,      ///< one published batch's deterministic fingerprint
  kSwitch = 20,       ///< adaptive technique switch decided after a batch
  kFault = 21,        ///< fault-schedule event that actually fired
  kBatchEnv = 22,     ///< wall-clock inputs measured for one sealed batch
};

/// \brief The wall-clock-measured inputs that feed one batch's report: the
/// partitioner decision cost (Stopwatch around Seal) and the sharded-ingest
/// stall/merge/occupancy numbers. Everything else the engine computes is a
/// pure function of (tuples, options), but these are measured — so the
/// recorder journals them and replay injects the recorded values instead of
/// re-measuring. That is what makes latency/W/overflow signals and the
/// autopsy verdict bit-identical, not merely close.
struct BatchEnv {
  uint64_t batch_id = 0;
  TimeMicros partition_cost = 0;  ///< effective cost (k-way merge included)
  TimeMicros seal_barrier_latency = 0;  ///< zeros when ingest is unsharded
  TimeMicros merge_latency = 0;
  uint64_t ring_high_water = 0;  ///< worst shard's occupancy sample
  uint64_t ring_capacity = 0;
};

/// Recorded BatchEnv values keyed by (owner, batch id) — what a replaying
/// engine injects in place of its own wall-clock measurements.
using ReplayEnv = std::map<std::pair<uint32_t, uint64_t>, BatchEnv>;

/// \brief Settles a just-sealed batch's wall-clock inputs and returns them.
/// `metrics` is the ingest metrics copy the batch's report will carry (null
/// when ingest is unsharded). Under replay (`inject` holds this
/// owner+batch) the recorded values overwrite the measured ones: the
/// partition cost in `batch`, and in `metrics` the seal-barrier and merge
/// latencies, with the per-shard ring samples collapsed onto shard 0 as the
/// recorded pair (the occupancy max, the only thing the backpressure signal
/// and the verdict read, is kept bit for bit). Otherwise the measured values
/// (the worst shard's occupancy sample) are captured for the journal. The
/// batch loop calls this right after Seal, so record→replay→re-replay
/// chains exactly.
BatchEnv SettleBatchEnv(const std::shared_ptr<const ReplayEnv>& inject,
                        uint32_t owner, PartitionedBatch* batch,
                        IngestMetrics* metrics);

/// \brief Journal configuration (EngineOptions::journal).
struct JournalOptions {
  /// Journal directory; empty disables recording entirely.
  std::string dir;
  /// When appended records reach disk. kBatch syncs once per published
  /// batch, mirroring the durable store's default.
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Roll to a new segment once the active one reaches this size.
  size_t segment_bytes = 8u << 20;
  /// Declarative query text recorded in the manifest (promptctl sets this)
  /// so replay can recompile the job; empty = replay falls back to the
  /// manifest's window_batches over JobSpec::WordCount.
  std::string query;
  /// Replay mode: recorded wall-clock inputs for this engine lifetime
  /// (one attempt), injected in place of fresh measurements. Null outside
  /// --replay. Orthogonal to `dir` — a replaying engine usually re-records.
  std::shared_ptr<const ReplayEnv> inject;

  bool enabled() const { return !dir.empty(); }
};

/// \brief Ordered key=value run configuration, written once per engine
/// lifetime ahead of its run-start marker; the engines' field lists
/// (engine/manifest.h) write and strictly read the text values.
class JournalManifest {
 public:
  void Set(std::string key, std::string value);

  std::string Get(const std::string& key, const std::string& fallback) const;

  /// All pairs whose key equals `key`, in insertion order (tenant specs).
  std::vector<std::string> GetAll(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  std::string Serialize() const;  ///< "key=value\n" lines
  static Result<JournalManifest> Parse(const std::string& text);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// \brief One published batch's deterministic fingerprint: everything the
/// replay acceptance check compares bit-for-bit. Doubles are compared by
/// bit pattern, never by epsilon — replay is exact or it is wrong.
struct BatchOutcome {
  uint64_t batch_id = 0;
  /// Order-independent hash of the batch's per-key window contribution:
  /// equal hashes on every batch imply equal window aggregates.
  uint64_t output_hash = 0;
  /// The full TimeSeriesStore point derived from the batch report.
  std::array<double, kTimeSeriesSignals> signals{};
  // Trace-span reconstruction inputs not covered by the signals above
  // (latency = interval + queue + overflow + map + reduce + extras).
  TimeMicros map_makespan = 0;
  TimeMicros reduce_makespan = 0;
  TimeMicros partition_overflow = 0;
  int32_t technique = -1;
  bool technique_switched = false;
  int32_t switched_from = -1;
  // Autopsy verdict (ExplainBatch over the same report).
  BatchCause dominant = BatchCause::kNone;
  TimeMicros total_excess = 0;
  TimeMicros threshold = 0;
  std::array<TimeMicros, kBatchCauses> excess{};

  bool BitIdentical(const BatchOutcome& other) const;
};

/// Derives the journaled fingerprint from a published report + its verdict.
BatchOutcome OutcomeFrom(const BatchReport& report, const BatchAutopsy& autopsy);

/// Order-independent FNV/mix hash of a batch's per-key output (the window
/// contribution). Commutative so block emission order cannot matter.
uint64_t HashBatchOutput(const std::vector<KV>& output);

/// \brief One adaptive-switch decision as journaled.
struct JournalSwitch {
  uint32_t owner = 0;
  uint64_t after_batch = 0;
  int32_t from = -1;
  int32_t to = -1;
  std::string reason;

  bool operator==(const JournalSwitch& other) const {
    return owner == other.owner && after_batch == other.after_batch &&
           from == other.from && to == other.to && reason == other.reason;
  }
};

/// \brief One fault-schedule firing as journaled.
struct JournalFault {
  uint64_t batch_id = 0;
  uint8_t point = 0;   ///< FaultPoint
  uint8_t kind = 0;    ///< FaultKind
  uint32_t target = 0;
};

/// \brief The records between two run-start markers: one engine lifetime.
struct JournalAttempt {
  /// The constructing run's options manifest. Every JournalWriter::Open
  /// appends one, so lineages where restarts change options (e.g. run 1
  /// schedules a crash fault, run 2 does not) replay each attempt under its
  /// own configuration. Empty only for attempts synthesized from stray
  /// records that precede any run-start marker.
  JournalManifest manifest;
  /// Tuple stream in consumption order (concatenated kBatchTuples bodies).
  std::vector<Tuple> tuples;
  /// Published-batch fingerprints per owner (tenant index; 0 single-tenant).
  std::map<uint32_t, std::vector<BatchOutcome>> outcomes;
  std::vector<JournalSwitch> switches;
  std::vector<JournalFault> faults;
  /// Wall-clock inputs per sealed batch, keyed by (owner, batch id).
  ReplayEnv envs;

  /// Batches the attempt published for owner 0 (every owner publishes once
  /// per heartbeat, so this is the heartbeat count).
  size_t published_batches() const;
  /// True when a crash fault fired during this attempt.
  bool crashed() const;
};

/// \brief A fully parsed journal directory.
struct JournalData {
  JournalManifest manifest;
  std::vector<JournalAttempt> attempts;
  /// Torn-tail records dropped across all segments (crash evidence).
  uint64_t torn_records = 0;

  /// Every attempt's tuples concatenated (the scenario-source view).
  std::vector<Tuple> AllTuples() const;
  /// Every attempt's outcomes concatenated per owner (the diff view).
  std::map<uint32_t, std::vector<BatchOutcome>> AllOutcomes() const;
  std::vector<JournalSwitch> AllSwitches() const;
};

/// \brief Parses every segment of a journal directory, truncation-tolerant:
/// torn tails are dropped and counted, never decoded. Fails only on IO
/// errors or a structurally alien directory (no manifest).
Result<JournalData> ReadJournal(const std::string& dir);

/// \brief The recorder: an append-only segment log of journal records.
/// Thread-compatible, like the engine run loop that drives it.
class JournalWriter {
 public:
  /// Opens `options.dir` (creating it if needed). An existing journal is
  /// scanned, its torn tail truncated, and appending resumes. Either way
  /// `manifest` (this engine lifetime's configuration) and a run-start
  /// marker are appended before this returns, so every attempt in a
  /// lineage carries the options that actually produced it.
  static Result<std::unique_ptr<JournalWriter>> Open(
      const JournalOptions& options, const JournalManifest& manifest);
  ~JournalWriter();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(JournalWriter);

  /// Buffers one consumed tuple (the ingest tap, pre-shard-routing).
  void RecordTuple(const Tuple& t) { buffer_.push_back(t); }

  /// Seals the buffered tuples into one key-run encoded kBatchTuples record
  /// and clears the buffer. Called at batch seal, before processing.
  Status AppendBatchTuples(uint64_t batch_id);

  Status AppendOutcome(uint32_t owner, const BatchOutcome& outcome);
  Status AppendSwitch(const JournalSwitch& decision);
  Status AppendFault(const JournalFault& fault);
  Status AppendEnv(uint32_t owner, const BatchEnv& env);

  /// fsyncs the active segment (the kBatch policy's per-batch call).
  Status Sync();
  /// Sync() iff the policy is kBatch — the engine's once-per-batch hook.
  Status SyncBatch();

  /// Bytes appended but not yet fsynced (the /healthz journal-lag gauge).
  uint64_t unsynced_bytes() const;
  uint64_t appended_bytes() const { return appended_bytes_; }
  /// True when Open() created the directory (and wrote the manifest).
  bool fresh() const { return fresh_; }
  const JournalOptions& options() const { return options_; }

 private:
  explicit JournalWriter(JournalOptions options);

  Status Append(JournalRecordKind kind, uint32_t owner, uint64_t batch_id,
                const std::string& body);
  Result<SegmentWriter*> ActiveSegment();

  JournalOptions options_;
  std::vector<Tuple> buffer_;
  /// The newest segment, open for append; sealed segments are fsynced and
  /// closed when the log rolls.
  std::unique_ptr<SegmentWriter> active_;
  uint64_t active_id_ = 0;
  uint64_t appended_bytes_ = 0;
  bool fresh_ = false;
};

/// \brief A TupleSource over a journal's recorded stream: replays the exact
/// tuples, with their original timestamps, in consumption order. The engine
/// re-derives every batch boundary from `ts < end`, so batches re-form
/// identically at any ingest shard count.
class JournalTupleSource : public TupleSource {
 public:
  explicit JournalTupleSource(std::vector<Tuple> tuples);

  const char* name() const override { return "journal-replay"; }
  bool Next(Tuple* out) override;
  uint64_t cardinality() const override { return cardinality_; }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
  uint64_t cardinality_ = 0;
};

}  // namespace prompt
