// DurableBlockStore: a crash-tolerant, append-only log of serialized
// batches behind the in-memory BatchStore (§8 replication). The memory tier
// bounds recovery capacity by RAM and dies with the process; this store
// makes rf=1 durable — every batch written while inside the query window
// survives a process kill and is recovered bit-identically on reopen,
// subject to the configured fsync policy.
//
// Layout: numbered segment files (`seg-000000.log`, ...) of length-prefixed
// CRC32C-checksummed records (store/segment.h). A record payload is
//   [kind u8][owner u32][batch_id u64][body]
// where kind is put (body = EncodeBatch bytes) or tombstone (empty body).
// `owner` namespaces batch ids — 0 for the single-tenant engine, the tenant
// index for the multi-tenant engine sharing one store.
//
// The offset index is memory-only and rebuilt by scanning every segment on
// Open(): puts set the key, tombstones clear it, the last write wins. A
// torn tail (the partial record a crash left in the active segment) fails
// its length or CRC check; the scan truncates the file at the first bad
// byte and reports the drop — recovery never fabricates a batch.
//
// Garbage collection matches the window-FIFO write pattern: eviction
// appends a tombstone, and whole segments are deleted from the *front* of
// the log once they hold no live put (prefix deletion can never resurrect
// a batch, because a tombstone always lands at or after its put).
// Compact() additionally reclaims interior holes with a crash-atomic full
// rewrite: live puts are re-appended into fresh segments and fsynced
// *before* the old generation is deleted (front-first), so a kill at any
// point mid-compaction leaves a recoverable, last-write-wins log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "obs/metrics_registry.h"
#include "store/segment.h"

namespace prompt {

/// \brief When appends become durable (the classic WAL trade-off).
enum class FsyncPolicy {
  kNever,   ///< never fsync: fastest, a crash loses everything unsynced
  kBatch,   ///< fsync once per engine batch: a crash loses the current batch
  kAlways,  ///< fsync every record: a crash loses nothing acknowledged
};

const char* FsyncPolicyName(FsyncPolicy policy);
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

/// \brief Durable-store configuration (EngineOptions::store).
struct StoreOptions {
  /// Segment directory; empty disables the durable tier entirely.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Per-node memory budget for the in-memory replica tier (BatchStore
  /// spills the oldest durably-stored copies past it; 0 = unlimited).
  size_t memory_budget_bytes = 0;
  /// Roll to a new segment once the active one reaches this size.
  size_t segment_bytes = 4u << 20;
  /// Compact() rewrites sealed segments whose live-put byte fraction is
  /// below this threshold.
  double compact_live_frac = 0.5;
  /// Size-based retention beyond window eviction (0 = unlimited). When the
  /// segment files exceed `retain_bytes` after a Put, the store compacts
  /// away dead weight and then expires the oldest-appended live batches
  /// until it fits (the newest batch always survives).
  size_t retain_bytes = 0;
  /// Per-owner count-based retention (0 = unlimited): after a Put, each
  /// owner keeps only its `retain_batches` newest live batches.
  uint64_t retain_batches = 0;

  bool enabled() const { return !dir.empty(); }
};

/// \brief What Open() found when it rebuilt the index from the segments.
struct StoreRecovery {
  uint64_t segments_scanned = 0;
  uint64_t batches_recovered = 0;  ///< live puts after tombstone replay
  uint64_t tombstones = 0;
  /// Torn/corrupt tails truncated away (honest data_loss accounting: each
  /// is a record that was written but did NOT survive).
  uint64_t torn_records = 0;
  uint64_t torn_bytes = 0;
};

/// \brief The durable tier. Thread-compatible (external synchronization),
/// matching the engine's single-threaded run loop.
class DurableBlockStore {
 public:
  /// Opens (creating the directory if needed) and rebuilds the index by
  /// scanning every segment, truncating torn tails. IO failures fail the
  /// open; corruption never does — it is truncated and reported.
  static Result<std::unique_ptr<DurableBlockStore>> Open(StoreOptions options);
  ~DurableBlockStore();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(DurableBlockStore);

  /// Appends one serialized batch. Under FsyncPolicy::kAlways the record is
  /// fsynced before returning; otherwise durability waits for Sync().
  /// Re-putting an (owner, batch_id) overwrites its index entry.
  Status Put(uint32_t owner, uint64_t batch_id, const std::string& encoded);

  /// Reads a batch's serialized bytes back (index lookup + file read, CRC
  /// re-verified). KeyError when unknown or evicted.
  Result<std::string> Get(uint32_t owner, uint64_t batch_id) const;

  bool Contains(uint32_t owner, uint64_t batch_id) const;

  /// Tombstones a batch (it expired from the window) and deletes exhausted
  /// prefix segments. A no-op for unknown ids.
  Status Evict(uint32_t owner, uint64_t batch_id);

  /// Live batch ids of `owner`, ascending — the recovery iteration order.
  std::vector<uint64_t> LiveBatches(uint32_t owner) const;

  /// fsyncs the active segment (the kBatch policy's once-per-batch call).
  Status Sync();

  /// Crash-atomic full rewrite: re-appends every live put into fresh
  /// segments, fsyncs the new generation, then deletes the old segments
  /// front-first. A kill at any point leaves a recoverable log (both
  /// generations may briefly coexist; last-write-wins replay shadows the
  /// old copies).
  Status Compact();

  /// Models a process/machine kill for tests and fault schedules: every
  /// byte past the fsync watermark is discarded — with `tear_tail`, half of
  /// the first unsynced record is left behind so recovery must truncate at
  /// a bad CRC. The store object must not be used afterwards except to be
  /// destroyed; reopen the directory to recover.
  Status SimulateCrash(bool tear_tail);

  /// Registers prompt_store_* metrics on `registry` (nullptr is a no-op).
  void BindMetrics(MetricsRegistry* registry);

  const StoreRecovery& recovery() const { return recovery_; }
  const StoreOptions& options() const { return options_; }

  uint64_t live_batches() const { return index_.size(); }
  /// Bytes of live put payloads (what a full compaction would retain).
  uint64_t live_bytes() const { return live_bytes_; }
  /// Total bytes across all segment files (live + dead + tombstones).
  uint64_t disk_bytes() const;
  uint64_t segment_count() const { return segments_.size(); }
  TimeMicros last_append_micros() const { return last_append_micros_; }

 private:
  struct Location {
    uint64_t segment_id = 0;
    uint64_t offset = 0;      ///< record offset within the segment file
    uint64_t payload_bytes = 0;
  };
  struct Segment {
    uint64_t id = 0;
    std::string path;
    std::unique_ptr<SegmentWriter> writer;  ///< null once sealed
    uint64_t bytes = 0;
    uint64_t live_puts = 0;
    uint64_t live_put_bytes = 0;
  };

  explicit DurableBlockStore(StoreOptions options);

  std::string SegmentPath(uint64_t id) const;
  Segment* ActiveSegment();  ///< rolls to a new segment when full
  Status AppendRecord(uint8_t kind, uint32_t owner, uint64_t batch_id,
                      std::string_view body, Location* loc);
  /// Deletes zero-live segments from the front of the log.
  void CollectPrefix();
  /// Applies retain_batches / retain_bytes after a Put (tombstoning through
  /// Evict, so expiry is as crash-safe as window eviction).
  Status EnforceRetention();
  /// fsyncs the store directory after a segment delete, warning (not
  /// failing) on error — undone deletes are harmless, leaked ones not.
  void SyncDirBestEffort();
  Status ScanExisting();

  StoreOptions options_;
  StoreRecovery recovery_;
  /// (owner, batch_id) -> location of the latest put.
  std::map<std::pair<uint32_t, uint64_t>, Location> index_;
  /// Segment id -> state, ascending (log order).
  std::map<uint64_t, Segment> segments_;
  uint64_t next_segment_id_ = 0;
  uint64_t live_bytes_ = 0;
  TimeMicros last_append_micros_ = 0;
  /// True while Compact() re-appends the live generation: those internal
  /// Puts must not re-enter retention (mid-rewrite both generations are on
  /// disk, so a size-triggered compaction would recurse without bound).
  bool compacting_ = false;

  // prompt_store_* instrumentation (null when metrics are disabled).
  Counter* appends_total_ = nullptr;
  Counter* append_bytes_total_ = nullptr;
  Counter* evictions_total_ = nullptr;
  Counter* syncs_total_ = nullptr;
  Counter* segments_created_total_ = nullptr;
  Counter* segments_deleted_total_ = nullptr;
  Counter* torn_records_total_ = nullptr;
  Gauge* live_batches_gauge_ = nullptr;
  Gauge* disk_bytes_gauge_ = nullptr;
};

}  // namespace prompt
