#include "store/block_store.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "common/logging.h"
#include "store/crc32c.h"

namespace prompt {

namespace {

constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;

struct ParsedPayload {
  uint8_t kind = 0;
  uint32_t owner = 0;
  uint64_t batch_id = 0;
  size_t body_offset = kPayloadHeaderBytes;
};

bool ParsePayload(const std::string& payload, ParsedPayload* out) {
  if (payload.size() < kPayloadHeaderBytes) return false;
  out->kind = static_cast<uint8_t>(payload[0]);
  std::memcpy(&out->owner, payload.data() + 1, 4);
  std::memcpy(&out->batch_id, payload.data() + 5, 8);
  return out->kind == kRecordPut || out->kind == kRecordTombstone;
}

/// Strictly parses "seg-<digits>.log" — the full name, any digit count —
/// so stray files (seg-000001.log.bak, editor droppings) are never taken
/// for segments and ids past 6 digits keep working.
bool ParseSegmentFilename(const std::string& name, uint64_t* id) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() < kPrefix.size() + 1 + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *id = value;
  return true;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kBatch: return "batch";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "never") return FsyncPolicy::kNever;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "always") return FsyncPolicy::kAlways;
  return Status::Invalid("unknown fsync policy '" + name +
                         "' (want never|batch|always)");
}

DurableBlockStore::DurableBlockStore(StoreOptions options)
    : options_(std::move(options)) {}

DurableBlockStore::~DurableBlockStore() = default;

std::string DurableBlockStore::SegmentPath(uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(id));
  return options_.dir + "/" + name;
}

Result<std::unique_ptr<DurableBlockStore>> DurableBlockStore::Open(
    StoreOptions options) {
  if (!options.enabled()) {
    return Status::Invalid("store directory not configured");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("create store dir " + options.dir + ": " +
                           ec.message());
  }
  auto store =
      std::unique_ptr<DurableBlockStore>(new DurableBlockStore(options));
  PROMPT_RETURN_NOT_OK(store->ScanExisting());
  return store;
}

Status DurableBlockStore::ScanExisting() {
  // Segment ids are their filenames. Keep each entry's own path (never
  // re-derive it from the id: a hand-renamed but still well-formed name
  // like seg-1.log must be read from where it actually is).
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir)) {
    uint64_t id = 0;
    if (ParseSegmentFilename(entry.path().filename().string(), &id)) {
      found.emplace_back(id, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());

  for (const auto& [id, path] : found) {
    if (segments_.count(id) > 0) {
      // Two well-formed names for one id (seg-1.log vs seg-000001.log):
      // trust the first, never index records whose offsets belong to a
      // file the id no longer names.
      PROMPT_LOG(kWarn) << "store: duplicate segment id " << id << " at "
                        << path << "; ignoring the file";
      continue;
    }
    PROMPT_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(path));
    ++recovery_.segments_scanned;
    recovery_.torn_records += scan.torn_records;
    recovery_.torn_bytes += scan.torn_bytes;
    if (!scan.header_ok) {
      // Nothing in the file can be trusted; drop it rather than let a
      // future append chase a corrupt header.
      PROMPT_LOG(kWarn) << "store: segment " << path
                        << " has a corrupt header; removing";
      std::filesystem::remove(path);
      SyncDirBestEffort();
      continue;
    }
    if (scan.torn_bytes > 0) {
      // Truncate at the first bad CRC/length — the torn-tail repair rule.
      PROMPT_LOG(kWarn) << "store: truncating torn tail of " << path << " ("
                        << scan.torn_bytes << " bytes past offset "
                        << scan.valid_bytes << ")";
      PROMPT_RETURN_NOT_OK(TruncateFile(path, scan.valid_bytes));
    }
    Segment segment;
    segment.id = id;
    segment.path = path;
    segment.bytes = scan.valid_bytes;
    next_segment_id_ = std::max(next_segment_id_, id + 1);

    for (SegmentRecord& record : scan.records) {
      ParsedPayload parsed;
      if (!ParsePayload(record.payload, &parsed)) {
        // Checksum-valid but unparseable means a format bug, not bit rot;
        // be conservative and skip (never fabricate a batch from it).
        PROMPT_LOG(kWarn) << "store: skipping unparseable record in " << path;
        continue;
      }
      const auto key = std::make_pair(parsed.owner, parsed.batch_id);
      if (parsed.kind == kRecordPut) {
        Location loc;
        loc.segment_id = id;
        loc.offset = record.offset;
        loc.payload_bytes = record.payload.size();
        index_[key] = loc;
      } else {
        ++recovery_.tombstones;
        index_.erase(key);
      }
    }
    segments_.emplace(id, std::move(segment));
  }

  // Live accounting from the final (post-tombstone) index.
  for (const auto& [key, loc] : index_) {
    auto it = segments_.find(loc.segment_id);
    PROMPT_CHECK(it != segments_.end());
    ++it->second.live_puts;
    it->second.live_put_bytes += loc.payload_bytes - kPayloadHeaderBytes;
    live_bytes_ += loc.payload_bytes - kPayloadHeaderBytes;
  }
  recovery_.batches_recovered = index_.size();

  // Reopen the newest segment for appends; everything valid in it was
  // either fsynced before the shutdown or survived the crash anyway, and
  // the torn-tail repair truncated the rest — treat it as durable.
  if (!segments_.empty()) {
    Segment& last = segments_.rbegin()->second;
    PROMPT_ASSIGN_OR_RETURN(last.writer,
                            SegmentWriter::OpenExisting(last.path, last.bytes));
  }
  CollectPrefix();
  return Status::OK();
}

DurableBlockStore::Segment* DurableBlockStore::ActiveSegment() {
  if (!segments_.empty()) {
    Segment& last = segments_.rbegin()->second;
    if (last.writer != nullptr && last.bytes < options_.segment_bytes) {
      return &last;
    }
    if (last.writer != nullptr) {
      // Seal: one final fsync so only the active segment ever has an
      // unsynced tail, then drop the fd.
      if (Status st = last.writer->Sync(); !st.ok()) {
        PROMPT_LOG(kWarn) << "store: seal fsync failed: " << st.ToString();
      }
      last.writer.reset();
    }
  }
  const uint64_t id = next_segment_id_++;
  Segment segment;
  segment.id = id;
  segment.path = SegmentPath(id);
  auto writer = SegmentWriter::Create(segment.path);
  if (!writer.ok()) {
    PROMPT_LOG(kWarn) << "store: cannot create segment " << segment.path
                      << ": " << writer.status().ToString();
    return nullptr;
  }
  segment.writer = std::move(writer).ValueUnsafe();
  segment.bytes = segment.writer->size();
  // The new file's directory entry must be durable before any record in it
  // counts as synced — an fsynced record in an unlinked file is still lost.
  if (Status st = SyncDir(options_.dir); !st.ok()) {
    PROMPT_LOG(kWarn) << "store: cannot sync dir after creating "
                      << segment.path << ": " << st.ToString();
    std::filesystem::remove(segment.path);
    return nullptr;
  }
  if (segments_created_total_ != nullptr) segments_created_total_->Increment();
  return &segments_.emplace(id, std::move(segment)).first->second;
}

Status DurableBlockStore::AppendRecord(uint8_t kind, uint32_t owner,
                                       uint64_t batch_id,
                                       std::string_view body, Location* loc) {
  Segment* segment = ActiveSegment();
  if (segment == nullptr) {
    return Status::IOError("store: no writable segment");
  }
  const auto header = PayloadHeader(kind, owner, batch_id);
  PROMPT_ASSIGN_OR_RETURN(
      uint64_t offset,
      segment->writer->Append({header.data(), header.size()}, body));
  segment->bytes = segment->writer->size();
  if (options_.fsync == FsyncPolicy::kAlways) {
    PROMPT_RETURN_NOT_OK(segment->writer->Sync());
    if (syncs_total_ != nullptr) syncs_total_->Increment();
  }
  const uint64_t payload_bytes = kPayloadHeaderBytes + body.size();
  loc->segment_id = segment->id;
  loc->offset = offset;
  loc->payload_bytes = payload_bytes;
  if (appends_total_ != nullptr) {
    appends_total_->Increment();
    append_bytes_total_->Increment(kRecordHeaderBytes + payload_bytes);
    disk_bytes_gauge_->Set(static_cast<double>(disk_bytes()));
  }
  return Status::OK();
}

Status DurableBlockStore::Put(uint32_t owner, uint64_t batch_id,
                              const std::string& encoded) {
  Stopwatch watch;
  Location loc;
  PROMPT_RETURN_NOT_OK(AppendRecord(kRecordPut, owner, batch_id, encoded, &loc));
  const auto key = std::make_pair(owner, batch_id);
  if (auto it = index_.find(key); it != index_.end()) {
    // Overwrite (a re-put): the old record becomes dead weight.
    Segment& old = segments_.at(it->second.segment_id);
    --old.live_puts;
    old.live_put_bytes -= it->second.payload_bytes - kPayloadHeaderBytes;
    live_bytes_ -= it->second.payload_bytes - kPayloadHeaderBytes;
  }
  index_[key] = loc;
  Segment& segment = segments_.at(loc.segment_id);
  ++segment.live_puts;
  segment.live_put_bytes += encoded.size();
  live_bytes_ += encoded.size();
  last_append_micros_ = watch.ElapsedMicros();
  if (live_batches_gauge_ != nullptr) {
    live_batches_gauge_->Set(static_cast<double>(index_.size()));
  }
  // Compaction's own re-appends skip retention: both generations are on
  // disk mid-rewrite, so the byte cap would spuriously trigger (and then
  // recurse through Compact → Put → here forever).
  return compacting_ ? Status::OK() : EnforceRetention();
}

Status DurableBlockStore::EnforceRetention() {
  if (options_.retain_batches > 0) {
    // Per owner, expire the oldest ids beyond the count cap. The index is
    // ordered by (owner, batch_id), so each owner's range is ascending.
    std::vector<std::pair<uint32_t, uint64_t>> expired;
    for (auto it = index_.begin(); it != index_.end();) {
      const uint32_t owner = it->first.first;
      uint64_t owned = 0;
      for (auto scan = it; scan != index_.end() && scan->first.first == owner;
           ++scan) {
        ++owned;
      }
      for (; it != index_.end() && it->first.first == owner; ++it) {
        if (owned <= options_.retain_batches) break;
        expired.push_back(it->first);
        --owned;
      }
      while (it != index_.end() && it->first.first == owner) ++it;
    }
    for (const auto& [owner, batch_id] : expired) {
      PROMPT_RETURN_NOT_OK(Evict(owner, batch_id));
    }
  }
  if (options_.retain_bytes > 0 && disk_bytes() > options_.retain_bytes) {
    // Dead weight first: a compaction may fit the cap without touching any
    // live batch.
    PROMPT_RETURN_NOT_OK(Compact());
    while (disk_bytes() > options_.retain_bytes && index_.size() > 1) {
      // Expire the oldest-appended live batch (smallest log position).
      auto oldest = index_.begin();
      for (auto it = index_.begin(); it != index_.end(); ++it) {
        if (it->second.segment_id < oldest->second.segment_id ||
            (it->second.segment_id == oldest->second.segment_id &&
             it->second.offset < oldest->second.offset)) {
          oldest = it;
        }
      }
      const auto key = oldest->first;
      PROMPT_RETURN_NOT_OK(Evict(key.first, key.second));
    }
  }
  return Status::OK();
}

Result<std::string> DurableBlockStore::Get(uint32_t owner,
                                           uint64_t batch_id) const {
  auto it = index_.find(std::make_pair(owner, batch_id));
  if (it == index_.end()) {
    return Status::KeyError("batch " + std::to_string(batch_id) +
                            " (owner " + std::to_string(owner) +
                            ") not in the durable store");
  }
  const Location& loc = it->second;
  const auto seg = segments_.find(loc.segment_id);
  PROMPT_CHECK(seg != segments_.end());
  const std::string& path = seg->second.path;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  // The frame and payload headers land on the stack, the body straight in
  // the returned string.
  char head[kRecordHeaderBytes + kPayloadHeaderBytes];
  std::string body(loc.payload_bytes - kPayloadHeaderBytes, '\0');
  iovec parts[2] = {{head, sizeof(head)}, {body.data(), body.size()}};
  const ssize_t n =
      ::preadv(fd, parts, 2, static_cast<off_t>(loc.offset));
  ::close(fd);
  if (n != static_cast<ssize_t>(sizeof(head) + body.size())) {
    return Status::IOError("short read from " + path);
  }
  uint32_t stored = 0;
  std::memcpy(&stored, head + 4, 4);
  const uint32_t crc = Crc32c(body.data(), body.size(),
                              Crc32c(head + kRecordHeaderBytes,
                                     kPayloadHeaderBytes));
  if (MaskCrc32c(crc) != stored) {
    return Status::IOError("record checksum mismatch in " + path);
  }
  return body;
}

bool DurableBlockStore::Contains(uint32_t owner, uint64_t batch_id) const {
  return index_.count(std::make_pair(owner, batch_id)) > 0;
}

Status DurableBlockStore::Evict(uint32_t owner, uint64_t batch_id) {
  const auto key = std::make_pair(owner, batch_id);
  auto it = index_.find(key);
  if (it == index_.end()) return Status::OK();
  Location tombstone_loc;
  PROMPT_RETURN_NOT_OK(
      AppendRecord(kRecordTombstone, owner, batch_id, {}, &tombstone_loc));
  Segment& segment = segments_.at(it->second.segment_id);
  --segment.live_puts;
  segment.live_put_bytes -= it->second.payload_bytes - kPayloadHeaderBytes;
  live_bytes_ -= it->second.payload_bytes - kPayloadHeaderBytes;
  index_.erase(it);
  if (evictions_total_ != nullptr) {
    evictions_total_->Increment();
    live_batches_gauge_->Set(static_cast<double>(index_.size()));
  }
  CollectPrefix();
  // Interior holes (non-FIFO eviction) escape prefix GC; fall back to a
  // full rewrite once dead weight dominates.
  const uint64_t on_disk = disk_bytes();
  if (on_disk > 2 * options_.segment_bytes &&
      static_cast<double>(live_bytes_) <
          options_.compact_live_frac * static_cast<double>(on_disk)) {
    PROMPT_RETURN_NOT_OK(Compact());
  }
  return Status::OK();
}

std::vector<uint64_t> DurableBlockStore::LiveBatches(uint32_t owner) const {
  std::vector<uint64_t> ids;
  // The index is ordered by (owner, batch_id), so this range is ascending.
  for (auto it = index_.lower_bound(std::make_pair(owner, uint64_t{0}));
       it != index_.end() && it->first.first == owner; ++it) {
    ids.push_back(it->first.second);
  }
  return ids;
}

Status DurableBlockStore::Sync() {
  if (segments_.empty()) return Status::OK();
  Segment& last = segments_.rbegin()->second;
  if (last.writer == nullptr) return Status::OK();
  PROMPT_RETURN_NOT_OK(last.writer->Sync());
  if (syncs_total_ != nullptr) syncs_total_->Increment();
  return Status::OK();
}

void DurableBlockStore::CollectPrefix() {
  // Deleting from the front is the only single-segment GC that can never
  // resurrect: a tombstone always lands at or after its put, so a prefix
  // segment's tombstones only ever target already-deleted segments.
  bool removed = false;
  while (segments_.size() > 1) {
    auto front = segments_.begin();
    if (front->second.live_puts > 0) break;
    if (front->second.writer != nullptr) break;  // never delete the active one
    std::filesystem::remove(front->second.path);
    removed = true;
    if (segments_deleted_total_ != nullptr) {
      segments_deleted_total_->Increment();
      disk_bytes_gauge_->Set(static_cast<double>(disk_bytes()));
    }
    segments_.erase(front);
  }
  if (removed) SyncDirBestEffort();
}

void DurableBlockStore::SyncDirBestEffort() {
  // Deletion durability is advisory: a removed segment reappearing after a
  // machine crash replays like a crash before the delete — safe under
  // last-write-wins — so a failed directory sync only costs disk space.
  if (Status st = SyncDir(options_.dir); !st.ok()) {
    PROMPT_LOG(kWarn) << "store: dir sync failed: " << st.ToString();
  }
}

Status DurableBlockStore::Compact() {
  // Full rewrite, crash-atomic: copy every live put into *fresh* segments,
  // fsync the new generation, and only then delete the old one. Recovery
  // replays segments in id order with last-write-wins, so a crash that
  // leaves both generations on disk is harmless — the re-appended copies
  // have higher segment ids and shadow the originals. Partial (per-segment)
  // rewrites would have to reason about which tombstones are still
  // load-bearing; a full rewrite leaves none behind by construction.
  std::vector<std::pair<std::pair<uint32_t, uint64_t>, std::string>> live;
  live.reserve(index_.size());
  for (const auto& [key, loc] : index_) {
    PROMPT_ASSIGN_OR_RETURN(std::string body, Get(key.first, key.second));
    live.emplace_back(key, std::move(body));
  }
  std::vector<uint64_t> old_ids;
  old_ids.reserve(segments_.size());
  for (auto& [id, segment] : segments_) {
    old_ids.push_back(id);
    // Seal (no sync needed: this generation is about to be deleted) so the
    // re-appends below roll into brand-new segments.
    segment.writer.reset();
  }
  compacting_ = true;
  for (auto& [key, body] : live) {
    const Status put = Put(key.first, key.second, body);
    if (!put.ok()) {
      compacting_ = false;
      return put;
    }
  }
  compacting_ = false;
  // The new generation must be durable before the old one disappears:
  // sealed new segments were fsynced when they rolled, this covers the
  // active one.
  PROMPT_RETURN_NOT_OK(Sync());
  // Delete old segments front-first (ascending id), the same
  // never-resurrect order CollectPrefix relies on: a tombstone always
  // lands at or after its put, so a crash mid-loop can only ever have
  // removed puts before their tombstones.
  for (uint64_t id : old_ids) {
    auto it = segments_.find(id);
    PROMPT_CHECK(it != segments_.end());
    PROMPT_CHECK(it->second.live_puts == 0);  // every live put moved above
    std::filesystem::remove(it->second.path);
    if (segments_deleted_total_ != nullptr) {
      segments_deleted_total_->Increment();
    }
    segments_.erase(it);
  }
  SyncDirBestEffort();
  if (disk_bytes_gauge_ != nullptr) {
    disk_bytes_gauge_->Set(static_cast<double>(disk_bytes()));
  }
  return Status::OK();
}

Status DurableBlockStore::SimulateCrash(bool tear_tail) {
  for (auto& [id, segment] : segments_) {
    if (segment.writer == nullptr) continue;  // sealed segments are synced
    const uint64_t synced = segment.writer->synced_bytes();
    const uint64_t size = segment.writer->size();
    if (size > synced) {
      // Worst case: nothing unsynced survived. With tear_tail, leave the
      // first 11 bytes of the first unsynced record — a complete length
      // prefix whose payload is cut short — so recovery exercises the
      // truncate-at-first-bad-CRC path rather than a clean end-of-file.
      const uint64_t keep =
          tear_tail ? synced + std::min<uint64_t>(size - synced, 11) : synced;
      PROMPT_RETURN_NOT_OK(segment.writer->TruncateTo(keep));
    }
    segment.writer.reset();  // the "process" holding the fd is gone
    segment.bytes = std::min(segment.bytes, size);
  }
  return Status::OK();
}

uint64_t DurableBlockStore::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& [id, segment] : segments_) total += segment.bytes;
  return total;
}

void DurableBlockStore::BindMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  appends_total_ = registry->GetCounter("prompt_store_appends_total");
  append_bytes_total_ = registry->GetCounter("prompt_store_append_bytes_total");
  evictions_total_ = registry->GetCounter("prompt_store_evictions_total");
  syncs_total_ = registry->GetCounter("prompt_store_syncs_total");
  segments_created_total_ =
      registry->GetCounter("prompt_store_segments_created_total");
  segments_deleted_total_ =
      registry->GetCounter("prompt_store_segments_deleted_total");
  torn_records_total_ =
      registry->GetCounter("prompt_store_torn_records_total");
  torn_records_total_->Increment(recovery_.torn_records);
  live_batches_gauge_ = registry->GetGauge("prompt_store_live_batches");
  live_batches_gauge_->Set(static_cast<double>(index_.size()));
  disk_bytes_gauge_ = registry->GetGauge("prompt_store_disk_bytes");
  disk_bytes_gauge_->Set(static_cast<double>(disk_bytes()));
}

}  // namespace prompt
