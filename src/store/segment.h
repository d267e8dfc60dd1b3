// Append-only segment files for the durable block store: a fixed header
// followed by length-prefixed, CRC32C-checksummed records (the log format
// of LevelDB/Kafka-style stores, here one record per serialized batch or
// tombstone). A torn tail — the partial record a crash leaves behind — is
// detected by the length/CRC check and truncated away on open; everything
// before the first bad byte is trusted, nothing after it is.
#pragma once

#include <sys/uio.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace prompt {

/// File header: magic + format version, fsynced at creation.
inline constexpr uint32_t kSegmentMagic = 0x50534731;  // "PSG1"
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr uint64_t kSegmentHeaderBytes = 8;

/// Record framing: [payload length u32][masked crc32c(payload) u32][payload].
/// A payload is written as a header part and a body part, but framed and
/// checksummed as the one byte string they form.
inline constexpr uint64_t kRecordHeaderBytes = 8;

/// The header both logs built on segments (block store, journal) open every
/// record payload with, before the record's body:
/// [kind u8][owner u32][batch_id u64].
inline constexpr size_t kPayloadHeaderBytes = 13;
std::array<char, kPayloadHeaderBytes> PayloadHeader(uint8_t kind,
                                                    uint32_t owner,
                                                    uint64_t batch_id);

/// Records larger than this fail the sanity check during a scan (a corrupt
/// length prefix must not drive a multi-gigabyte read).
inline constexpr uint64_t kMaxRecordBytes = 1ull << 30;

/// \brief One valid record found by ScanSegmentFile.
struct SegmentRecord {
  uint64_t offset = 0;  ///< file offset of the record header
  std::string payload;
};

/// \brief Result of scanning one segment file.
struct SegmentScan {
  std::vector<SegmentRecord> records;
  /// Offset of the first byte that is NOT part of a valid record — the
  /// truncation point a recovery applies. Equals the file size when the
  /// segment is clean.
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  /// Bytes past valid_bytes (a torn or corrupt tail; 0 when clean).
  uint64_t torn_bytes = 0;
  /// 1 when a partial/corrupt record was found and dropped, else 0. (All
  /// records after the first bad one are unreachable, so at most one
  /// *detected* drop per segment.)
  uint32_t torn_records = 0;
  bool header_ok = false;
};

/// \brief Reads a segment file and validates every record in order,
/// stopping at the first bad length or CRC. Never fabricates: a record is
/// returned only when its checksum verifies. IO errors (unreadable file)
/// fail the Result; corruption does not — it is reported in the scan.
Result<SegmentScan> ScanSegmentFile(const std::string& path);

/// \brief Drops the first `written` bytes from the parts of a writev():
/// parts written in full are skipped and the first part written in part is
/// trimmed in place. Returns the parts still to write (empty when done).
std::span<iovec> ConsumeIovecs(std::span<iovec> parts, size_t written);

/// \brief Truncates `path` to `size` bytes and fsyncs the result (torn-tail
/// repair and crash simulation both reduce files, never extend them; the
/// fsync keeps the repair durable across a machine crash).
Status TruncateFile(const std::string& path, uint64_t size);

/// \brief fsyncs a directory, making recent file creations/deletions inside
/// it durable (a synced record in an unlinked-by-crash file is still lost).
Status SyncDir(const std::string& dir);

/// \brief Appender over one segment file with an explicit fsync watermark.
///
/// Append() buffers nothing — every record is writev()n to the file — but
/// only Sync() advances the *durability* watermark. SimulateCrash() on the
/// owning store truncates to that watermark: the worst-case machine-crash
/// outcome where nothing unsynced survived.
class SegmentWriter {
 public:
  /// Creates the file, writes the header and fsyncs it (one fsync per
  /// segment lifetime regardless of policy; creation is a metadata event).
  static Result<std::unique_ptr<SegmentWriter>> Create(const std::string& path);

  /// Reopens an existing (scanned) segment for further appends. The first
  /// `size` bytes are assumed valid AND durable — recovery fsyncs any
  /// tail repair (TruncateFile), and bytes that survived the crash are by
  /// definition on disk — so reopened content counts as synced.
  static Result<std::unique_ptr<SegmentWriter>> OpenExisting(
      const std::string& path, uint64_t size);

  ~SegmentWriter();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(SegmentWriter);

  /// Appends one framed record whose payload is `header` followed by
  /// `body` — one writev(), no copy of either — and returns the record's
  /// file offset. Short writes and EINTR are retried.
  Result<uint64_t> Append(std::string_view header, std::string_view body = {});

  /// fsyncs the file and advances the durability watermark to size().
  Status Sync();

  /// Truncates the file to `size` and clamps the watermark (crash
  /// simulation only; normal operation is append-only).
  Status TruncateTo(uint64_t size);

  uint64_t size() const { return size_; }
  uint64_t synced_bytes() const { return synced_bytes_; }
  const std::string& path() const { return path_; }

 private:
  SegmentWriter(std::string path, int fd, uint64_t size, uint64_t synced);

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t synced_bytes_ = 0;
};

}  // namespace prompt
