#include "store/segment.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/crc32c.h"

namespace prompt {

namespace {

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

Status WriteAll(int fd, std::span<iovec> parts) {
  while (!parts.empty()) {
    const ssize_t n = ::writev(fd, parts.data(), static_cast<int>(parts.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("segment write: ") +
                             std::strerror(errno));
    }
    parts = ConsumeIovecs(parts, static_cast<size_t>(n));
  }
  return Status::OK();
}

/// The whole file in one sized read (recovery reads every segment).
Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open segment " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("cannot read segment " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("cannot read segment " + path);
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

}  // namespace

std::array<char, kPayloadHeaderBytes> PayloadHeader(uint8_t kind,
                                                    uint32_t owner,
                                                    uint64_t batch_id) {
  std::array<char, kPayloadHeaderBytes> header;
  header[0] = static_cast<char>(kind);
  std::memcpy(header.data() + 1, &owner, 4);
  std::memcpy(header.data() + 5, &batch_id, 8);
  return header;
}

std::span<iovec> ConsumeIovecs(std::span<iovec> parts, size_t written) {
  size_t done = 0;
  while (done < parts.size() && written >= parts[done].iov_len) {
    written -= parts[done].iov_len;
    ++done;
  }
  parts = parts.subspan(done);
  if (!parts.empty()) {
    parts[0].iov_base = static_cast<char*>(parts[0].iov_base) + written;
    parts[0].iov_len -= written;
  }
  return parts;
}

Result<SegmentScan> ScanSegmentFile(const std::string& path) {
  PROMPT_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));

  SegmentScan scan;
  scan.file_bytes = bytes.size();
  if (bytes.size() < kSegmentHeaderBytes ||
      ReadU32(bytes.data()) != kSegmentMagic ||
      ReadU32(bytes.data() + 4) != kSegmentVersion) {
    // No trustworthy header: nothing in the file can be believed.
    scan.header_ok = false;
    scan.valid_bytes = 0;
    scan.torn_bytes = bytes.size();
    scan.torn_records = bytes.empty() ? 0 : 1;
    return scan;
  }
  scan.header_ok = true;

  uint64_t off = kSegmentHeaderBytes;
  while (off < bytes.size()) {
    if (off + kRecordHeaderBytes > bytes.size()) break;  // partial header
    const uint64_t len = ReadU32(bytes.data() + off);
    const uint32_t stored = ReadU32(bytes.data() + off + 4);
    if (len > kMaxRecordBytes || off + kRecordHeaderBytes + len > bytes.size()) {
      break;  // insane or partial payload — a torn write
    }
    const char* payload = bytes.data() + off + kRecordHeaderBytes;
    if (MaskCrc32c(Crc32c(payload, len)) != stored) break;  // bit rot / tear
    SegmentRecord record;
    record.offset = off;
    record.payload.assign(payload, len);
    scan.records.push_back(std::move(record));
    off += kRecordHeaderBytes + len;
  }
  scan.valid_bytes = off;
  scan.torn_bytes = bytes.size() - off;
  scan.torn_records = scan.torn_bytes > 0 ? 1 : 0;
  return scan;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError("truncate " + path + ": " + std::strerror(errno));
  }
  // The repair must itself be durable: a machine crash right after recovery
  // must not bring the torn tail back behind a reopened writer's back.
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IOError("reopen for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

SegmentWriter::SegmentWriter(std::string path, int fd, uint64_t size,
                             uint64_t synced)
    : path_(std::move(path)), fd_(fd), size_(size), synced_bytes_(synced) {}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create segment " + path + ": " +
                           std::strerror(errno));
  }
  uint32_t header[2] = {kSegmentMagic, kSegmentVersion};
  iovec part = {header, sizeof(header)};
  if (Status st = WriteAll(fd, {&part, 1}); !st.ok()) {
    ::close(fd);
    return st;
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError("fsync segment header " + path + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<SegmentWriter>(new SegmentWriter(
      path, fd, kSegmentHeaderBytes, kSegmentHeaderBytes));
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::OpenExisting(
    const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("open segment " + path + ": " +
                           std::strerror(errno));
  }
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    Status st = Status::IOError("seek segment " + path + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(path, fd, size, size));
}

Result<uint64_t> SegmentWriter::Append(std::string_view header,
                                       std::string_view body) {
  const uint64_t payload_bytes = header.size() + body.size();
  if (payload_bytes > kMaxRecordBytes) {
    return Status::Invalid("segment record exceeds the size bound");
  }
  uint32_t frame[2] = {
      static_cast<uint32_t>(payload_bytes),
      MaskCrc32c(Crc32c(body.data(), body.size(),
                        Crc32c(header.data(), header.size())))};
  iovec parts[3] = {
      {frame, sizeof(frame)},
      {const_cast<char*>(header.data()), header.size()},
      {const_cast<char*>(body.data()), body.size()}};
  PROMPT_RETURN_NOT_OK(WriteAll(fd_, parts));
  const uint64_t offset = size_;
  size_ += kRecordHeaderBytes + payload_bytes;
  return offset;
}

Status SegmentWriter::Sync() {
  if (synced_bytes_ == size_) return Status::OK();
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  synced_bytes_ = size_;
  return Status::OK();
}

Status SegmentWriter::TruncateTo(uint64_t size) {
  if (size > size_) return Status::Invalid("segment truncate cannot extend");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate " + path_ + ": " + std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Status::IOError("seek " + path_ + ": " + std::strerror(errno));
  }
  size_ = size;
  synced_bytes_ = std::min(synced_bytes_, size);
  return Status::OK();
}

}  // namespace prompt
