#include "engine/serde.h"

#include <cstddef>
#include <cstring>

#include "store/crc32c.h"

namespace prompt {

// Tuples cross the wire as their in-memory bytes, so Tuple's layout is the
// wire layout: ts, key, value, 8 bytes each, no padding.
static_assert(offsetof(Tuple, ts) == 0 && offsetof(Tuple, key) == 8 &&
                  offsetof(Tuple, value) == 16 && sizeof(Tuple) == 24,
              "EncodeBatch/DecodeBlock copy Tuple bytes verbatim");

namespace {

constexpr uint32_t kRetiredBatchMagic = 0x50524d42;  // "PRMB"
/// magic u32 + checksum u64.
constexpr size_t kEnvelopeBytes = 12;
/// batch_id, seal_time, num_tuples, num_keys, partition_cost, num_blocks.
constexpr size_t kBatchHeaderBytes = 5 * 8 + 4;
/// block_id u32 + tuple count u64 + fragment count u64.
constexpr size_t kBlockHeaderBytes = 20;
constexpr size_t kTupleBytes = sizeof(Tuple);
/// key u64 + count u64 + split u8.
constexpr size_t kFragmentBytes = 17;

/// Writes `v` at `out`; returns the next write position.
template <typename T>
char* Put(char* out, T v) {
  std::memcpy(out, &v, sizeof(T));
  return out + sizeof(T);
}

bool GetU32(const std::string& in, size_t* off, uint32_t* v) {
  if (*off + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *off, 4);
  *off += 4;
  return true;
}
bool GetU64(const std::string& in, size_t* off, uint64_t* v) {
  if (*off + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *off, 8);
  *off += 8;
  return true;
}
bool GetI64(const std::string& in, size_t* off, int64_t* v) {
  return GetU64(in, off, reinterpret_cast<uint64_t*>(v));
}

size_t BlockBytes(const DataBlock& block) {
  return kBlockHeaderBytes + block.size() * kTupleBytes +
         block.cardinality() * kFragmentBytes;
}

/// Writes exactly BlockBytes(block) bytes at `out`.
char* PutBlock(const DataBlock& block, char* out) {
  out = Put<uint32_t>(out, block.block_id());
  out = Put<uint64_t>(out, block.size());
  out = Put<uint64_t>(out, block.cardinality());
  if (!block.tuples().empty()) {
    std::memcpy(out, block.tuples().data(), block.size() * kTupleBytes);
    out += block.size() * kTupleBytes;
  }
  for (const KeyFragment& f : block.fragments()) {
    out = Put<uint64_t>(out, f.key);
    out = Put<uint64_t>(out, f.count);
    *out++ = f.split ? 1 : 0;
  }
  return out;
}

}  // namespace

uint64_t BatchChecksum(std::string_view payload) {
  return Crc32c(payload.data(), payload.size());
}

Result<DataBlock> DecodeBlock(const std::string& bytes, size_t* offset) {
  uint32_t block_id = 0;
  uint64_t tuples = 0, fragments = 0;
  if (!GetU32(bytes, offset, &block_id) || !GetU64(bytes, offset, &tuples) ||
      !GetU64(bytes, offset, &fragments)) {
    return Status::Invalid("truncated block header");
  }
  // Sanity bound: each tuple needs 24 bytes, each fragment 17. Compare by
  // division — a forged count near 2^64 would wrap a multiplied form and
  // sail straight past the check into a giant allocation.
  const uint64_t avail = bytes.size() - *offset;
  if (tuples > avail / kTupleBytes) {
    return Status::Invalid("block header inconsistent with payload size");
  }
  if (fragments > (avail - tuples * kTupleBytes) / kFragmentBytes) {
    return Status::Invalid("block header inconsistent with payload size");
  }
  DataBlock block(block_id);
  if (tuples > 0) {
    std::vector<Tuple>& out = block.mutable_tuples();
    out.resize(tuples);
    std::memcpy(out.data(), bytes.data() + *offset, tuples * kTupleBytes);
    *offset += tuples * kTupleBytes;
  }
  auto& frags = block.mutable_fragments();
  frags.reserve(fragments);
  for (uint64_t i = 0; i < fragments; ++i) {
    KeyFragment f;
    if (!GetU64(bytes, offset, &f.key) || !GetU64(bytes, offset, &f.count) ||
        *offset >= bytes.size()) {
      return Status::Invalid("truncated fragment payload");
    }
    f.split = bytes[(*offset)++] != 0;
    frags.push_back(f);
  }
  return block;
}

std::string EncodeBatch(const PartitionedBatch& batch) {
  size_t bytes = kEnvelopeBytes + kBatchHeaderBytes;
  for (const DataBlock& block : batch.blocks) bytes += BlockBytes(block);
  std::string out(bytes, '\0');
  char* p = out.data() + kEnvelopeBytes;
  p = Put<uint64_t>(p, batch.batch_id);
  p = Put<int64_t>(p, batch.seal_time);
  p = Put<uint64_t>(p, batch.num_tuples);
  p = Put<uint64_t>(p, batch.num_keys);
  p = Put<int64_t>(p, batch.partition_cost);
  p = Put<uint32_t>(p, static_cast<uint32_t>(batch.blocks.size()));
  for (const DataBlock& block : batch.blocks) p = PutBlock(block, p);

  const std::string_view payload(out.data() + kEnvelopeBytes,
                                 bytes - kEnvelopeBytes);
  char* envelope = Put<uint32_t>(out.data(), kBatchMagic);
  Put<uint64_t>(envelope, BatchChecksum(payload));
  return out;
}

Result<PartitionedBatch> DecodeBatch(const std::string& bytes) {
  size_t off = 0;
  uint32_t magic = 0;
  uint64_t checksum = 0;
  if (!GetU32(bytes, &off, &magic)) return Status::Invalid("bad batch magic");
  if (magic == kRetiredBatchMagic) {
    return Status::Invalid(
        "retired batch format PRMB (FNV-1a checksum); this build reads "
        "only PRMC batches");
  }
  if (magic != kBatchMagic) return Status::Invalid("bad batch magic");
  if (!GetU64(bytes, &off, &checksum)) {
    return Status::Invalid("truncated checksum");
  }
  if (BatchChecksum(std::string_view(bytes).substr(off)) != checksum) {
    return Status::Invalid("batch payload checksum mismatch");
  }
  PartitionedBatch batch;
  uint32_t num_blocks = 0;
  if (!GetU64(bytes, &off, &batch.batch_id) ||
      !GetI64(bytes, &off, &batch.seal_time) ||
      !GetU64(bytes, &off, &batch.num_tuples) ||
      !GetU64(bytes, &off, &batch.num_keys) ||
      !GetI64(bytes, &off, &batch.partition_cost) ||
      !GetU32(bytes, &off, &num_blocks)) {
    return Status::Invalid("truncated batch header");
  }
  // Every block costs at least its 20-byte header; a count promising more
  // blocks than the remaining bytes could hold is forged (and must not
  // drive the reserve() below).
  if (num_blocks > (bytes.size() - off) / kBlockHeaderBytes) {
    return Status::Invalid("batch header inconsistent with payload size");
  }
  batch.blocks.reserve(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    PROMPT_ASSIGN_OR_RETURN(DataBlock block, DecodeBlock(bytes, &off));
    batch.blocks.push_back(std::move(block));
  }
  if (off != bytes.size()) {
    return Status::Invalid("trailing bytes after batch payload");
  }
  return batch;
}

}  // namespace prompt
