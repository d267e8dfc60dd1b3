// Binary serialization of sealed blocks and batches — the "seal and
// serialize the data blocks and place them on the memory of the cluster
// nodes" step of the paper's batching module (§7), and the representation
// the replication store (§8) keeps per node.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "model/batch.h"

namespace prompt {

/// Batch envelope: [magic u32][BatchChecksum(payload) u64][payload], where
/// the payload is the batch header and every block. "PRMC" batches carry a
/// CRC-32C; the retired "PRMB" format carried an FNV-1a hash and is
/// rejected (DecodeBatch names it) rather than decoded.
inline constexpr uint32_t kBatchMagic = 0x50524d43;  // "PRMC"

/// \brief The envelope checksum of a batch payload: its CRC-32C, widened to
/// fill the envelope's 8-byte slot.
uint64_t BatchChecksum(std::string_view payload);

/// \brief Decodes one block starting at `*offset`; advances the offset.
///
/// Block layout (little-endian): block_id, tuple count, fragment count,
/// tuples (ts, key, value: Tuple's own 24-byte layout), fragments (key,
/// count, split).
Result<DataBlock> DecodeBlock(const std::string& bytes, size_t* offset);

/// \brief Encodes a whole partitioned batch (header + every block).
std::string EncodeBatch(const PartitionedBatch& batch);

/// \brief Decodes a batch; fails with Status::Invalid on truncation, a
/// corrupted header or a retired format, and verifies the checksum of the
/// payload.
Result<PartitionedBatch> DecodeBatch(const std::string& bytes);

}  // namespace prompt
