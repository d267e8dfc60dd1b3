// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// one integrity checksum of the repository: it guards every segment record
// of the durable block store and journal, every encoded batch (serde.h) and
// every window checkpoint. CRC-32C is the storage-industry standard for
// torn-write detection (iSCSI, ext4, LevelDB/RocksDB logs): it has
// guaranteed burst-error detection, which is what a torn tail produces, and
// x86-64 computes it in hardware (SSE4.2 `crc32`).
#pragma once

#include <cstddef>
#include <cstdint>

namespace prompt {

/// \brief CRC-32C of `len` bytes starting at `data`, seeded by `init`
/// (pass the previous return value to checksum data in chunks). Uses the
/// SSE4.2 instruction when the CPU has it (checked once, on first call),
/// else Crc32cPortable; both give the same value.
uint32_t Crc32c(const void* data, size_t len, uint32_t init = 0);

/// \brief The table-driven (slicing-by-4) CRC-32C that Crc32c falls back
/// to on CPUs without SSE4.2. Exposed so tests can pin both paths equal.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t init = 0);

/// \brief Masked CRC in the LevelDB/RocksDB style: storing the raw CRC of
/// data that itself embeds CRCs makes accidental fixed points more likely,
/// so the stored form is rotated and offset. Verify by unmasking.
inline uint32_t MaskCrc32c(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc32c(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace prompt
