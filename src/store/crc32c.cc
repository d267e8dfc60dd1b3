#include "store/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define PROMPT_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace prompt {

namespace {

// Slicing-by-4 tables for the reflected Castagnoli polynomial. Table 0 is
// the classic byte-at-a-time table; tables 1..3 fold 4 bytes per step.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t{};

  constexpr Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

constexpr Crc32cTables kTables{};

#ifdef PROMPT_CRC32C_SSE42
// The `crc32` instruction computes exactly the reflected CRC-32C step (no
// pre/post inversion), 8 bytes per instruction; little-endian word loads
// feed the bytes in memory order, as the table loop does.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t len,
                                                       uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = static_cast<uint32_t>(~init);
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    len -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (len-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn PickCrc32c() {
#ifdef PROMPT_CRC32C_SSE42
  // Initialises the CPU model itself, so the check is valid even when the
  // first Crc32c call comes from a static constructor.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~init;
  while (len >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t len, uint32_t init) {
  // A function-local static is initialised on first use (thread-safely),
  // never in static-initialisation order.
  static const Crc32cFn impl = PickCrc32c();
  return impl(data, len, init);
}

}  // namespace prompt
