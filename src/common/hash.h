// Seeded 64-bit hashing used for key-to-block and key-to-bucket assignment.
#pragma once

#include <cstdint>
#include <string_view>

namespace prompt {

/// \brief Mixes a 64-bit value into a well-distributed 64-bit hash
/// (SplitMix64 finalizer, a.k.a. Stafford variant 13).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Hashes a 64-bit key under a given seed.
///
/// Distinct seeds behave as independent hash functions; the d-choices
/// partitioners (PK-2, PK-5, cAM) derive their candidate assignments by
/// varying the seed.
inline uint64_t HashKey(uint64_t key, uint64_t seed = 0) {
  return Mix64(key ^ Mix64(seed ^ 0x2545F4914F6CDD1DULL));
}

/// \brief FNV-1a for string keys (used by sources that dictionary-encode
/// textual keys such as words or taxi medallions).
inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = 0) {
  uint64_t h = 14695981039346656037ULL ^ Mix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

}  // namespace prompt
