// CRC-32C fingerprints of sealed and partitioned batches, for tests that pin
// an output to committed constants instead of to a second implementation.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/accumulator_api.h"
#include "core/partitioner.h"
#include "store/crc32c.h"

namespace prompt::testing {

/// Each run's key and count, then its tuples in run order. Tail buckets are
/// not covered.
inline uint32_t RunsFingerprint(const AccumulatedBatch& batch,
                                uint32_t crc = 0) {
  for (const SortedKeyRun& run : batch.keys()) {
    const uint64_t row[2] = {run.key, run.count};
    crc = Crc32c(row, sizeof(row), crc);
    batch.ForEachTuple(run, 0, run.count, [&crc](const Tuple& t) {
      crc = Crc32c(&t, sizeof(t), crc);
    });
  }
  return crc;
}

/// Every block in order: its tuple and fragment counts, its tuple bytes, then
/// its fragment rows (key, count, split).
inline uint32_t BlocksFingerprint(const PartitionedBatch& batch,
                                  uint32_t crc = 0) {
  for (const DataBlock& b : batch.blocks) {
    const uint64_t sizes[2] = {b.tuples().size(), b.fragments().size()};
    crc = Crc32c(sizes, sizeof(sizes), crc);
    crc = Crc32c(b.tuples().data(), b.tuples().size() * sizeof(Tuple), crc);
    for (const KeyFragment& f : b.fragments()) {
      const uint64_t row[3] = {f.key, f.count, f.split ? 1u : 0u};
      crc = Crc32c(row, sizeof(row), crc);
    }
  }
  return crc;
}

/// Fails once per case that is missing from `recorded` or differs from it,
/// naming the case, then prints the whole `actual` table in the form the
/// recorded tables are written in.
inline void ExpectRecordedFingerprints(
    const std::map<std::string, uint32_t>& actual,
    const std::map<std::string, uint32_t>& recorded) {
  bool all_match = actual.size() == recorded.size();
  for (const auto& [name, crc] : actual) {
    const auto it = recorded.find(name);
    if (it == recorded.end()) {
      ADD_FAILURE() << "no recorded fingerprint for " << name;
      all_match = false;
    } else if (it->second != crc) {
      ADD_FAILURE() << name << ": fingerprint 0x" << std::hex << crc
                    << ", recorded 0x" << it->second;
      all_match = false;
    }
  }
  if (!all_match) {
    std::ostringstream table;
    for (const auto& [name, crc] : actual) {
      table << "      {\"" << name << "\", 0x" << std::hex << crc << "u},\n";
    }
    ADD_FAILURE() << "actual fingerprints:\n" << table.str();
  }
}

}  // namespace prompt::testing
