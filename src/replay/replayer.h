// Journal replay (DESIGN.md §16): reconstructs a recorded run from its
// journal alone — options from the manifest, tuples from the recorded
// stream, wall-clock inputs injected per batch — and re-records it into an
// output journal. The acceptance check is structural: the replayed journal's
// outcome stream must be bit-identical to the original's (DiffJournals),
// and the re-recorded manifest must match byte for byte.
//
// Crash/restart lineages replay attempt by attempt: each run-start marker in
// the source journal drives one fresh engine over the recorded attempt's
// tuples, with the scratch store directory chained across attempts exactly
// as the recorded processes chained theirs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "replay/diff.h"
#include "replay/journal.h"

namespace prompt {

struct ReplayOptions {
  /// The recorded journal to reproduce.
  std::string journal_dir;
  /// Where the replay re-records itself (must not already hold a journal).
  /// Runs whose manifest enables the durable store get a scratch store at
  /// `<output_dir>/store`.
  std::string output_dir;
};

struct ReplayResult {
  /// "single" or "multi" (the manifest's engine mode).
  std::string mode;
  uint64_t attempts = 0;
  /// Heartbeats driven across all attempts (crashed batches included).
  uint64_t batches = 0;
  /// The original manifest serialized byte-identically from the
  /// reconstructed options — false for a manifest an older build wrote
  /// with other keys or another key order, reported loudly.
  bool manifest_match = false;
  /// Recorded vs replayed journal, compared outcome by outcome.
  JournalDiff diff;

  /// The replay reproduced the run exactly.
  bool BitIdentical() const { return manifest_match && diff.identical; }
};

/// \brief Replays `journal_dir` into `output_dir` and compares the two.
Result<ReplayResult> ReplayJournal(const ReplayOptions& options);

}  // namespace prompt
