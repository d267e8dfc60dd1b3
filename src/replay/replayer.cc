#include "replay/replayer.h"

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "query/parser.h"
#include "tenant/multi_tenant_engine.h"

namespace prompt {
namespace {

namespace fs = std::filesystem;

Result<JobSpec> CompileJob(const std::string& query) {
  PROMPT_ASSIGN_OR_RETURN(CompiledQuery compiled, ParseQuery(query));
  return compiled.job;
}

/// Points one recorded engine lifetime's journal at the output directory,
/// with the lifetime's wall-clock inputs injected in place of measurements.
void RecordInto(JournalOptions* journal, const JournalAttempt& attempt,
                const ReplayOptions& replay) {
  journal->dir = replay.output_dir;
  journal->inject = std::make_shared<const ReplayEnv>(attempt.envs);
}

/// The heartbeats one recorded lifetime drove: its published batches, plus
/// for a crashed one the batch whose crash fault (re-fired from the
/// manifest schedule) ended it.
uint32_t Heartbeats(const JournalAttempt& attempt) {
  return static_cast<uint32_t>(attempt.published_batches() +
                               (attempt.crashed() ? 1 : 0));
}

/// One recorded engine lifetime replayed: a fresh engine over the attempt's
/// tuple stream, re-recorded into the output journal.
Result<uint64_t> ReplaySingleAttempt(SingleRunManifest run,
                                     const JournalAttempt& attempt,
                                     const ReplayOptions& replay) {
  RecordInto(&run.options.journal, attempt, replay);
  JournalTupleSource source(attempt.tuples);
  MicroBatchEngine engine(
      run.options, run.job,
      CreatePartitioner(*run.technique, run.options.adapt.config), &source);
  PROMPT_RETURN_NOT_OK(engine.init_status());
  engine.Run(Heartbeats(attempt));
  return Heartbeats(attempt);
}

Result<uint64_t> ReplayMultiAttempt(MultiRunManifest run,
                                    const JournalAttempt& attempt,
                                    const ReplayOptions& replay) {
  RecordInto(&run.options.journal, attempt, replay);
  JournalTupleSource source(attempt.tuples);
  PROMPT_ASSIGN_OR_RETURN(
      std::unique_ptr<MultiTenantEngine> engine,
      MultiTenantEngine::Create(run.options, std::move(run.specs), &source));
  engine->Run(Heartbeats(attempt));
  return Heartbeats(attempt);
}

}  // namespace

Result<ReplayResult> ReplayJournal(const ReplayOptions& options) {
  if (options.journal_dir.empty() || options.output_dir.empty()) {
    return Status::Invalid("replay: journal_dir and output_dir are required");
  }
  std::error_code ec;
  if (fs::exists(options.output_dir, ec) &&
      !fs::is_empty(options.output_dir, ec)) {
    return Status::AlreadyExists("replay: output dir '" + options.output_dir +
                                 "' is not empty");
  }

  PROMPT_ASSIGN_OR_RETURN(JournalData recorded,
                          ReadJournal(options.journal_dir));

  ReplayResult result;
  result.mode = recorded.manifest.Get("mode", "single");
  if (result.mode != "single" && result.mode != "multi") {
    return Status::Invalid("replay: manifest key 'mode': unknown engine '" +
                           result.mode + "'");
  }

  // Replay each attempt under the manifest its own run journaled: a
  // lineage's restarts may legitimately change options (run 1 schedules the
  // crash fault, run 2 does not). Attempts synthesized from stray records
  // fall back to the journal-level manifest. All are read before any engine
  // is built, so a bad one leaves no half-written output journal.
  const std::string store_dir = options.output_dir + "/store";
  std::vector<std::function<Result<uint64_t>()>> runs;
  for (const JournalAttempt& attempt : recorded.attempts) {
    const JournalManifest& m = attempt.manifest.entries().empty()
                                   ? recorded.manifest
                                   : attempt.manifest;
    if (result.mode == "multi") {
      PROMPT_ASSIGN_OR_RETURN(MultiRunManifest run,
                              ReadMultiManifest(m, store_dir));
      runs.push_back([run, &attempt, &options] {
        return ReplayMultiAttempt(run, attempt, options);
      });
      continue;
    }
    PROMPT_ASSIGN_OR_RETURN(SingleRunManifest run,
                            ReadSingleManifest(m, store_dir, &CompileJob));
    if (!run.technique) {
      return Status::Invalid("replay: no partitioner recorded; not replayable");
    }
    runs.push_back([run, &attempt, &options] {
      return ReplaySingleAttempt(run, attempt, options);
    });
  }
  for (const auto& run : runs) {
    ++result.attempts;
    PROMPT_ASSIGN_OR_RETURN(const uint64_t batches, run());
    result.batches += batches;
  }

  PROMPT_ASSIGN_OR_RETURN(JournalData replayed,
                          ReadJournal(options.output_dir));
  result.manifest_match =
      recorded.manifest.Serialize() == replayed.manifest.Serialize() &&
      recorded.attempts.size() == replayed.attempts.size();
  for (size_t i = 0; result.manifest_match && i < recorded.attempts.size();
       ++i) {
    result.manifest_match = recorded.attempts[i].manifest.Serialize() ==
                            replayed.attempts[i].manifest.Serialize();
  }
  result.diff = DiffJournals(recorded, replayed);
  if (!result.manifest_match) {
    result.diff.identical = false;
    result.diff.notes.push_back(
        "replayed manifest does not round-trip byte-identically "
        "(the manifest predates the current schema)");
  }
  return result;
}

}  // namespace prompt
