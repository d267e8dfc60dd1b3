// The flight-recorder manifest schema (engine/manifest.h): the field lists'
// byte format, pinned by a manifest an earlier build recorded with every
// optional group on; the strict reader, run over a hostile corpus built
// from every key of three recorded manifests; and the reader as the trust
// boundary, so no recorded number set to 0 can abort a replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "engine/manifest.h"
#include "fault/fault_injector.h"
#include "query/parser.h"
#include "replay/journal.h"
#include "replay/replayer.h"
#include "store/segment.h"
#include "tenant/multi_tenant_engine.h"
#include "workload/sources.h"

namespace prompt {
namespace {

constexpr char kGoldenQuery[] = "SELECT MAX TOP 5 WINDOW 2S SLIDE 250MS";
/// Journal record payloads start [kind u8][owner u32][batch_id u64].
constexpr size_t kRecordHeaderBytes = 13;

/// An empty scratch path owned by the running test (ctest runs tests in
/// parallel over one temp directory).
std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "." +
      name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string TestData(const std::string& name) {
  return std::string(PROMPT_TESTDATA_DIR) + "/" + name;
}

std::string FileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Result<JobSpec> CompileJob(const std::string& text) {
  PROMPT_ASSIGN_OR_RETURN(CompiledQuery compiled, ParseQuery(text));
  return compiled.job;
}

/// A single-tenant run with every optional group on — query, faults,
/// cluster, store, elasticity, resizer, adaptive and sketch — and most
/// recorded fields off their defaults, so a key wired to the wrong option
/// changes the text. The query is not word count, so a query the reader
/// failed to compile would replay differently.
EngineOptions GoldenOptions(const std::string& journal_dir,
                            const std::string& store_dir) {
  EngineOptions o;
  o.batch_interval = Millis(250);
  o.map_tasks = 6;
  o.reduce_tasks = 5;
  o.cores = 9;
  o.cores_track_tasks = true;
  o.early_release_frac = 0.04;
  o.cost.map_task_fixed_us = 1900;
  o.cost.map_per_tuple_us = 0.45;
  o.cost.map_per_key_us = 1.25;
  o.cost.reduce_task_fixed_us = 2100;
  o.cost.reduce_per_tuple_us = 0.3;
  o.cost.reduce_per_cluster_us = 1.75;
  o.cost.partition_cost_scale = 1.5;
  o.cost.replicate_per_kib_us = 18;
  o.use_prompt_reduce = false;
  o.unstable_queue_intervals = 6.5;
  o.elasticity_enabled = true;
  o.elasticity.threshold = 0.85;
  o.elasticity.step = 0.15;
  o.elasticity.d = 2;
  o.elasticity.min_map_tasks = 2;
  o.elasticity.min_reduce_tasks = 3;
  o.elasticity.max_map_tasks = 12;
  o.elasticity.max_reduce_tasks = 10;
  o.elasticity.trend_lookback = 4;
  o.adapt.enabled = true;
  o.adapt.d = 2;
  o.adapt.grace = 1;
  o.adapt.window = 3;
  o.adapt.calm_block_load_ratio = 1.2;
  o.adapt.calm_split_key_frac = 0.03;
  o.adapt.candidates = {PartitionerType::kHash, PartitionerType::kPk5,
                        PartitionerType::kPrompt};
  o.adapt.config.cam_candidates = 5;
  o.adapt.config.sketch_capacity = 300;
  o.obs.collect_partition_metrics = true;
  o.obs.autopsy.min_excess_frac = 0.02;
  o.obs.autopsy.min_excess_us = 1500;
  o.obs.autopsy.ring_pressure_threshold = 0.7;
  o.faults = ParseFaultSchedule(
                 "kill:2@3.map;revive:2@5;delay:1@2:4000;fail:0@4:2")
                 .ValueOrDie();
  o.faults.max_task_retries = 4;
  o.faults.retry_backoff = Millis(3);
  o.faults.speculation_enabled = false;
  o.faults.speculation_multiplier = 2.5;
  o.replicate_input = true;
  o.cluster_enabled = true;
  o.cluster.nodes = 3;
  o.cluster.cores_per_node = 3;
  o.cluster.replication_factor = 3;
  o.cluster.remote_read_penalty = 0.3;
  o.store.dir = store_dir;
  o.store.fsync = FsyncPolicy::kNever;
  o.store.memory_budget_bytes = 1 << 20;
  o.store.retain_bytes = 1 << 24;
  o.store.retain_batches = 16;
  o.batch_resizing_enabled = true;
  o.batch_resizer.min_interval = Millis(120);
  o.batch_resizer.max_interval = Seconds(20);
  o.batch_resizer.target_ratio = 0.8;
  o.batch_resizer.lookback = 5;
  o.batch_resizer.gain = 0.5;
  o.ingest.shards = 2;
  o.ingest.ring_capacity = 4096;
  o.ingest.key_mode = KeyMode::kSketch;
  o.ingest.accumulator_options.sketch.capacity = 512;
  o.ingest.accumulator_options.sketch.tail_buckets = 32;
  o.journal.dir = journal_dir;
  o.journal.query = kGoldenQuery;
  return o;
}

/// Records 8 golden-option batches into `<base>/journal` and returns that
/// directory (the store sits beside it).
std::string RecordGoldenRun(const std::string& name) {
  const std::string base = FreshDir(name);
  const std::string journal_dir = base + "/journal";
  JobSpec job = CompileJob(kGoldenQuery).ValueOrDie();
  job.window_batches = ParseQuery(kGoldenQuery)->window_batches();
  ZipfKeyedSource::Params params;
  params.cardinality = 5000;
  params.zipf = 1.2;
  params.seed = 71;
  params.rate = std::make_shared<ConstantRate>(6000);
  SynDSource source(std::move(params));
  MicroBatchEngine engine(GoldenOptions(journal_dir, base + "/store"), job,
                          CreatePartitioner(PartitionerType::kPrompt),
                          &source);
  EXPECT_TRUE(engine.init_status().ok()) << engine.init_status().ToString();
  EXPECT_EQ(engine.Run(8).batches.size(), 8u);
  return journal_dir;
}

/// Copies a one-segment journal into `out_dir`, every manifest record's
/// text replaced by `manifest`.
void WriteWithManifest(const std::string& journal_dir,
                       const std::string& out_dir,
                       const JournalManifest& manifest) {
  std::filesystem::create_directories(out_dir);
  auto scan = ScanSegmentFile(journal_dir + "/seg-000000.log");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto writer = SegmentWriter::Create(out_dir + "/seg-000000.log");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const SegmentRecord& record : scan->records) {
    std::string payload = record.payload;
    if (static_cast<JournalRecordKind>(payload[0]) ==
        JournalRecordKind::kManifest) {
      payload = payload.substr(0, kRecordHeaderBytes) + manifest.Serialize();
    }
    ASSERT_TRUE((*writer)->Append(payload).ok());
  }
}

/// The strict reader of whichever engine recorded `manifest`.
Status Read(const JournalManifest& manifest) {
  if (manifest.Get("mode", "single") == "multi") {
    return ReadMultiManifest(manifest, "store").status();
  }
  return ReadSingleManifest(manifest, "store", &CompileJob).status();
}

/// A recorded journal with a replaced manifest must either fail the reader
/// and the replay alike — both naming `key`, before any engine is built —
/// or, when the reader accepts the text, replay bit-identically.
void ExpectRejectedOrReplayed(const std::string& journal_dir,
                              const JournalManifest& manifest,
                              const std::string& key,
                              const std::string& what) {
  const std::string mutated = FreshDir("mutated");
  const std::string output = FreshDir("mutated.out");
  WriteWithManifest(journal_dir, mutated, manifest);
  ReplayOptions replay;
  replay.journal_dir = mutated;
  replay.output_dir = output;
  const Status read = Read(manifest);
  auto result = ReplayJournal(replay);
  if (read.ok()) {
    ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
    EXPECT_TRUE(result->BitIdentical()) << what << ": " << result->diff.summary;
    return;
  }
  const std::string quoted = "'" + key + "'";
  EXPECT_NE(read.message().find(quoted), std::string::npos)
      << what << ": " << read.ToString();
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_NE(result.status().message().find(quoted), std::string::npos)
      << what << ": " << result.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(output)) << what << ": engine built";
}

JournalManifest ManifestOf(const std::string& journal_dir) {
  auto journal = ReadJournal(journal_dir);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->attempts.size(), 1u);
  return journal->manifest;
}

/// Replaces entry `i`'s value.
JournalManifest WithValue(const JournalManifest& m, size_t i,
                          const std::string& value) {
  JournalManifest out;
  for (size_t j = 0; j < m.entries().size(); ++j) {
    const auto& [k, v] = m.entries()[j];
    out.Set(k, j == i ? value : v);
  }
  return out;
}

/// The hostile corpus for one entry: malformed, non-finite, negative and
/// overflowing text, plus for a name-valued entry an unknown name and the
/// entry with its first technique or aggregate name made unknown (inside a
/// ladder, a tenant line or the query).
std::vector<std::string> HostileValues(const std::string& value) {
  std::vector<std::string> values = {
      "", "x", "1x", " 1", "nan", "inf", "-1", "18446744073709551616"};
  if (std::none_of(value.begin(), value.end(),
                   [](unsigned char c) { return std::isalpha(c); })) {
    return values;
  }
  values.push_back("Bogus");
  for (const char* name : {"Hash", "Prompt", "PK2", "PK5", "COUNT", "MAX"}) {
    const size_t at = value.find(name);
    if (at == std::string::npos) continue;
    std::string swapped = value;
    swapped.replace(at, std::string(name).size(), "Bogus");
    values.push_back(swapped);
    break;
  }
  return values;
}

/// Every mutation of one recorded manifest: each entry to each hostile
/// value, each non-tenant key repeated, an unknown key, and the next format.
void RunHostileCorpus(const std::string& journal_dir) {
  const JournalManifest recorded = ManifestOf(journal_dir);
  ASSERT_FALSE(recorded.entries().empty());
  ASSERT_TRUE(Read(recorded).ok()) << Read(recorded).ToString();
  const auto& entries = recorded.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, value] = entries[i];
    for (const std::string& hostile : HostileValues(value)) {
      ExpectRejectedOrReplayed(journal_dir, WithValue(recorded, i, hostile),
                               key, key + "='" + hostile + "'");
    }
    if (key != "tenant") {
      JournalManifest repeated = recorded;
      repeated.Set(key, value);
      ExpectRejectedOrReplayed(journal_dir, repeated, key,
                               key + " repeated");
    }
  }
  JournalManifest unknown = recorded;
  unknown.Set("bogus.key", "1");
  ExpectRejectedOrReplayed(journal_dir, unknown, "bogus.key", "unknown key");
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first != "format") continue;
    ExpectRejectedOrReplayed(journal_dir,
                             WithValue(recorded, i, "prompt-journal-v2"),
                             "format", "format v2");
  }
}

TEST(ManifestSchemaTest, GoldenManifestReRecordsIdentically) {
  // Recorded by an earlier build from GoldenOptions: the field lists must
  // keep writing these bytes, and reading them must rebuild options that
  // write them again.
  const std::string golden = FileText(TestData("golden_single_manifest.txt"));
  ASSERT_FALSE(golden.empty());
  const std::string journal_dir = RecordGoldenRun("golden");
  EXPECT_EQ(ManifestOf(journal_dir).Serialize(), golden);

  auto parsed = JournalManifest::Parse(golden);
  ASSERT_TRUE(parsed.ok());
  auto run = ReadSingleManifest(*parsed, "store", &CompileJob);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(WriteSingleManifest(*run).Serialize(), golden);

  // Elasticity, the resizer, faults, the cluster, the store, adaptive
  // switching and sketch ingest all replay from it.
  ReplayOptions replay;
  replay.journal_dir = journal_dir;
  replay.output_dir = FreshDir("golden.out");
  auto result = ReplayJournal(replay);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->BitIdentical()) << result->diff.summary;
  EXPECT_EQ(result->diff.identical_batches, 8u);
}

/// Values the reader once accepted that reach undefined behaviour: a cost
/// near 1e300 overflows the int64 cast of a modeled task duration, a trend
/// lookback of INT_MAX the `lookback + 1` history bound. Each must be
/// rejected or replay bit-identically, like the rest of the corpus.
void RunPastBoundCorpus(const std::string& journal_dir) {
  const JournalManifest recorded = ManifestOf(journal_dir);
  size_t mutated = 0;
  for (size_t i = 0; i < recorded.entries().size(); ++i) {
    const std::string& key = recorded.entries()[i].first;
    std::string value;
    if (key.rfind("cost.", 0) == 0) value = "1.0000000000000001e+300";
    if (key == "elasticity.trend_lookback") value = "2147483647";
    if (value.empty()) continue;
    ExpectRejectedOrReplayed(journal_dir, WithValue(recorded, i, value), key,
                             key + "='" + value + "'");
    ++mutated;
  }
  EXPECT_GE(mutated, 8u) << journal_dir;
}

TEST(ManifestSchemaTest, ReaderRejectsValuesPastTheirBounds) {
  RunPastBoundCorpus(TestData("sketch_single_journal"));
  RunPastBoundCorpus(TestData("two_tenants_journal"));
  RunPastBoundCorpus(RecordGoldenRun("golden"));
}

TEST(ManifestSchemaTest, ReaderRejectsHostileSketchFixtureManifests) {
  RunHostileCorpus(TestData("sketch_single_journal"));
}

TEST(ManifestSchemaTest, ReaderRejectsHostileTwoTenantFixtureManifests) {
  RunHostileCorpus(TestData("two_tenants_journal"));
}

TEST(ManifestSchemaTest, ReaderRejectsHostileGoldenManifests) {
  RunHostileCorpus(RecordGoldenRun("golden"));
}

TEST(ManifestSchemaTest, ZeroedNumbersNeverAbortAReplay) {
  // Each recorded number set to 0 is either rejected by the reader, naming
  // the key, or replayed to completion: the engines' preconditions
  // (PROMPT_CHECKs) are the reader's ranges, never reached from a journal.
  for (const std::string& journal_dir :
       {TestData("sketch_single_journal"), TestData("two_tenants_journal"),
        RecordGoldenRun("golden")}) {
    const JournalManifest recorded = ManifestOf(journal_dir);
    for (size_t i = 0; i < recorded.entries().size(); ++i) {
      const auto& [key, value] = recorded.entries()[i];
      if (value.empty() || value.find_first_not_of("0123456789.e+-") !=
                               std::string::npos) {
        continue;
      }
      const JournalManifest zeroed = WithValue(recorded, i, "0");
      const std::string mutated = FreshDir("zeroed");
      const std::string output = FreshDir("zeroed.out");
      WriteWithManifest(journal_dir, mutated, zeroed);
      ReplayOptions replay;
      replay.journal_dir = mutated;
      replay.output_dir = output;
      const Status read = Read(zeroed);
      auto result = ReplayJournal(replay);
      EXPECT_EQ(read.ok(), result.ok()) << key << "=0: " << read.ToString();
      if (!read.ok()) {
        EXPECT_NE(read.message().find("'" + key + "'"), std::string::npos)
            << read.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace prompt
