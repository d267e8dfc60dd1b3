// End-to-end flight-recorder acceptance: record real engine runs, replay
// them from the journal alone and require bit-identical outcome streams —
// across ingest shard counts, a crash/restart lineage over the durable
// store, two-tenant runs and sketch-mode ingest, and for journals recorded
// by earlier builds. Plus the autopsy direction: a deliberately
// perturbed re-run must diff with the divergence pinned to the exact batch
// the perturbation lands in.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "query/multi_query.h"
#include "replay/diff.h"
#include "replay/journal.h"
#include "replay/replayer.h"
#include "tenant/multi_tenant_engine.h"
#include "workload/sources.h"

namespace prompt {
namespace {

constexpr TimeMicros kInterval = Millis(200);

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::unique_ptr<TupleSource> MakeSource(uint64_t seed = 11) {
  ZipfKeyedSource::Params params;
  params.cardinality = 600;
  params.zipf = 1.0;
  params.seed = seed;
  params.rate = std::make_shared<ConstantRate>(6000);
  return std::make_unique<SynDSource>(std::move(params));
}

EngineOptions RecordOptions(const std::string& journal_dir) {
  EngineOptions opts;
  opts.batch_interval = kInterval;
  opts.map_tasks = 4;
  opts.reduce_tasks = 3;
  opts.obs.collect_partition_metrics = true;
  opts.journal.dir = journal_dir;
  return opts;
}

ReplayResult MustReplay(const std::string& journal_dir,
                        const std::string& output_dir) {
  ReplayOptions replay;
  replay.journal_dir = journal_dir;
  replay.output_dir = output_dir;
  auto result = ReplayJournal(replay);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueUnsafe();
}

TEST(ReplayDeterminismTest, SingleTenantRoundTripsAcrossShardCounts) {
  for (uint32_t shards : {1u, 4u}) {
    const std::string name = "replay_shards" + std::to_string(shards);
    const std::string journal_dir = FreshDir(name);
    const std::string output_dir = FreshDir(name + ".out");
    {
      auto source = MakeSource();
      EngineOptions opts = RecordOptions(journal_dir);
      opts.ingest.shards = shards;
      MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                              CreatePartitioner(PartitionerType::kPrompt),
                              source.get());
      ASSERT_TRUE(engine.init_status().ok());
      RunSummary summary = engine.Run(8);
      ASSERT_EQ(summary.batches.size(), 8u);
    }
    const ReplayResult result = MustReplay(journal_dir, output_dir);
    EXPECT_EQ(result.mode, "single");
    EXPECT_EQ(result.attempts, 1u);
    EXPECT_EQ(result.batches, 8u);
    EXPECT_TRUE(result.manifest_match) << "shards=" << shards;
    EXPECT_TRUE(result.diff.identical)
        << "shards=" << shards << ": " << result.diff.summary;
    EXPECT_EQ(result.diff.identical_batches, 8u);
  }
}

// Alg. 1's update budget orders the sealed keys, so a sharded run off the
// default budget must replay on the budget it recorded.
TEST(ReplayDeterminismTest, IngestBudgetReplaysAsRecorded) {
  const std::string journal_dir = FreshDir("replay_budget");
  const std::string output_dir = FreshDir("replay_budget.out");
  {
    auto source = MakeSource();
    EngineOptions opts = RecordOptions(journal_dir);
    opts.ingest.shards = 2;
    opts.ingest.accumulator_options.budget = 1;
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    ASSERT_TRUE(engine.init_status().ok());
    engine.Run(8);
  }
  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_TRUE(result.manifest_match);
  EXPECT_TRUE(result.diff.identical) << result.diff.summary;
  EXPECT_EQ(result.diff.identical_batches, 8u);
}

TEST(ReplayDeterminismTest, AdaptiveRunReplaysSwitchForSwitch) {
  const std::string journal_dir = FreshDir("replay_adaptive");
  const std::string output_dir = FreshDir("replay_adaptive.out");
  {
    auto source = MakeSource(23);
    EngineOptions opts = RecordOptions(journal_dir);
    opts.adapt.enabled = true;
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    ASSERT_TRUE(engine.init_status().ok());
    engine.Run(10);
  }
  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_TRUE(result.BitIdentical()) << result.diff.summary;

  // Switch decisions are part of the identity check: both journals must
  // carry the same sequence, not merely the same batch outcomes.
  auto a = ReadJournal(journal_dir);
  auto b = ReadJournal(output_dir);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->AllSwitches(), b->AllSwitches());
}

TEST(ReplayDeterminismTest, CrashRestartLineageReplaysBothAttempts) {
  const std::string journal_dir = FreshDir("replay_lineage");
  const std::string output_dir = FreshDir("replay_lineage.out");
  const std::string store_dir = FreshDir("replay_lineage.store");

  // Run 1: durable store on, crash fault at batch 3 of 8.
  {
    auto source = MakeSource(31);
    EngineOptions opts = RecordOptions(journal_dir);
    opts.store.dir = store_dir;
    auto faults = ParseFaultSchedule("crash:3");
    ASSERT_TRUE(faults.ok());
    opts.faults = std::move(faults).ValueUnsafe();
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    ASSERT_TRUE(engine.init_status().ok());
    RunSummary summary = engine.Run(8);
    ASSERT_TRUE(summary.crashed);
    ASSERT_LT(summary.batches.size(), 8u);
  }
  // Run 2: the restart — same store and journal, no faults. The journal
  // must carry run 2's fault-free manifest on its own attempt, or replay
  // would re-fire run 1's crash schedule against the restarted engine.
  {
    auto source = MakeSource(31);
    // The restarted process sees the stream from where the crash left it:
    // skip what run 1 already consumed (recorded batches 0..2 + the
    // crashed batch 3's tuples).
    auto recorded = ReadJournal(journal_dir);
    ASSERT_TRUE(recorded.ok());
    Tuple t;
    for (size_t i = 0; i < recorded->attempts[0].tuples.size(); ++i) {
      ASSERT_TRUE(source->Next(&t));
    }
    EngineOptions opts = RecordOptions(journal_dir);
    opts.store.dir = store_dir;
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    ASSERT_TRUE(engine.init_status().ok());
    engine.Run(4);
  }

  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_TRUE(result.manifest_match);
  EXPECT_TRUE(result.diff.identical) << result.diff.summary;

  // The replayed lineage reproduced the crash too: the scratch store's
  // attempt 1 ends mid-batch exactly like the recorded one.
  auto replayed = ReadJournal(output_dir);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->attempts.size(), 2u);
  EXPECT_TRUE(replayed->attempts[0].crashed());
  EXPECT_FALSE(replayed->attempts[1].crashed());
}

TEST(ReplayDeterminismTest, TwoTenantRunRoundTrips) {
  const std::string journal_dir = FreshDir("replay_tenants");
  const std::string output_dir = FreshDir("replay_tenants.out");
  {
    auto specs = ParseQueryFile(
        "TENANT even WEIGHT 1 TECHNIQUE Hash KEYS mod:2:0 "
        "QUERY SELECT COUNT WINDOW 1S\n"
        "TENANT odd  WEIGHT 3 TECHNIQUE Prompt KEYS mod:2:1 "
        "QUERY SELECT SUM WINDOW 1S\n");
    ASSERT_TRUE(specs.ok()) << specs.status().message();
    MultiTenantEngineOptions opts;
    opts.batch_interval = kInterval;
    opts.total_slots = 8;
    opts.map_tasks = 4;
    opts.reduce_tasks = 3;
    opts.journal.dir = journal_dir;
    auto source = MakeSource(47);
    auto engine = MultiTenantEngine::Create(
        opts, std::move(specs).ValueUnsafe(), source.get());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    (*engine)->Run(6);
  }
  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_EQ(result.mode, "multi");
  EXPECT_TRUE(result.BitIdentical()) << result.diff.summary;

  // Both tenants' verdict streams must be present and identical per owner.
  auto a = ReadJournal(journal_dir);
  auto b = ReadJournal(output_dir);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto oa = a->AllOutcomes();
  const auto ob = b->AllOutcomes();
  ASSERT_EQ(oa.size(), 2u);
  ASSERT_EQ(ob.size(), 2u);
  for (const auto& [owner, outcomes] : oa) {
    ASSERT_EQ(ob.count(owner), 1u) << "owner " << owner;
    ASSERT_EQ(outcomes.size(), ob.at(owner).size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_TRUE(outcomes[i].BitIdentical(ob.at(owner)[i]))
          << "owner " << owner << " batch " << i;
    }
  }
}

TEST(ReplayDeterminismTest, TwoTenantSketchRunRoundTrips) {
  // Sketch-mode ingest across two tenants: the manifest must carry the
  // sketch settings, or the replay runs exact ingest and diverges at once.
  const std::string journal_dir = FreshDir("replay_tenants_sketch");
  const std::string output_dir = FreshDir("replay_tenants_sketch.out");
  {
    auto specs = ParseQueryFile(
        "TENANT even WEIGHT 1 TECHNIQUE Hash KEYS mod:2:0 "
        "QUERY SELECT COUNT WINDOW 1S\n"
        "TENANT odd  WEIGHT 3 TECHNIQUE Prompt KEYS mod:2:1 "
        "QUERY SELECT SUM WINDOW 1S\n");
    ASSERT_TRUE(specs.ok()) << specs.status().message();
    MultiTenantEngineOptions opts;
    opts.batch_interval = kInterval;
    opts.total_slots = 8;
    opts.map_tasks = 4;
    opts.reduce_tasks = 3;
    opts.ingest.key_mode = KeyMode::kSketch;
    opts.ingest.accumulator_options.sketch.capacity = 512;
    opts.ingest.accumulator_options.sketch.tail_buckets = 32;
    opts.journal.dir = journal_dir;
    auto source = MakeSource(53);
    auto engine = MultiTenantEngine::Create(
        opts, std::move(specs).ValueUnsafe(), source.get());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    (*engine)->Run(6);
  }
  auto recorded = ReadJournal(journal_dir);
  ASSERT_TRUE(recorded.ok());
  EXPECT_EQ(recorded->manifest.Get("ingest.sketch_capacity", ""), "512");
  EXPECT_EQ(recorded->manifest.Get("ingest.tail_buckets", ""), "32");

  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_EQ(result.mode, "multi");
  EXPECT_TRUE(result.BitIdentical()) << result.diff.summary;
  EXPECT_EQ(result.diff.identical_batches, 12u);  // 6 batches x 2 tenants
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ReplayDeterminismTest, RecordedFixtureReplaysBitIdentically) {
  // A two-tenant durable run recorded by an earlier build:
  //   promptctl --queries=examples/two_tenants.query --store_dir=<tmp>
  //             --record=<fixture> --batches=6 --rate=2000
  // The other tests record and replay with one binary, so a drift in the
  // record framing or the tuple encoding would pass them; here the journal
  // is old bytes, and re-recording it must give those bytes back.
  const std::string fixture =
      std::string(PROMPT_TESTDATA_DIR) + "/two_tenants_journal";
  const std::string journal_dir = FreshDir("replay_fixture");
  const std::string output_dir = FreshDir("replay_fixture.out");
  std::filesystem::copy(fixture, journal_dir);
  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_EQ(result.mode, "multi");
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.batches, 6u);
  EXPECT_TRUE(result.BitIdentical()) << result.diff.summary;
  EXPECT_EQ(result.diff.identical_batches, 12u);  // 6 batches x 2 tenants
  const std::string recorded = FileBytes(fixture + "/seg-000000.log");
  ASSERT_FALSE(recorded.empty());
  EXPECT_TRUE(FileBytes(output_dir + "/seg-000000.log") == recorded);
}

TEST(ReplayDeterminismTest, RecordedSketchFixtureReplaysBitIdentically) {
  // A single-tenant sketch-mode run recorded by an earlier build:
  //   promptctl --key_mode=sketch --sketch_capacity=512 --ingest_shards=2
  //             --batches=6 --rate=2000 --record=<fixture>
  // The sketch settings must be read back, and re-recording must give the
  // recorded bytes back.
  const std::string fixture =
      std::string(PROMPT_TESTDATA_DIR) + "/sketch_single_journal";
  const std::string journal_dir = FreshDir("replay_sketch_fixture");
  const std::string output_dir = FreshDir("replay_sketch_fixture.out");
  std::filesystem::copy(fixture, journal_dir);
  const ReplayResult result = MustReplay(journal_dir, output_dir);
  EXPECT_EQ(result.mode, "single");
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.batches, 6u);
  EXPECT_TRUE(result.BitIdentical()) << result.diff.summary;
  EXPECT_EQ(result.diff.identical_batches, 6u);
  const std::string recorded = FileBytes(fixture + "/seg-000000.log");
  ASSERT_FALSE(recorded.empty());
  EXPECT_TRUE(FileBytes(output_dir + "/seg-000000.log") == recorded);
}

TEST(ReplayDiffTest, PerturbedRerunPinsTheFirstDivergentBatch) {
  const std::string journal_a = FreshDir("diff_base");
  const std::string journal_b = FreshDir("diff_perturbed");
  {
    auto source = MakeSource(59);
    EngineOptions opts = RecordOptions(journal_a);
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    engine.Run(8);
  }
  auto a = ReadJournal(journal_a);
  ASSERT_TRUE(a.ok());

  // Re-run the exact recorded stream with one tuple's key flipped inside
  // batch 5 — batches 0..4 must compare identical, batch 5 must be the
  // reported divergence, with the window-output hash among the deltas.
  std::vector<Tuple> tuples = a->AllTuples();
  bool perturbed = false;
  for (Tuple& t : tuples) {
    if (t.ts >= 5 * kInterval) {
      t.key += 1;
      perturbed = true;
      break;
    }
  }
  ASSERT_TRUE(perturbed);
  {
    JournalTupleSource source(std::move(tuples));
    EngineOptions opts = RecordOptions(journal_b);
    MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                            CreatePartitioner(PartitionerType::kPrompt),
                            &source);
    engine.Run(8);
  }
  auto b = ReadJournal(journal_b);
  ASSERT_TRUE(b.ok());

  const JournalDiff diff = DiffJournals(*a, *b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergent_batch, 5u);
  EXPECT_EQ(diff.divergent_owner, 0u);
  EXPECT_EQ(diff.identical_batches, 5u);
  ASSERT_FALSE(diff.fields.empty());
  bool saw_hash = false;
  for (const DiffField& f : diff.fields) {
    if (f.field.find("output_hash") != std::string::npos) saw_hash = true;
  }
  EXPECT_TRUE(saw_hash) << diff.summary;

  // And the self-comparison is clean.
  const JournalDiff same = DiffJournals(*a, *a);
  EXPECT_TRUE(same.identical);
  EXPECT_EQ(same.identical_batches, 8u);
}

}  // namespace
}  // namespace prompt
