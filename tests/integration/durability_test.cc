// Crash-restart matrix: kill the engine at every stage boundary, under
// every fsync policy, at rf 1 and 2 — then restart over the same store
// directory and demand either a bit-identical recovered window (for every
// batch the policy promised to persist) or an honest data_loss report.
// Nothing in between: recovery must never fabricate output.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "store/block_store.h"
#include "workload/sources.h"

namespace prompt {
namespace {

constexpr uint64_t kCrashAt = 4;  // the batch whose processing dies
constexpr uint32_t kRunBatches = 8;

EngineOptions StoreOpts(const std::string& dir, FsyncPolicy fsync,
                        uint32_t rf) {
  EngineOptions opts;
  opts.batch_interval = Millis(200);
  opts.map_tasks = 4;
  opts.reduce_tasks = 3;
  opts.cluster_enabled = true;
  opts.cluster.nodes = 4;
  opts.cluster.cores_per_node = 2;
  opts.cluster.replication_factor = rf;
  opts.cores = 8;
  opts.store.dir = dir;
  opts.store.fsync = fsync;
  return opts;
}

std::unique_ptr<TupleSource> MakeSource() {
  ZipfKeyedSource::Params params;
  params.cardinality = 800;
  params.zipf = 1.0;
  params.seed = 5;
  params.rate = std::make_shared<ConstantRate>(8000);
  return std::make_unique<SynDSource>(std::move(params));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/durability_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<KV> WindowTopK(const MicroBatchEngine& engine) {
  return engine.window().TopK(50);
}

/// The uninterrupted run's window after `batches` batches — the ground
/// truth a recovered engine must reproduce exactly.
std::vector<KV> ReferenceWindow(uint32_t batches) {
  auto source = MakeSource();
  EngineOptions opts = StoreOpts("", FsyncPolicy::kBatch, 2);
  opts.store = StoreOptions{};  // memory-only reference
  MicroBatchEngine engine(opts, JobSpec::WordCount(10),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  engine.Run(batches);
  return WindowTopK(engine);
}

void ExpectSameWindow(const std::vector<KV>& got, const std::vector<KV>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << label << " rank " << i;
    EXPECT_EQ(got[i].value, want[i].value) << label << " rank " << i;
  }
}

TEST(DurabilityMatrixTest, EveryStageFsyncAndRfComboRecoversHonestly) {
  for (const char* stage : {"start", "map", "reduce"}) {
    for (FsyncPolicy fsync :
         {FsyncPolicy::kNever, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
      for (uint32_t rf : {1u, 2u}) {
        const std::string label = std::string(stage) + "/" +
                                  FsyncPolicyName(fsync) + "/rf" +
                                  std::to_string(rf);
        const std::string dir = FreshDir(label);

        // --- the doomed run -------------------------------------------
        {
          auto source = MakeSource();
          EngineOptions opts = StoreOpts(dir, fsync, rf);
          auto faults = ParseFaultSchedule(
              "crash:" + std::to_string(kCrashAt) + "." + stage);
          ASSERT_TRUE(faults.ok()) << label;
          opts.faults = *faults;
          MicroBatchEngine engine(opts, JobSpec::WordCount(10),
                                  CreatePartitioner(PartitionerType::kPrompt),
                                  source.get());
          RunSummary summary = engine.Run(kRunBatches);
          EXPECT_TRUE(summary.crashed) << label;
          EXPECT_EQ(summary.crashed_at_batch, kCrashAt) << label;
          // The doomed batch's report is never published — a crashed
          // process reports nothing.
          ASSERT_EQ(summary.batches.size(), kCrashAt) << label;
          EXPECT_EQ(summary.batches.back().batch_id, kCrashAt - 1) << label;
        }

        // --- the restart ----------------------------------------------
        auto source = MakeSource();
        MicroBatchEngine engine(StoreOpts(dir, fsync, rf),
                                JobSpec::WordCount(10),
                                CreatePartitioner(PartitionerType::kPrompt),
                                source.get());
        const auto& rec = engine.durable_recovery();
        // What each policy promises to have persisted at the crash point:
        // the batch-kCrashAt record was appended (input logging precedes
        // every stage) but only kAlways had synced it.
        uint64_t expect_recovered = 0;
        bool expect_loss = true;
        switch (fsync) {
          case FsyncPolicy::kAlways:
            expect_recovered = kCrashAt + 1;
            expect_loss = false;
            break;
          case FsyncPolicy::kBatch:
            expect_recovered = kCrashAt;  // everything but the doomed batch
            break;
          case FsyncPolicy::kNever:
            expect_recovered = 0;  // only the segment header was durable
            break;
        }
        EXPECT_EQ(rec.batches_recovered, expect_recovered) << label;
        EXPECT_EQ(rec.data_loss, expect_loss) << label;
        if (expect_loss) {
          EXPECT_GE(rec.torn_records, 1u) << label;
        } else {
          EXPECT_EQ(rec.torn_records, 0u) << label;
        }

        // Bit-identical window for everything that was persisted.
        ExpectSameWindow(
            WindowTopK(engine),
            ReferenceWindow(static_cast<uint32_t>(expect_recovered)), label);
      }
    }
  }
}

TEST(DurabilityTest, RecoveredEngineResumesBatchNumbering) {
  const std::string dir = FreshDir("resume");
  {
    auto source = MakeSource();
    MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                            JobSpec::WordCount(10),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    engine.Run(3);
  }
  auto source = MakeSource();
  MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                          JobSpec::WordCount(10),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  EXPECT_EQ(engine.durable_recovery().batches_recovered, 3u);
  RunSummary summary = engine.Run(2);
  ASSERT_EQ(summary.batches.size(), 2u);
  // Ids continue where the previous process stopped — a replayed id would
  // shadow a recovered batch in the store and the window.
  EXPECT_EQ(summary.batches[0].batch_id, 3u);
  EXPECT_EQ(summary.batches[1].batch_id, 4u);
  EXPECT_FALSE(summary.crashed);
}

TEST(DurabilityTest, CrashedEngineRefusesFurtherRuns) {
  const std::string dir = FreshDir("refuse");
  auto source = MakeSource();
  EngineOptions opts = StoreOpts(dir, FsyncPolicy::kBatch, 2);
  opts.faults = *ParseFaultSchedule("crash:2");
  MicroBatchEngine engine(opts, JobSpec::WordCount(10),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary first = engine.Run(5);
  EXPECT_TRUE(first.crashed);
  // A dead process cannot process more batches; only a new engine over the
  // same store directory (a restart) continues the query.
  RunSummary second = engine.Run(3);
  EXPECT_TRUE(second.crashed);
  EXPECT_TRUE(second.batches.empty());
}

TEST(DurabilityTest, WindowEvictionTombstonesTheStore) {
  // A 3-batch window over 6 batches: ids 0..2 must be tombstoned (and the
  // log's front reclaimable), ids 3..5 still live for recovery.
  const std::string dir = FreshDir("evict");
  {
    auto source = MakeSource();
    MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                            JobSpec::WordCount(3),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    engine.Run(6);
    ASSERT_NE(engine.durable_store(), nullptr);
    EXPECT_EQ(engine.durable_store()->live_batches(), 3u);
  }
  auto source = MakeSource();
  MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                          JobSpec::WordCount(3),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  EXPECT_EQ(engine.durable_recovery().batches_recovered, 3u);
  EXPECT_EQ(engine.durable_recovery().first_recovered_batch, 3u);
  EXPECT_EQ(engine.durable_recovery().last_recovered_batch, 5u);
}

TEST(DurabilityTest, OldFormatBatchIsDataLossNotMisdecoded) {
  // A store written before the PRMC batch format: its batches are rejected
  // one by one and confessed as data_loss, never decoded. Batch 1 is
  // rewritten here in the retired "PRMB" envelope; 0 and 2 stay current.
  const std::string dir = FreshDir("old_format");
  {
    auto source = MakeSource();
    MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                            JobSpec::WordCount(10),
                            CreatePartitioner(PartitionerType::kPrompt),
                            source.get());
    engine.Run(3);
  }
  {
    StoreOptions store;
    store.dir = dir;
    auto durable = DurableBlockStore::Open(store);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    auto bytes = (*durable)->Get(/*owner=*/0, /*batch_id=*/1);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    const uint32_t retired_magic = 0x50524d42u;  // "PRMB"
    std::memcpy(bytes->data(), &retired_magic, 4);
    ASSERT_TRUE((*durable)->Put(0, 1, *bytes).ok());
    ASSERT_TRUE((*durable)->Sync().ok());
  }
  auto source = MakeSource();
  MicroBatchEngine engine(StoreOpts(dir, FsyncPolicy::kBatch, 2),
                          JobSpec::WordCount(10),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  EXPECT_TRUE(engine.init_status().ok());
  EXPECT_TRUE(engine.durable_recovery().data_loss);
  EXPECT_EQ(engine.durable_recovery().batches_recovered, 2u);
  EXPECT_EQ(engine.durable_recovery().first_recovered_batch, 0u);
  EXPECT_EQ(engine.durable_recovery().last_recovered_batch, 2u);
}

TEST(DurabilityTest, UnopenableStoreFailsInitStatusNotSilently) {
  // A requested store dir that cannot be opened (here: a regular file
  // squats on the path) must surface in init_status() and data_loss, never
  // silently degrade the engine to memory-only durability.
  const std::string path = FreshDir("unopenable");
  {
    std::ofstream f(path, std::ios::binary);
    f << "a file where the store dir should be";
  }
  auto source = MakeSource();
  MicroBatchEngine engine(StoreOpts(path, FsyncPolicy::kBatch, 1),
                          JobSpec::WordCount(10),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  EXPECT_FALSE(engine.init_status().ok());
  EXPECT_TRUE(engine.durable_recovery().data_loss);
  EXPECT_EQ(engine.durable_store(), nullptr);
}

}  // namespace
}  // namespace prompt
