#include "tenant/multi_tenant_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "workload/composite_source.h"
#include "workload/key_map.h"
#include "workload/sources.h"

namespace prompt {
namespace {

std::shared_ptr<const RateProfile> Constant(double rate) {
  return std::make_shared<ConstantRate>(rate);
}

std::unique_ptr<TupleSource> MakeSource(double rate, double z = 1.0,
                                        uint64_t cardinality = 500,
                                        uint64_t seed = 42) {
  ZipfKeyedSource::Params params;
  params.cardinality = cardinality;
  params.zipf = z;
  params.seed = seed;
  params.rate = Constant(rate);
  return std::make_unique<SynDSource>(std::move(params));
}

CompiledQuery CountQuery(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().message();
  return q.ValueOrDie();
}

TenantQuerySpec MakeSpec(const std::string& id, uint32_t weight,
                         const std::string& query_text,
                         KeyFilter filter = {}) {
  TenantQuerySpec spec;
  spec.id = id;
  spec.weight = weight;
  spec.technique = PartitionerType::kHash;
  spec.filter = filter;
  spec.query = CountQuery(query_text);
  return spec;
}

KeyFilter ModFilter(uint64_t modulo, uint64_t residue) {
  KeyFilter f;
  f.kind = KeyFilter::Kind::kModulo;
  f.modulo = modulo;
  f.residue = residue;
  return f;
}

MultiTenantEngineOptions FastOptions(uint32_t total_slots) {
  MultiTenantEngineOptions opts;
  opts.batch_interval = Millis(200);
  opts.total_slots = total_slots;
  opts.map_tasks = 4;
  opts.reduce_tasks = 4;
  return opts;
}

// Satellite 1's engine-level counterpart: a single kAll tenant through the
// multi-tenant path must be indistinguishable from MicroBatchEngine —
// same per-batch tuple counts and latencies, bit-identical window answers.
TEST(MultiTenantEngineTest, SingleTenantMatchesMicroBatchEngine) {
  const std::string kQuery = "SELECT COUNT WINDOW 800MS SLIDE 200MS";

  auto solo_source = MakeSource(20000);
  CompiledQuery q = CountQuery(kQuery);
  JobSpec job = q.job;
  job.window_batches = q.window_batches();
  EngineOptions solo_opts;
  solo_opts.batch_interval = Millis(200);
  solo_opts.map_tasks = 4;
  solo_opts.reduce_tasks = 4;
  solo_opts.cores = 4;
  MicroBatchEngine solo(solo_opts, job,
                        CreatePartitioner(PartitionerType::kHash),
                        solo_source.get());
  RunSummary solo_summary = solo.Run(12);

  auto mt_source = MakeSource(20000);
  auto mt = MultiTenantEngine::Create(FastOptions(/*total_slots=*/4),
                                      {MakeSpec("solo", 1, kQuery)},
                                      mt_source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary mt_summary = mt.ValueOrDie()->Run(12);

  ASSERT_EQ(mt_summary.tenants.size(), 1u);
  const RunSummary& tenant = mt_summary.tenants[0].summary;
  ASSERT_EQ(tenant.batches.size(), solo_summary.batches.size());
  for (size_t i = 0; i < tenant.batches.size(); ++i) {
    EXPECT_EQ(tenant.batches[i].num_tuples, solo_summary.batches[i].num_tuples)
        << "batch " << i;
    EXPECT_EQ(tenant.batches[i].latency, solo_summary.batches[i].latency)
        << "batch " << i;
    EXPECT_EQ(tenant.batches[i].processing_time,
              solo_summary.batches[i].processing_time)
        << "batch " << i;
  }
  // Window aggregates must be bit-identical (same doubles, same keys).
  EXPECT_EQ(mt.ValueOrDie()->window(0).Result(), solo.window().Result());
}

// The isolation core: two tenants on disjoint key slices sharing one stream
// must each compute exactly what they compute alone. KeyMappedSource carves
// the disjoint slices (even/odd keys) out of two independent generators.
TEST(MultiTenantEngineTest, DisjointTenantsMatchTheirSoloRuns) {
  const std::string kQuery = "SELECT COUNT WINDOW 800MS SLIDE 200MS";
  const double kRate = 8000;

  auto run_solo = [&](uint64_t seed, uint64_t add) {
    auto inner = MakeSource(kRate, 1.0, 500, seed);
    KeyMappedSource mapped(inner.get(), 2, add);
    auto mt = MultiTenantEngine::Create(FastOptions(/*total_slots=*/4),
                                        {MakeSpec("solo", 1, kQuery)},
                                        &mapped);
    EXPECT_TRUE(mt.ok()) << mt.status().message();
    MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
    return std::make_pair(std::move(summary),
                          mt.ValueOrDie()->window(0).Result());
  };
  auto solo_even = run_solo(7, 0);
  auto solo_odd = run_solo(99, 1);

  // Shared run: both generators interleave into one stream; mod-2 filters
  // route each slice to its tenant. 8 slots at equal weights = 4 each, the
  // same compute the solo runs had.
  auto inner_even = MakeSource(kRate, 1.0, 500, 7);
  auto inner_odd = MakeSource(kRate, 1.0, 500, 99);
  KeyMappedSource even(inner_even.get(), 2, 0);
  KeyMappedSource odd(inner_odd.get(), 2, 1);
  CompositeSource shared({&even, &odd});
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/8),
      {MakeSpec("even", 1, kQuery, ModFilter(2, 0)),
       MakeSpec("odd", 1, kQuery, ModFilter(2, 1))},
      &shared);
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
  ASSERT_EQ(summary.tenants.size(), 2u);

  const std::pair<MultiTenantRunSummary,
                  std::unordered_map<KeyId, double>>* solos[2] = {&solo_even,
                                                                  &solo_odd};
  for (size_t t = 0; t < 2; ++t) {
    const RunSummary& shared_run = summary.tenants[t].summary;
    const RunSummary& solo_run = solos[t]->first.tenants[0].summary;
    ASSERT_EQ(shared_run.batches.size(), solo_run.batches.size());
    for (size_t i = 0; i < shared_run.batches.size(); ++i) {
      EXPECT_EQ(shared_run.batches[i].num_tuples,
                solo_run.batches[i].num_tuples)
          << "tenant " << t << " batch " << i;
      EXPECT_EQ(shared_run.batches[i].latency, solo_run.batches[i].latency)
          << "tenant " << t << " batch " << i;
    }
    EXPECT_EQ(mt.ValueOrDie()->window(t).Result(), solos[t]->second)
        << "tenant " << t;
  }
}

// Sharded ingest must not change any tenant's answer: the merged runs are
// replayed through each tenant's filter in the same per-key order.
TEST(MultiTenantEngineTest, ShardedIngestPreservesTenantAnswers) {
  const std::string kQuery = "SELECT COUNT WINDOW 600MS SLIDE 200MS";

  auto run = [&](uint32_t shards) {
    auto inner_even = MakeSource(6000, 1.0, 500, 7);
    auto inner_odd = MakeSource(6000, 1.2, 500, 99);
    KeyMappedSource even(inner_even.get(), 2, 0);
    KeyMappedSource odd(inner_odd.get(), 2, 1);
    CompositeSource shared({&even, &odd});
    MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/8);
    opts.ingest.shards = shards;
    auto mt = MultiTenantEngine::Create(
        opts,
        {MakeSpec("even", 1, kQuery, ModFilter(2, 0)),
         MakeSpec("odd", 1, kQuery, ModFilter(2, 1))},
        &shared);
    EXPECT_TRUE(mt.ok()) << mt.status().message();
    mt.ValueOrDie()->Run(8);
    return std::make_pair(mt.ValueOrDie()->window(0).Result(),
                          mt.ValueOrDie()->window(1).Result());
  };

  auto direct = run(1);
  auto sharded = run(4);
  EXPECT_EQ(direct.first, sharded.first);
  EXPECT_EQ(direct.second, sharded.second);
}

TEST(MultiTenantEngineTest, WeightsDriveSlotsGranted) {
  auto source = MakeSource(8000);
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/16),
      {MakeSpec("light", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS"),
       MakeSpec("heavy", 3, "SELECT COUNT WINDOW 600MS SLIDE 200MS")},
      source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary summary = mt.ValueOrDie()->Run(10);
  // {1,3} over 16 slots allocates {4,12} with the stride handing the one
  // leftover slot to the light tenant every 4th heartbeat (heartbeats 3 and
  // 7 of these 10): 4*10+2 vs 12*10-2. Deterministic, so exact.
  EXPECT_EQ(summary.tenants[0].slots_granted, 42u);
  EXPECT_EQ(summary.tenants[1].slots_granted, 118u);
  // Every batch got an autopsy verdict in the per-tenant cause stream.
  for (const TenantRunResult& t : summary.tenants) {
    EXPECT_EQ(t.causes.size(), 10u);
    uint64_t total = 0;
    for (uint64_t c : t.cause_counts) total += c;
    EXPECT_EQ(total, 10u);
  }
}

// kReal runs every Map and Reduce task on the slot pool, including the
// re-execution of stored batches that rebuilds the windows when a restart
// recovers the store. Both tenants' windows must equal a kSimulated run's,
// before the restart and after it.
TEST(MultiTenantEngineTest, RealModeDurableRestartMatchesSimulated) {
  using Windows = std::vector<std::unordered_map<KeyId, double>>;
  struct Outcome {
    Windows before;
    Windows recovered;
    uint64_t batches_recovered = 0;
  };
  auto run = [](ExecutionMode mode, const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/mt_restart_" + name;
    std::filesystem::remove_all(dir);
    MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/4);
    opts.mode = mode;
    opts.store.dir = dir;
    auto specs = [] {
      TenantQuerySpec all =
          MakeSpec("all", 1, "SELECT COUNT WINDOW 1000MS SLIDE 200MS");
      all.technique = PartitionerType::kPrompt;
      TenantQuerySpec odd = MakeSpec(
          "odd", 1, "SELECT MAX WINDOW 600MS SLIDE 200MS", ModFilter(2, 1));
      odd.technique = PartitionerType::kPk2;
      return std::vector<TenantQuerySpec>{all, odd};
    };
    Outcome outcome;
    for (const bool restart : {false, true}) {
      auto source = MakeSource(12000, 1.1, 800, 31);
      auto mt = MultiTenantEngine::Create(opts, specs(), source.get());
      EXPECT_TRUE(mt.ok()) << mt.status().message();
      if (!mt.ok()) return outcome;
      MultiTenantEngine& engine = *mt.ValueOrDie();
      if (!restart) engine.Run(8);
      Windows& windows = restart ? outcome.recovered : outcome.before;
      for (size_t t = 0; t < engine.tenants(); ++t) {
        windows.push_back(engine.window(t).Result());
      }
      if (restart) {
        outcome.batches_recovered = engine.durable_recovery().batches_recovered;
        EXPECT_FALSE(engine.durable_recovery().data_loss);
      }
    }
    std::filesystem::remove_all(dir);
    return outcome;
  };
  const Outcome simulated = run(ExecutionMode::kSimulated, "simulated");
  const Outcome real = run(ExecutionMode::kReal, "real");
  ASSERT_EQ(real.before.size(), 2u);
  ASSERT_EQ(real.recovered.size(), 2u);
  EXPECT_GT(real.batches_recovered, 0u);
  EXPECT_EQ(real.batches_recovered, simulated.batches_recovered);
  for (size_t t = 0; t < 2; ++t) {
    EXPECT_FALSE(real.before[t].empty()) << "tenant " << t;
    EXPECT_EQ(real.before[t], simulated.before[t]) << "tenant " << t;
    EXPECT_EQ(real.recovered[t], simulated.recovered[t]) << "tenant " << t;
    EXPECT_EQ(real.recovered[t], real.before[t]) << "tenant " << t;
  }
}

TEST(MultiTenantEngineTest, CreateRejectsInvalidConfigurations) {
  auto source = MakeSource(1000);
  const std::string kQuery = "SELECT COUNT WINDOW 600MS SLIDE 200MS";

  // Null source.
  EXPECT_FALSE(MultiTenantEngine::Create(FastOptions(4),
                                         {MakeSpec("a", 1, kQuery)}, nullptr)
                   .ok());
  // No tenants.
  EXPECT_FALSE(MultiTenantEngine::Create(FastOptions(4), {}, source.get()).ok());
  // Duplicate ids (rejected by the scheduler).
  EXPECT_FALSE(MultiTenantEngine::Create(
                   FastOptions(4),
                   {MakeSpec("a", 1, kQuery), MakeSpec("a", 1, kQuery)},
                   source.get())
                   .ok());
  // More tenants than slots: someone would lose their guaranteed slot.
  EXPECT_FALSE(MultiTenantEngine::Create(
                   FastOptions(2),
                   {MakeSpec("a", 1, kQuery), MakeSpec("b", 1, kQuery),
                    MakeSpec("c", 1, kQuery)},
                   source.get())
                   .ok());
}

}  // namespace
}  // namespace prompt
