#include "tenant/multi_tenant_engine.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "obs/sink.h"
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

/// One-shot GET against 127.0.0.1:port; the raw response ("" on failure).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  return response;
}

MultiTenantEngineOptions FastOptions(uint32_t total_slots) {
  MultiTenantEngineOptions opts;
  opts.batch_interval = Millis(200);
  opts.total_slots = total_slots;
  opts.map_tasks = 4;
  opts.reduce_tasks = 4;
  return opts;
}

// One seal path of the batching phase: exact or sketch key state, direct or
// sharded ingest, a technique with (Prompt) or without (Hash) the merged
// quasi-sorted fast path.
struct SealPath {
  KeyMode key_mode;
  uint32_t shards;
  PartitionerType technique;
};

void PrintTo(const SealPath& p, std::ostream* os) {
  *os << (p.key_mode == KeyMode::kSketch ? "sketch" : "exact") << "_shards"
      << p.shards << "_" << PartitionerTypeName(p.technique);
}

class MultiTenantDifferentialTest : public ::testing::TestWithParam<SealPath> {
};

// A single KEYS-all tenant through MultiTenantEngine must be
// indistinguishable from MicroBatchEngine on every seal path: the two entry
// points' option mappings stay equivalent. Per batch, every deterministic
// report field (the thread-timed ingest fields aside) and the final window
// must be bit-identical. The partition overflow, and with it the processing
// time and latency, derives from the measured decision cost (and, sharded,
// the measured merge latency), so the multi-tenant run replays the wall-clock
// inputs the solo run journaled, as --replay does.
TEST_P(MultiTenantDifferentialTest, SingleTenantMatchesMicroBatchEngine) {
  const SealPath& path = GetParam();
  const std::string kQuery = "SELECT COUNT WINDOW 800MS SLIDE 200MS";
  constexpr uint32_t kBatches = 20;
  IngestOptions ingest;
  ingest.shards = path.shards;
  ingest.key_mode = path.key_mode;
  ingest.accumulator_options.sketch.capacity = 256;
  const std::string journal_dir = ::testing::TempDir() + "/mt_differential_" +
                                  ::testing::PrintToString(path);
  std::filesystem::remove_all(journal_dir);

  auto solo_source = MakeSource(40000, 1.0, 5000);
  CompiledQuery q = CountQuery(kQuery);
  JobSpec job = q.job;
  job.window_batches = q.window_batches();
  EngineOptions solo_opts;
  solo_opts.batch_interval = Millis(200);
  solo_opts.map_tasks = 4;
  solo_opts.reduce_tasks = 4;
  solo_opts.cores = 4;
  solo_opts.ingest = ingest;
  solo_opts.journal.dir = journal_dir;
  MicroBatchEngine solo(solo_opts, job, CreatePartitioner(path.technique),
                        solo_source.get());
  ASSERT_TRUE(solo.init_status().ok());
  RunSummary solo_summary = solo.Run(kBatches);
  auto journal = ReadJournal(journal_dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->attempts.size(), 1u);

  auto mt_source = MakeSource(40000, 1.0, 5000);
  MultiTenantEngineOptions mt_opts = FastOptions(/*total_slots=*/4);
  mt_opts.ingest = ingest;
  mt_opts.journal.inject =
      std::make_shared<const ReplayEnv>(journal->attempts[0].envs);
  TenantQuerySpec spec = MakeSpec("solo", 1, kQuery);
  spec.technique = path.technique;
  auto mt = MultiTenantEngine::Create(mt_opts, {spec}, mt_source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantRunSummary mt_summary = mt.ValueOrDie()->Run(kBatches);

  ASSERT_EQ(mt_summary.tenants.size(), 1u);
  const RunSummary& tenant = mt_summary.tenants[0].summary;
  ASSERT_EQ(tenant.batches.size(), kBatches);
  ASSERT_EQ(solo_summary.batches.size(), kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    const BatchReport& a = tenant.batches[i];
    const BatchReport& b = solo_summary.batches[i];
    EXPECT_EQ(a.num_tuples, b.num_tuples) << "batch " << i;
    EXPECT_EQ(a.num_keys, b.num_keys) << "batch " << i;
    EXPECT_EQ(a.partition_overflow, b.partition_overflow) << "batch " << i;
    EXPECT_EQ(a.map_makespan, b.map_makespan) << "batch " << i;
    EXPECT_EQ(a.reduce_makespan, b.reduce_makespan) << "batch " << i;
    EXPECT_EQ(a.reduce_bucket_bsi, b.reduce_bucket_bsi) << "batch " << i;
    EXPECT_EQ(a.technique, b.technique) << "batch " << i;
    EXPECT_EQ(a.processing_time, b.processing_time) << "batch " << i;
    EXPECT_EQ(a.latency, b.latency) << "batch " << i;
  }
  // Window aggregates must be bit-identical (same doubles, same keys).
  EXPECT_EQ(mt.ValueOrDie()->window(0).Result(), solo.window().Result());
}

INSTANTIATE_TEST_SUITE_P(
    SealPaths, MultiTenantDifferentialTest,
    ::testing::Values(
        SealPath{KeyMode::kExact, 1, PartitionerType::kHash},
        SealPath{KeyMode::kExact, 1, PartitionerType::kPrompt},
        SealPath{KeyMode::kExact, 2, PartitionerType::kHash},
        SealPath{KeyMode::kExact, 2, PartitionerType::kPrompt},
        SealPath{KeyMode::kSketch, 1, PartitionerType::kHash},
        SealPath{KeyMode::kSketch, 1, PartitionerType::kPrompt},
        SealPath{KeyMode::kSketch, 2, PartitionerType::kHash},
        SealPath{KeyMode::kSketch, 2, PartitionerType::kPrompt}));

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

// Three KEYS-all tenants share one batching phase over one SynD stream: each
// computes its own aggregate over every tuple. SynD values are all 1.0, so
// per key SUM == COUNT and MAX == 1.
TEST(MultiTenantEngineTest, KeysAllTenantsComputeIndependently) {
  ZipfKeyedSource::Params params;
  params.cardinality = 300;
  params.zipf = 0.8;
  params.seed = 61;
  params.rate = Constant(8000);
  SynDSource source(std::move(params));
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/6),
      {MakeSpec("count", 1, "SELECT COUNT WINDOW 1000MS SLIDE 250MS"),
       MakeSpec("sum", 1, "SELECT SUM WINDOW 1000MS SLIDE 250MS"),
       MakeSpec("max", 1, "SELECT MAX WINDOW 500MS SLIDE 250MS")},
      &source);
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantEngine& engine = *mt.ValueOrDie();
  MultiTenantRunSummary run = engine.Run(5);

  ASSERT_EQ(run.tenants.size(), 3u);
  for (const TenantRunResult& tenant : run.tenants) {
    ASSERT_EQ(tenant.summary.batches.size(), 5u) << tenant.id;
    for (size_t b = 0; b < 5; ++b) {
      EXPECT_EQ(tenant.summary.batches[b].num_tuples,
                run.tenants[0].summary.batches[b].num_tuples)
          << tenant.id << " batch " << b;
      EXPECT_EQ(tenant.summary.batches[b].slots, 2u) << tenant.id;
    }
  }
  const auto& count = engine.window(0).Result();
  const auto& sum = engine.window(1).Result();
  ASSERT_FALSE(count.empty());
  ASSERT_EQ(sum.size(), count.size());
  for (const auto& [k, v] : count) EXPECT_DOUBLE_EQ(sum.at(k), v) << k;
  EXPECT_EQ(engine.window(2).window_batches(), 2u);
  ASSERT_FALSE(engine.window(2).Result().empty());
  for (const auto& [k, v] : engine.window(2).Result()) {
    EXPECT_DOUBLE_EQ(v, 1.0) << k;
  }
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

// A restart inside the first W heartbeats recovers every batch written so
// far: the store drops a batch only once it leaves its query's window, so
// after 2 heartbeats (fewer than either window: W = 5 and W = 3) both
// tenants recover 2 batches each and rebuild their windows exactly.
TEST(MultiTenantEngineTest, EarlyRestartRecoversEveryStoredBatch) {
  const std::string dir = ::testing::TempDir() + "/mt_early_restart";
  std::filesystem::remove_all(dir);
  MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/4);
  opts.store.dir = dir;
  TenantQuerySpec all =
      MakeSpec("all", 1, "SELECT COUNT WINDOW 1000MS SLIDE 200MS");
  all.technique = PartitionerType::kPrompt;
  TenantQuerySpec odd = MakeSpec(
      "odd", 1, "SELECT MAX WINDOW 600MS SLIDE 200MS", ModFilter(2, 1));
  odd.technique = PartitionerType::kPk2;

  std::vector<std::unordered_map<KeyId, double>> before;
  for (const bool restart : {false, true}) {
    auto source = MakeSource(12000, 1.1, 800, 31);
    auto mt = MultiTenantEngine::Create(opts, {all, odd}, source.get());
    ASSERT_TRUE(mt.ok()) << mt.status().message();
    MultiTenantEngine& engine = *mt.ValueOrDie();
    if (!restart) {
      engine.Run(2);
      for (size_t t = 0; t < engine.tenants(); ++t) {
        before.push_back(engine.window(t).Result());
      }
      continue;
    }
    EXPECT_EQ(engine.durable_recovery().batches_recovered, 4u);
    EXPECT_FALSE(engine.durable_recovery().data_loss);
    ASSERT_EQ(engine.tenants(), before.size());
    for (size_t t = 0; t < engine.tenants(); ++t) {
      EXPECT_FALSE(before[t].empty()) << "tenant " << t;
      EXPECT_EQ(engine.window(t).Result(), before[t]) << "tenant " << t;
    }
  }
  std::filesystem::remove_all(dir);
}

// Each trace record of a two-tenant run names its tenant right after the
// batch id: one record per tenant per heartbeat, in tenant order.
TEST(MultiTenantEngineTest, TraceRecordsNameTheirTenant) {
  auto source = MakeSource(20000, 1.1, 800, 5);
  // Declared before the engine, whose sink writes to it until destruction.
  std::ostringstream out;
  auto mt = MultiTenantEngine::Create(
      FastOptions(/*total_slots=*/4),
      {MakeSpec("even", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 0)),
       MakeSpec("odd", 3, "SELECT MAX WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 1))},
      source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantEngine& engine = *mt.ValueOrDie();
  engine.observability()->AddTraceSink(std::make_unique<JsonlTraceSink>(&out));
  engine.Run(3);

  std::istringstream lines(out.str());
  std::vector<std::string> records;
  for (std::string line; std::getline(lines, line);) records.push_back(line);
  ASSERT_EQ(records.size(), 6u);
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string prefix = "{\"batch_id\":" + std::to_string(i / 2) +
                               ",\"tenant\":\"" +
                               (i % 2 == 0 ? "even" : "odd") + "\",";
    EXPECT_EQ(records[i].rfind(prefix, 0), 0u) << records[i];
  }
}

// A multi-tenant run publishes every report on a tenant's labeled stream,
// so the registry holds none of the unlabeled per-report series.
TEST(MultiTenantEngineTest, MetricsRegisterNoUnlabeledReportSeries) {
  auto source = MakeSource(20000, 1.1, 800, 5);
  MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/4);
  opts.obs.metrics_enabled = true;
  auto mt = MultiTenantEngine::Create(
      opts,
      {MakeSpec("even", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 0)),
       MakeSpec("odd", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 1))},
      source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantEngine& engine = *mt.ValueOrDie();
  engine.Run(2);

  const MetricsRegistry* registry = engine.observability()->registry();
  ASSERT_NE(registry, nullptr);
  uint64_t labeled_batches = 0;
  for (const MetricSample& sample : registry->Snapshot()) {
    if (sample.name != "prompt_batches_total" &&
        sample.name != "prompt_tuples_total" &&
        sample.name != "prompt_batch_latency_us") {
      continue;
    }
    EXPECT_FALSE(sample.labels.empty()) << sample.FullName();
    if (sample.name == "prompt_batches_total") {
      labeled_batches += static_cast<uint64_t>(sample.value);
    }
  }
  EXPECT_EQ(labeled_batches, 4u);
}

// The telemetry server's accept thread scrapes while a kReal two-tenant run
// drives the pool: every scrape of /metrics, each tenant's time series and
// /healthz answers 200, and the final /healthz names the last batch.
TEST(MultiTenantEngineTest, RealModeExporterServesScrapesDuringRun) {
  constexpr uint32_t kBatches = 30;
  auto source = MakeSource(50000, 1.1, 2000, 17);
  MultiTenantEngineOptions opts = FastOptions(/*total_slots=*/4);
  opts.mode = ExecutionMode::kReal;
  opts.obs.serve_port = 0;
  auto mt = MultiTenantEngine::Create(
      opts,
      {MakeSpec("even", 1, "SELECT COUNT WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 0)),
       MakeSpec("odd", 3, "SELECT MAX WINDOW 600MS SLIDE 200MS",
                ModFilter(2, 1))},
      source.get());
  ASSERT_TRUE(mt.ok()) << mt.status().message();
  MultiTenantEngine& engine = *mt.ValueOrDie();
  const HttpExporter* exporter = engine.observability()->exporter();
  ASSERT_NE(exporter, nullptr);
  const uint16_t port = exporter->port();

  const std::vector<std::string> paths = {
      "/metrics", "/timeseries.json?tenant=even",
      "/timeseries.json?tenant=odd", "/healthz"};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> failures{0};
  std::thread scraper([&] {
    do {
      for (const std::string& path : paths) {
        const std::string response = HttpGet(port, path);
        scrapes.fetch_add(1);
        if (response.rfind("HTTP/1.1 200", 0) != 0) failures.fetch_add(1);
      }
    } while (!done.load(std::memory_order_acquire));
  });
  MultiTenantRunSummary run = engine.Run(kBatches);
  done.store(true, std::memory_order_release);
  scraper.join();

  ASSERT_EQ(run.tenants.size(), 2u);
  EXPECT_EQ(run.tenants[1].summary.batches.size(), kBatches);
  EXPECT_GE(scrapes.load(), paths.size());
  EXPECT_EQ(failures.load(), 0u);
  const std::string health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u) << health;
  EXPECT_NE(health.find("\"last_batch_id\":" + std::to_string(kBatches - 1)),
            std::string::npos)
      << health;
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("prompt_batches_total{tenant=\"odd\"} " +
                         std::to_string(kBatches)),
            std::string::npos);
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
