// Workload table and the real-engine side of the benchmark: MicroBatchEngine
// and MultiTenantEngine in ExecutionMode::kReal, pulled by the feeder.
#include <filesystem>

#include "engine/engine.h"
#include "tenant/multi_tenant_engine.h"
#include "workloads.h"

namespace wallbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the thread counts
// stay within nproc = 4 (4 shards + router on 4 vCPUs swung throughput by
// 15% from run to run).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;

    Workload wc;
    wc.name = "wordcount_z1";
    wc.stream = StreamSpec{50000, 1.0, 100000, /*tweet_groups=*/true, 1};
    wc.ingest_shards = 1;
    wc.pool_threads = 2;  // main + 2 pool threads
    wc.tenants = {{"TENANT wordcount WEIGHT 1 TECHNIQUE Prompt KEYS all "
                   "QUERY SELECT COUNT WINDOW 10S",
                   QuerySpec{Agg::kCount, 1, 0}}};
    all.push_back(wc);

    Workload hc;
    hc.name = "hicard_sharded";
    hc.stream = StreamSpec{1000000, 0.8, 50000, false, 50};
    hc.ingest_shards = 2;
    hc.pool_threads = 1;  // router + 2 shard workers + 1 pool thread
    hc.tenants = {{"TENANT keyedsum WEIGHT 1 TECHNIQUE Prompt KEYS all "
                   "QUERY SELECT SUM WINDOW 10S",
                   QuerySpec{Agg::kSum, 1, 0}}};
    all.push_back(hc);

    Workload td;
    td.name = "tenants_durable";
    td.stream = StreamSpec{100000, 1.0, 60000, false, 50};
    td.pool_threads = 3;  // main + 3 slots
    td.multi_tenant = true;
    td.tenants = {
        {"TENANT count WEIGHT 1 TECHNIQUE Prompt KEYS all "
         "QUERY SELECT COUNT WINDOW 10S",
         QuerySpec{Agg::kCount, 1, 0}},
        {"TENANT sum WEIGHT 1 TECHNIQUE Hash KEYS mod:2:0 "
         "QUERY SELECT SUM WINDOW 10S",
         QuerySpec{Agg::kSum, 2, 0}},
        {"TENANT max WEIGHT 1 TECHNIQUE PK2 KEYS mod:4:1 "
         "QUERY SELECT MAX WINDOW 10S",
         QuerySpec{Agg::kMax, 4, 1}},
    };
    // Recovery refills every window, so a few batches settle the buffers.
    td.warmup_batches = 4;
    all.push_back(td);
    return all;
  }();
  return kWorkloads;
}

prompt::MultiTenantEngineOptions TenantOptions(const Workload& w,
                                               const RunDirs& dirs) {
  prompt::MultiTenantEngineOptions o;
  o.batch_interval = kIntervalMicros;
  o.total_slots = w.pool_threads;
  o.mode = prompt::ExecutionMode::kReal;
  o.ingest.shards = w.ingest_shards;
  o.store.dir = dirs.store;
  o.store.fsync = prompt::FsyncPolicy::kBatch;
  o.journal.dir = dirs.journal;
  o.journal.fsync = prompt::FsyncPolicy::kBatch;
  return o;
}

class SingleEngine final : public EngineUnderTest {
 public:
  explicit SingleEngine(std::unique_ptr<prompt::MicroBatchEngine> engine)
      : engine_(std::move(engine)) {}

  bool RunBatch() override {
    const prompt::RunSummary s = engine_->Run(1);
    return engine_->init_status().ok() && !s.data_loss && !s.crashed &&
           s.batches.size() == 1 && !s.batches[0].unrecoverable;
  }
  const Answer& window(size_t) const override {
    return engine_->window().Result();
  }

 private:
  std::unique_ptr<prompt::MicroBatchEngine> engine_;
};

class TenantEngine final : public EngineUnderTest {
 public:
  explicit TenantEngine(std::unique_ptr<prompt::MultiTenantEngine> engine)
      : engine_(std::move(engine)) {}

  bool RunBatch() override {
    const prompt::MultiTenantRunSummary run = engine_->Run(1);
    bool ok = !engine_->durable_recovery().data_loss &&
              run.tenants.size() == engine_->tenants();
    for (const prompt::TenantRunResult& t : run.tenants) {
      ok = ok && t.summary.batches.size() == 1 && !t.summary.data_loss &&
           !t.summary.batches[0].unrecoverable;
    }
    return ok;
  }
  const Answer& window(size_t query) const override {
    return engine_->window(query).Result();
  }

 private:
  std::unique_ptr<prompt::MultiTenantEngine> engine_;
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.push_back(w.name);
  return names;
}

prompt::Result<std::vector<prompt::TenantQuerySpec>> ParseTenantSpecs(
    const Workload& w) {
  std::string text;
  for (const TenantDef& t : w.tenants) text += t.spec_line + "\n";
  return prompt::ParseQueryFile(text);
}

std::unique_ptr<EngineUnderTest> MakeEngine(const Workload& w,
                                            prompt::TupleSource* source,
                                            const RunDirs& dirs,
                                            std::string* error) {
  auto specs = ParseTenantSpecs(w);
  if (!specs.ok()) {
    *error = specs.status().ToString();
    return nullptr;
  }
  if (w.multi_tenant) {
    auto engine = prompt::MultiTenantEngine::Create(
        TenantOptions(w, dirs), std::move(*specs), source);
    if (!engine.ok()) {
      *error = engine.status().ToString();
      return nullptr;
    }
    if ((*engine)->durable_recovery().data_loss) {
      *error = "store recovery reported data loss";
      return nullptr;
    }
    return std::make_unique<TenantEngine>(std::move(engine).ValueUnsafe());
  }
  prompt::TenantQuerySpec& spec = specs->front();
  prompt::EngineOptions o;
  o.batch_interval = kIntervalMicros;
  o.mode = prompt::ExecutionMode::kReal;
  o.cores = w.pool_threads;
  o.ingest.shards = w.ingest_shards;
  prompt::JobSpec job = spec.query.job;
  job.window_batches = spec.query.window_batches();
  auto engine = std::make_unique<prompt::MicroBatchEngine>(
      o, std::move(job), prompt::CreatePartitioner(spec.technique), source);
  if (!engine->init_status().ok()) {
    *error = engine->init_status().ToString();
    return nullptr;
  }
  return std::make_unique<SingleEngine>(std::move(engine));
}

bool WriteEarlierStore(const Workload& w, const BatchGenerator& gen,
                       const RunDirs& dirs, uint32_t batches,
                       std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dirs.store, ec);
  std::filesystem::remove_all(dirs.journal, ec);
  Feeder feeder(&gen, 0);
  std::unique_ptr<EngineUnderTest> earlier = MakeEngine(w, &feeder, dirs, error);
  if (earlier == nullptr) return false;
  for (uint32_t i = 0; i < batches; ++i) {
    feeder.Prepare();
    if (!earlier->RunBatch()) {
      *error = "earlier engine failed a batch";
      return false;
    }
  }
  return true;
}

}  // namespace wallbench
