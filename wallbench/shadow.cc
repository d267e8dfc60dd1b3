// The traced run: a shadow of each engine loop that makes the same public
// calls the engine makes, in the engine's order, and records a span around
// each call. The engine's own sources (engine.cc Run/ProcessBatch,
// multi_tenant_engine.cc Create/Run/ProcessTenantBatch, prompt_partitioner.cc
// Seal) are the script this file follows; nothing under src/ is changed.
//
// Per-tuple calls (Accumulator::OnTuple, ParallelIngestPipeline::Ingest, the
// tenant fan-out) are spanned over the whole batch, or over chunks of it,
// because a clock read per tuple would cost as much as the call it times.
#include <algorithm>

#include "common/thread_pool.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "engine/cost_model.h"
#include "engine/execution.h"
#include "engine/serde.h"
#include "ingest/pipeline.h"
#include "obs/autopsy.h"
#include "replay/journal.h"
#include "stats/metrics.h"
#include "store/block_store.h"
#include "tenant/query_context.h"
#include "workloads.h"

namespace wallbench {

namespace {

using prompt::AccumulatedBatch;
using prompt::PartitionedBatch;
using prompt::PartitionPlan;

constexpr size_t kFanoutChunk = 4096;  // tuples per fan-out span

/// A query context as the engines build one (default map/reduce task counts,
/// kReal), with `partitioner`, and an executor whose Alg. 3 allocator spans
/// each Assign call.
std::unique_ptr<prompt::QueryContext> MakeContext(
    const prompt::TenantQuerySpec& spec,
    std::unique_ptr<prompt::BatchPartitioner> partitioner, SpanRecorder* rec) {
  prompt::QueryContextOptions qo;
  qo.mode = prompt::ExecutionMode::kReal;
  prompt::JobSpec job = spec.query.job;
  job.window_batches = spec.query.window_batches();
  auto ctx = std::make_unique<prompt::QueryContext>(
      spec.id, qo, std::move(job), std::move(partitioner), nullptr);
  ctx->allocator = std::make_unique<TimedAllocator>(rec);
  ctx->executor = std::make_unique<prompt::BatchExecutor>(
      ctx->job, prompt::CostModel(), ctx->allocator.get(), qo.mode);
  return ctx;
}

/// PromptPartitioner with its Seal taken apart, so that Accumulator::Seal,
/// BuildPromptPlan and MaterializePlan get their own spans. The engine
/// reaches the accumulator through BatchPartitioner::OnTuple; so does the
/// shadow, through this class, at the same per-tuple dispatch cost.
class SplitPromptPartitioner : public prompt::BatchPartitioner {
 public:
  const char* name() const override { return "Prompt"; }
  void Begin(uint32_t num_blocks, TimeMicros start, TimeMicros end) override {
    num_blocks_ = num_blocks;
    end_ = end;
    acc_->set_options(options_);
    acc_->Begin(start, end);
  }
  void OnTuple(const Tuple& t) override { acc_->OnTuple(t); }
  PartitionedBatch Seal(uint64_t batch_id) override {
    const AccumulatedBatch sealed = acc_->Seal();
    PartitionedBatch out = prompt::MaterializePlan(
        sealed, prompt::BuildPromptPlan(sealed, num_blocks_), num_blocks_);
    out.batch_id = batch_id;
    out.seal_time = end_;
    return out;
  }
  void UpdateEstimates(uint64_t estimated_tuples, uint64_t avg_keys) override {
    options_.estimated_tuples = std::max<uint64_t>(1, estimated_tuples);
    options_.avg_keys = std::max<uint64_t>(1, avg_keys);
  }

  /// Seal() with a span per stage.
  PartitionedBatch SealTraced(SpanRecorder* rec, uint64_t trace,
                              BatchCounts* counts) {
    AccumulatedBatch sealed;
    {
      SpanScope s(rec, kCoreSeal, trace);
      sealed = acc_->Seal();
    }
    return PlanAndMaterialize(sealed, num_blocks_, end_, rec, trace, counts);
  }

  /// Alg. 2 on a sealed (or sharded-merged) batch, a span per stage.
  static PartitionedBatch PlanAndMaterialize(const AccumulatedBatch& sealed,
                                             uint32_t num_blocks,
                                             TimeMicros end, SpanRecorder* rec,
                                             uint64_t trace,
                                             BatchCounts* counts) {
    PartitionPlan plan;
    {
      SpanScope s(rec, kCorePlan, trace);
      plan = prompt::BuildPromptPlan(sealed, num_blocks);
    }
    PartitionedBatch batch;
    {
      SpanScope s(rec, kCoreMaterialize, trace);
      batch = prompt::MaterializePlan(sealed, plan, num_blocks);
    }
    batch.seal_time = end;
    counts->keys = batch.num_keys;
    counts->split_keys = plan.split_keys;
    counts->fragments = plan.fragments;
    return batch;
  }

 private:
  std::unique_ptr<prompt::Accumulator> acc_ =
      prompt::MakeAccumulator(prompt::AccumulatorKind::kFlat);
  prompt::AccumulatorOptions options_;
  uint32_t num_blocks_ = 1;
  TimeMicros end_ = 0;
};

/// The engine's pull loop with its one-tuple lookahead across batches. It
/// pulls through the TupleSource interface, as the engine does (the feeder
/// type is final: a Feeder* would let the compiler inline Next()).
class Puller {
 public:
  explicit Puller(prompt::TupleSource* source) : source_(source) {}

  /// Feeds tuples with ts < end to sink; keeps the first later tuple.
  template <typename Sink>
  void Pull(TimeMicros end, Sink&& sink) {
    if (have_pending_ && pending_.ts < end) {
      sink(pending_);
      have_pending_ = false;
    }
    if (have_pending_) return;
    Tuple t;
    while (source_->Next(&t)) {
      if (t.ts >= end) {
        pending_ = t;
        have_pending_ = true;
        return;
      }
      sink(t);
    }
  }

  /// Copies up to `max` tuples with ts < end into `chunk`; false once the
  /// batch is exhausted and nothing was copied.
  bool PullChunk(TimeMicros end, size_t max, std::vector<Tuple>* chunk) {
    chunk->clear();
    if (done_) return false;
    if (have_pending_ && pending_.ts < end) {
      chunk->push_back(pending_);
      have_pending_ = false;
    }
    Tuple t;
    while (!have_pending_ && chunk->size() < max && source_->Next(&t)) {
      if (t.ts >= end) {
        pending_ = t;
        have_pending_ = true;
        break;
      }
      chunk->push_back(t);
    }
    if (have_pending_ || chunk->size() < max) done_ = true;
    return !chunk->empty();
  }
  void NewBatch() { done_ = false; }

 private:
  prompt::TupleSource* source_;
  Tuple pending_{};
  bool have_pending_ = false;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// MicroBatchEngine::Run + ProcessBatch (no store, no journal, obs off).

class ShadowSingle final : public EngineUnderTest {
 public:
  ShadowSingle(const Workload& w, const prompt::TenantQuerySpec& spec,
               prompt::TupleSource* source, SpanRecorder* rec,
               std::vector<BatchCounts>* counts)
      : rec_(rec),
        counts_(counts),
        puller_(source),
        split_(new SplitPromptPartitioner),
        ctx_(MakeContext(spec, std::unique_ptr<prompt::BatchPartitioner>(split_),
                         rec)),
        cores_(w.pool_threads),
        pool_(w.pool_threads) {
    if (w.ingest_shards > 1) {
      prompt::IngestOptions io;
      io.shards = w.ingest_shards;
      ingest_ = std::make_unique<prompt::ParallelIngestPipeline>(io);
    }
  }

  bool RunBatch() override {
    prompt::QueryContext& q = *ctx_;
    const uint64_t id = q.next_batch_id++;
    SpanScope root(rec_, kBatch, id);
    const TimeMicros start = next_start_;
    const TimeMicros end = start + kIntervalMicros;
    next_start_ = end;
    BatchCounts c;

    PartitionedBatch batch;
    if (ingest_ == nullptr) {
      {
        SpanScope s(rec_, kCoreAccumulate, id);
        q.partitioner->Begin(q.map_tasks, start, end);
        puller_.Pull(end, [&](const Tuple& t) { q.partitioner->OnTuple(t); });
      }
      batch = split_->SealTraced(rec_, id, &c);
    } else {
      {
        SpanScope s(rec_, kIngestRoute, id);
        q.partitioner->Begin(q.map_tasks, start, end);
        ingest_->BeginBatch(start, end);
        puller_.Pull(end, [&](const Tuple& t) { ingest_->Ingest(t); });
      }
      const AccumulatedBatch* merged = nullptr;
      {
        SpanScope s(rec_, kIngestSealMerge, id);
        merged = &ingest_->SealBatch();
      }
      batch = SplitPromptPartitioner::PlanAndMaterialize(*merged, q.map_tasks,
                                                         end, rec_, id, &c);
      const prompt::IngestMetrics& m = ingest_->last_metrics();
      c.shard_skew = prompt::ShardLoadImbalance(m);
      for (const prompt::ShardIngestStats& s : m.shards) {
        c.shard_seal_ms =
            std::max(c.shard_seal_ms, static_cast<double>(s.seal_latency) / 1e3);
      }
    }
    batch.batch_id = id;
    c.tuples = batch.num_tuples;

    prompt::BatchExecution exec;
    {
      SpanScope s(rec_, kEngineExecute, id);
      exec = q.executor->Execute(batch, q.reduce_tasks, cores_, &pool_);
    }
    {
      SpanScope s(rec_, kEngineWindow, id);
      q.window->AddBatch(std::move(exec.output));
    }
    q.ObserveBatchEstimates(batch.num_tuples, batch.num_keys);
    if (ingest_ != nullptr) {
      ingest_->UpdateEstimates(static_cast<uint64_t>(q.est_tuples),
                               static_cast<uint64_t>(q.est_keys));
    }
    c.window_keys = q.window->Result().size();
    counts_->push_back(c);
    return true;
  }

  const Answer& window(size_t) const override { return ctx_->window->Result(); }

 private:
  SpanRecorder* rec_;
  std::vector<BatchCounts>* counts_;
  Puller puller_;
  SplitPromptPartitioner* split_;  ///< owned by ctx_
  std::unique_ptr<prompt::QueryContext> ctx_;
  uint32_t cores_;
  prompt::ThreadPool pool_;
  std::unique_ptr<prompt::ParallelIngestPipeline> ingest_;
  TimeMicros next_start_ = 0;
};

// ---------------------------------------------------------------------------
// MultiTenantEngine::Create (store recovery) + Run + ProcessTenantBatch, at
// one ingest shard, with the durable store and the flight recorder.

class ShadowTenants final : public EngineUnderTest {
 public:
  struct Tenant {
    prompt::KeyFilter filter;
    std::unique_ptr<prompt::QueryContext> ctx;
    SplitPromptPartitioner* split = nullptr;  ///< ctx's partitioner, if Prompt
  };

  ShadowTenants(const Workload& w, std::vector<prompt::TenantQuerySpec> specs,
                prompt::TupleSource* source, SpanRecorder* rec,
                std::vector<BatchCounts>* counts)
      : rec_(rec), counts_(counts), puller_(source), slots_(w.pool_threads) {
    for (prompt::TenantQuerySpec& spec : specs) {
      Tenant t;
      t.filter = spec.filter;
      std::unique_ptr<prompt::BatchPartitioner> partitioner;
      if (spec.technique == prompt::PartitionerType::kPrompt) {
        t.split = new SplitPromptPartitioner;
        partitioner.reset(t.split);
      } else {
        partitioner = prompt::CreatePartitioner(spec.technique);
      }
      t.ctx = MakeContext(spec, std::move(partitioner), rec);
      spec_lines_.push_back(prompt::TenantSpecLine(spec));
      tenants_.push_back(std::move(t));
    }
  }

  /// Store recovery (as in MultiTenantEngine::Create), then the journal.
  bool Open(const RunDirs& dirs, std::string* error) {
    {
      SpanScope s(rec_, kStoreRecover, UINT64_MAX);
      prompt::StoreOptions so;
      so.dir = dirs.store;
      so.fsync = prompt::FsyncPolicy::kBatch;
      auto store = prompt::DurableBlockStore::Open(so);
      if (!store.ok()) {
        *error = store.status().ToString();
        return false;
      }
      store_ = std::move(store).ValueUnsafe();
      if (store_->recovery().torn_records > 0) {
        *error = "store recovery found torn records";
        return false;
      }
      uint64_t max_recovered = 0;
      bool any = false;
      for (size_t ti = 0; ti < tenants_.size(); ++ti) {
        Tenant& t = tenants_[ti];
        const uint32_t owner = static_cast<uint32_t>(ti);
        for (uint64_t id : store_->LiveBatches(owner)) {
          auto bytes = store_->Get(owner, id);
          auto decoded = bytes.ok() ? prompt::DecodeBatch(*bytes)
                                    : prompt::Result<PartitionedBatch>(
                                          bytes.status());
          if (!decoded.ok()) {
            *error = decoded.status().ToString();
            return false;
          }
          prompt::BatchExecution exec =
              t.ctx->executor->Execute(*decoded, t.ctx->reduce_tasks, slots_,
                                       nullptr);
          t.ctx->window->AddBatch(std::move(exec.output));
          max_recovered = std::max(max_recovered, id);
          any = true;
        }
      }
      if (any) {
        next_start_ = static_cast<TimeMicros>(max_recovered + 1) * kIntervalMicros;
        for (Tenant& t : tenants_) t.ctx->next_batch_id = max_recovered + 1;
      }
    }
    prompt::JournalOptions jo;
    jo.dir = dirs.journal;
    jo.fsync = prompt::FsyncPolicy::kBatch;
    prompt::JournalManifest manifest;
    manifest.Set("format", "prompt-journal-v1");
    manifest.Set("mode", "multi");
    for (const std::string& line : spec_lines_) manifest.Set("tenant", line);
    auto journal = prompt::JournalWriter::Open(jo, manifest);
    if (!journal.ok()) {
      *error = journal.status().ToString();
      return false;
    }
    journal_ = std::move(journal).ValueUnsafe();
    pool_ = std::make_unique<prompt::ThreadPool>(slots_);
    return true;
  }

  bool RunBatch() override {
    const uint64_t id = tenants_[0].ctx->next_batch_id;
    SpanScope root(rec_, kBatch, id);
    const TimeMicros start = next_start_;
    const TimeMicros end = start + kIntervalMicros;
    next_start_ = end;
    BatchCounts c;
    bool ok = true;

    {
      SpanScope fan(rec_, kTenantFanout, id);
      for (Tenant& t : tenants_) {
        t.ctx->partitioner->Begin(t.ctx->map_tasks, start, end);
      }
      // The engine fans each tuple out to every tenant in turn; the shadow
      // does the same per chunk, so each tenant's share gets its own span
      // while every tenant still sees the stream in order.
      puller_.NewBatch();
      while (puller_.PullChunk(end, kFanoutChunk, &chunk_)) {
        c.tuples += chunk_.size();
        {
          SpanScope s(rec_, kReplayAppend, id);
          for (const Tuple& t : chunk_) journal_->RecordTuple(t);
        }
        for (Tenant& t : tenants_) {
          const prompt::KeyFilter& filter = t.filter;
          prompt::BatchPartitioner& partitioner = *t.ctx->partitioner;
          SpanScope s(rec_, t.split != nullptr ? kCoreAccumulate : kBaselinesOnTuple,
                      id);
          for (const Tuple& tuple : chunk_) {
            if (filter.Matches(tuple.key)) partitioner.OnTuple(tuple);
          }
        }
      }
    }
    {
      SpanScope s(rec_, kReplayAppend, id);
      const uint64_t before = journal_->appended_bytes();
      ok &= journal_->AppendBatchTuples(id).ok();
      c.journal_bytes = journal_->appended_bytes() - before;
    }

    for (size_t ti = 0; ti < tenants_.size(); ++ti) {
      Tenant& t = tenants_[ti];
      const uint32_t owner = static_cast<uint32_t>(ti);
      PartitionedBatch batch;
      if (t.split != nullptr) {
        batch = t.split->SealTraced(rec_, id, &c);
      } else {
        SpanScope s(rec_, kBaselinesSeal, id);
        batch = t.ctx->partitioner->Seal(t.ctx->next_batch_id);
      }
      batch.batch_id = t.ctx->next_batch_id++;
      prompt::BatchEnv env;
      {
        SpanScope s(rec_, kReplayAppend, id);
        env = prompt::SettleBatchEnv(nullptr, owner, &batch, nullptr);
        ok &= journal_->AppendEnv(owner, env).ok();
      }
      std::string bytes;
      {
        SpanScope s(rec_, kStoreEncode, id);
        bytes = prompt::EncodeBatch(batch);
      }
      c.store_bytes += bytes.size();
      c.store_tuples += batch.num_tuples;
      {
        SpanScope s(rec_, kStoreAppend, id);
        ok &= store_->Put(owner, batch.batch_id, bytes).ok();
      }
      if (batch.batch_id >= t.ctx->window->depth()) {
        SpanScope s(rec_, kStoreEvict, id);
        ok &= store_->Evict(owner, batch.batch_id - t.ctx->window->depth())
                  .ok();
      }
      prompt::BatchExecution exec;
      {
        SpanScope s(rec_, kEngineExecute, id);
        exec = t.ctx->executor->Execute(batch, t.ctx->reduce_tasks, 1,
                                        pool_.get());
      }
      prompt::BatchReport report;
      report.batch_id = batch.batch_id;
      report.batch_interval = kIntervalMicros;
      report.num_tuples = batch.num_tuples;
      report.num_keys = batch.num_keys;
      report.map_tasks = static_cast<uint32_t>(batch.blocks.size());
      report.reduce_tasks = t.ctx->reduce_tasks;
      report.partition_cost = batch.partition_cost;
      report.map_makespan = exec.map_makespan;
      report.reduce_makespan = exec.reduce_makespan;
      report.processing_time = exec.map_makespan + exec.reduce_makespan;
      report.w = static_cast<double>(report.processing_time) /
                 static_cast<double>(kIntervalMicros);
      report.latency = kIntervalMicros + report.processing_time;
      {
        SpanScope s(rec_, kReplayAppend, id);
        report.output_hash = prompt::HashBatchOutput(exec.output);
      }
      {
        SpanScope s(rec_, kEngineWindow, id);
        t.ctx->window->AddBatch(std::move(exec.output));
      }
      prompt::BatchAutopsy autopsy;
      {
        SpanScope s(rec_, kObsAutopsy, id);
        autopsy = prompt::ExplainBatch(report, prompt::AutopsyOptions{});
      }
      {
        SpanScope s(rec_, kReplayAppend, id);
        ok &= journal_->AppendOutcome(owner, prompt::OutcomeFrom(report, autopsy))
                  .ok();
      }
      t.ctx->ObserveBatchEstimates(batch.num_tuples, batch.num_keys);
      c.window_keys += t.ctx->window->Result().size();
    }
    {
      SpanScope s(rec_, kStoreSync, id);
      ok &= store_->Sync().ok();
    }
    {
      SpanScope s(rec_, kReplaySync, id);
      ok &= journal_->SyncBatch().ok();
    }
    counts_->push_back(c);
    return ok;
  }

  const Answer& window(size_t query) const override {
    return tenants_[query].ctx->window->Result();
  }

 private:
  SpanRecorder* rec_;
  std::vector<BatchCounts>* counts_;
  Puller puller_;
  uint32_t slots_;
  std::vector<Tenant> tenants_;
  std::vector<std::string> spec_lines_;
  std::unique_ptr<prompt::DurableBlockStore> store_;
  std::unique_ptr<prompt::JournalWriter> journal_;
  std::unique_ptr<prompt::ThreadPool> pool_;
  std::vector<Tuple> chunk_;
  TimeMicros next_start_ = 0;
};

}  // namespace

std::unique_ptr<EngineUnderTest> MakeShadow(const Workload& w,
                                            prompt::TupleSource* source,
                                            const RunDirs& dirs,
                                            SpanRecorder* rec,
                                            std::vector<BatchCounts>* counts,
                                            std::string* error) {
  auto specs = ParseTenantSpecs(w);
  if (!specs.ok()) {
    *error = specs.status().ToString();
    return nullptr;
  }
  if (!w.multi_tenant) {
    return std::make_unique<ShadowSingle>(w, specs->front(), source, rec,
                                          counts);
  }
  auto shadow = std::make_unique<ShadowTenants>(w, std::move(*specs), source,
                                                rec, counts);
  if (!shadow->Open(dirs, error)) return nullptr;
  return shadow;
}

}  // namespace wallbench
