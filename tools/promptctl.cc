// promptctl — run a streaming query on any dataset with any partitioning
// technique and print the per-batch report plus the windowed answer.
//
//   promptctl --dataset=Tweets --technique=Prompt --rate=8000
//             --interval_ms=1000 --batches=20 --tasks=16
//             --query="SELECT COUNT TOP 10 WINDOW 10S"
//
//   promptctl --list                     # datasets and techniques
//   promptctl --technique=cAM --elastic  # Alg. 4 elasticity on
//
// Fault injection (enables cluster mode):
//   --fault_schedule="kill:2@5.map;revive:2@9"   seeded, deterministic
//   --nodes=4 --cores_per_node=4 --replication=2 cluster shape
//
// Observability:
//   --trace_out=trace.jsonl    one structured trace per batch (spans for
//                              accumulate/seal/merge/plan/map/reduce)
//   --metrics_every=N          metrics snapshot every N batches (stdout, or
//                              --metrics_out=metrics.jsonl for a file)
//   --serve_metrics_port=9464  live /metrics + /timeseries.json + /healthz
//                              on 127.0.0.1 (0 = pick a free port);
//                              --serve_hold_ms keeps serving after the run
//   --explain=N                per-cause autopsy of batch N after the run
//   --autopsy_out=a.jsonl      one autopsy record per batch
//
// Durability (src/store/, enables cluster mode):
//   --store_dir=DIR            append-only durable block store; on start the
//                              engine recovers surviving in-window batches
//   --fsync=never|batch|always when appends reach disk (default: batch)
//   --memory_budget_mb=N       per-node cap on in-memory replicas; older
//                              durably-stored batches spill past it (0 = off)
//   --recover_only             recover from --store_dir, print the recovered
//                              window's TOP-K and exit without new batches
//   --crash_after=N            process N batches then die by SIGKILL — the
//                              crash half of a kill/restart drill (pair the
//                              restart with --recover_only)
//
// Adaptive technique switching (src/adapt/):
//   --adaptive                           telemetry-driven switching across
//                                        the candidate ladder
//   --adapt_candidates=Hash,PK2,Prompt   ladder, cheapest→most robust
//   --adapt_d=3                          consecutive batches before a switch
//
// Multi-tenant serving (src/tenant/):
//   --queries=examples/two_tenants.query N tenant specs share one ingest
//                                        stream; --tasks is the slot pool a
//                                        weighted-fair scheduler divides each
//                                        heartbeat. Per-tenant autopsy rows
//                                        (--autopsy_out) carry a `tenant`
//                                        column; the telemetry server adds
//                                        /tenants.json and
//                                        /timeseries.json?tenant=<id>. The
//                                        query, technique, adaptive, fault,
//                                        cluster, elastic, crash-drill,
//                                        --explain and --csv flags exit 1
//                                        here.
//
// Flight recorder (src/replay/):
//   --record=DIR               journal the run (tuples, outcomes, switches,
//                              faults, wall-clock inputs) for replay
//   --replay=DIR               re-run a journal bit-identically, re-record
//                              it (into --record, or DIR.replay) and verify;
//                              exit 4 if any batch diverged
//   --diff=DIRA,DIRB           compare two journals; prints the first
//                              divergent batch with a per-field delta
//                              table; exit 4 on divergence
//   --scenario=NAME            replace --dataset with a stress preset
//                              (diurnal, flash_crowd, vocab_churn) or
//                              replay:<dir> (a journal's captured stream)
//
// Store retention (with --store_dir):
//   --retain_batches=N         keep at most N newest batches per owner
//   --retain_bytes=N           cap the on-disk segment bytes (oldest
//                              batches expire first; the newest survives)
//
// Heavy-hitter mode (DESIGN.md §17):
//   --key_mode=exact|sketch    sketch bounds per-key ingest state to
//                              O(sketch capacity): heavy hitters get exact
//                              counters, the tail flows through hash
//                              buckets. Per-batch `cov` column = fraction
//                              of tuples on exactly-tracked keys; the run
//                              footer prints mean coverage + peak RSS.
//   --sketch_capacity=N        Space-Saving entries per shard (default 4096)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "baselines/factory.h"
#include "common/flags.h"
#include "engine/engine.h"
#include "engine/report_io.h"
#include "obs/sink.h"
#include "query/multi_query.h"
#include "query/parser.h"
#include "replay/diff.h"
#include "replay/replayer.h"
#include "tenant/multi_tenant_engine.h"
#include "workload/scenarios.h"
#include "workload/sources.h"

using namespace prompt;

namespace {

int ListOptions() {
  std::printf("datasets:   Tweets SynD DEBS GCM TPC-H\n");
  std::printf("techniques:");
  for (PartitionerType type :
       {PartitionerType::kTimeBased, PartitionerType::kShuffle,
        PartitionerType::kHash, PartitionerType::kPk2, PartitionerType::kPk5,
        PartitionerType::kCam, PartitionerType::kPrompt,
        PartitionerType::kPromptPostSort, PartitionerType::kFfd,
        PartitionerType::kFragMin, PartitionerType::kSketch}) {
    std::printf(" %s", PartitionerTypeName(type));
  }
  std::printf("\n");
  return 0;
}

Result<DatasetId> DatasetFromName(const std::string& name) {
  if (name == "Tweets") return DatasetId::kTweets;
  if (name == "SynD") return DatasetId::kSynD;
  if (name == "DEBS") return DatasetId::kDebs;
  if (name == "GCM") return DatasetId::kGcm;
  if (name == "TPC-H" || name == "TPCH") return DatasetId::kTpch;
  return Status::Invalid("unknown dataset: " + name);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "promptctl: %s\n", status.ToString().c_str());
  return 1;
}

/// Peak resident set size of this process, in bytes (0 where unsupported).
/// The heavy-hitter smoke in ci.sh budgets this: sketch mode must hold a
/// 1M-key stream without exact-mode's O(distinct keys) table.
size_t PeakRssBytes() {
#ifdef __linux__
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    size_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
    }
    std::fclose(f);
    return kb * 1024;
  }
#endif
  return 0;
}

/// Mean head coverage over a run's batches (sketch mode only; exact batches
/// report 1.0 and are skipped so mixed runs stay meaningful).
double MeanHeadCoverage(const std::vector<BatchReport>& batches) {
  double sum = 0;
  size_t n = 0;
  for (const BatchReport& b : batches) {
    if (!b.sketch.sketch_mode) continue;
    sum += b.sketch.head_coverage();
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// --diff mode: compare two journal directories, print the first divergent
/// batch's delta table. Exit 0 identical, 4 divergent, 1 on read errors.
int RunDiff(const std::string& spec) {
  const size_t comma = spec.find(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 == spec.size()) {
    return Fail(Status::Invalid("--diff wants two directories: dirA,dirB"));
  }
  auto a = ReadJournal(spec.substr(0, comma));
  if (!a.ok()) return Fail(a.status());
  auto b = ReadJournal(spec.substr(comma + 1));
  if (!b.ok()) return Fail(b.status());
  const JournalDiff diff = DiffJournals(*a, *b);
  WriteDiffText(diff, &std::cout);
  return diff.identical ? 0 : 4;
}

/// --replay mode: drive fresh engines over a journal's attempts, re-record,
/// and verify the rerun against the recording. Exit 4 if anything diverged.
int RunReplay(const std::string& journal_dir, const std::string& record_dir) {
  ReplayOptions options;
  options.journal_dir = journal_dir;
  options.output_dir =
      record_dir.empty() ? journal_dir + ".replay" : record_dir;
  auto result = ReplayJournal(options);
  if (!result.ok()) return Fail(result.status());
  std::printf("replayed %s (%s mode): %llu attempt(s), %llu batch(es), "
              "re-recorded into %s\n",
              journal_dir.c_str(), result->mode.c_str(),
              static_cast<unsigned long long>(result->attempts),
              static_cast<unsigned long long>(result->batches),
              options.output_dir.c_str());
  if (!result->manifest_match) {
    std::printf("MANIFEST MISMATCH: the replayed engine options do not "
                "round-trip\n");
  }
  WriteDiffText(result->diff, &std::cout);
  return result->BitIdentical() ? 0 : 4;
}

/// --queries mode: N tenant specs multiplexed over one shared stream by the
/// weighted-fair TenantScheduler (src/tenant/).
int RunMultiTenant(const std::string& queries_path, DatasetId dataset,
                   double rate, int batches, int tasks, double zipf,
                   double scale, int seed, int ingest_shards,
                   KeyMode key_mode, int sketch_capacity, double map_us,
                   bool metrics, int metrics_every,
                   const std::string& metrics_path,
                   int serve_port, int serve_hold_ms,
                   const std::string& autopsy_path,
                   const std::string& trace_path,
                   const StoreOptions& store, const std::string& scenario_spec,
                   const std::string& record_dir) {
  auto specs = LoadQueryFile(queries_path);
  if (!specs.ok()) return Fail(specs.status());

  const TimeMicros slide = (*specs)[0].query.slide;
  auto profile = std::make_shared<SinusoidalRate>(rate, 0.3, 4 * slide);
  auto source = MakeDataset(dataset, profile, static_cast<uint64_t>(seed),
                            zipf, scale);
  if (!scenario_spec.empty()) {
    auto scenario =
        MakeScenario(scenario_spec, rate, static_cast<uint64_t>(seed));
    if (!scenario.ok()) return Fail(scenario.status());
    source = std::move(scenario->source);
  }

  MultiTenantEngineOptions options;
  options.batch_interval = slide;
  options.total_slots = static_cast<uint32_t>(tasks);
  options.map_tasks = static_cast<uint32_t>(tasks);
  options.reduce_tasks = static_cast<uint32_t>(tasks);
  options.ingest.shards = static_cast<uint32_t>(ingest_shards);
  options.ingest.key_mode = key_mode;
  if (sketch_capacity > 0) {
    options.ingest.accumulator_options.sketch.capacity =
        static_cast<size_t>(sketch_capacity);
  }
  options.cost.map_per_tuple_us = map_us;
  options.cost.map_per_key_us = map_us / 4;
  options.cost.reduce_per_tuple_us = map_us / 8;
  options.cost.reduce_per_cluster_us = map_us * 2;
  options.cost.map_task_fixed_us = 2000;
  options.cost.reduce_task_fixed_us = 2000;
  options.obs.collect_partition_metrics = metrics;
  options.obs.metrics_every = static_cast<uint32_t>(metrics_every);
  options.obs.metrics_path = metrics_path;
  options.obs.serve_port = serve_port;
  options.obs.autopsy_path = autopsy_path;
  options.obs.trace_path = trace_path;
  // The straggler/split-key rules read the partition-metrics pass.
  if (!autopsy_path.empty()) options.obs.collect_partition_metrics = true;

  options.store = store;
  options.journal.dir = record_dir;

  auto engine = MultiTenantEngine::Create(options, *specs, source.get());
  if (!engine.ok()) return Fail(engine.status());
  MultiTenantEngine& mt = **engine;
  if (const Status& st = mt.observability()->init_status(); !st.ok()) {
    return Fail(st);
  }
  if (store.enabled() && mt.durable_recovery().batches_recovered > 0) {
    std::printf("durable store: recovered %llu batch(es) from %s%s\n",
                static_cast<unsigned long long>(
                    mt.durable_recovery().batches_recovered),
                store.dir.c_str(),
                mt.durable_recovery().data_loss ? "  DATA LOSS" : "");
  }

  if (const HttpExporter* exporter = mt.observability()->exporter();
      exporter != nullptr) {
    std::printf("serving telemetry on http://127.0.0.1:%u  "
                "(/metrics /tenants.json /timeseries.json?tenant=<id>)\n",
                exporter->port());
  }
  std::printf("dataset=%s rate=%.0f/s interval=%lldms slots=%d tenants=%zu\n",
              DatasetName(dataset), rate,
              static_cast<long long>(slide / 1000), tasks, mt.tenants());

  MultiTenantRunSummary summary = mt.Run(static_cast<uint32_t>(batches));

  bool all_stable = true;
  for (size_t t = 0; t < summary.tenants.size(); ++t) {
    const TenantRunResult& result = summary.tenants[t];
    const TenantQuerySpec& spec = (*specs)[t];
    std::printf("\ntenant %s  weight=%u keys=%s query=\"%s\"\n",
                result.id.c_str(), spec.weight,
                spec.filter.ToString().c_str(), spec.query.text.c_str());
    TableSink table(&std::cout, /*column_width=*/10);
    for (const BatchReport& b : result.summary.batches) {
      Record row;
      row.Set("batch", b.batch_id)
          .Set("tuples", b.num_tuples)
          .Set("keys", b.num_keys)
          .Set("proc_ms", static_cast<double>(b.processing_time) / 1000.0)
          .Set("W", b.w)
          .Set("lat_ms", static_cast<double>(b.latency) / 1000.0);
      if (spec.adaptive) {
        row.Set("tech", b.technique >= 0
                            ? PartitionerTypeName(
                                  static_cast<PartitionerType>(b.technique))
                            : "?");
      }
      table.Write(row);
    }

    const uint32_t k = spec.query.top_k > 0 ? spec.query.top_k : 5;
    std::printf("top-%u keys in %s's window:\n", k, result.id.c_str());
    for (const KV& kv : mt.window(t).TopK(k)) {
      std::printf("  %016llx  %.2f\n",
                  static_cast<unsigned long long>(kv.key), kv.value);
    }
    std::printf("%s: slots=%llu mean W=%.2f  %s\n", result.id.c_str(),
                static_cast<unsigned long long>(result.slots_granted),
                result.summary.MeanW(2),
                result.summary.stable
                    ? "stable"
                    : "UNSTABLE (back-pressure would engage)");
    all_stable = all_stable && result.summary.stable;
    for (const RunSummary::TechniqueSwitch& s :
         result.summary.technique_switches) {
      std::printf("  after batch %llu: %s -> %s (%s)\n",
                  static_cast<unsigned long long>(s.after_batch),
                  PartitionerTypeName(s.from), PartitionerTypeName(s.to),
                  s.reason.c_str());
    }
  }
  if (!autopsy_path.empty()) {
    std::printf("\n(wrote per-tenant autopsy rows to %s)\n",
                autopsy_path.c_str());
  }
  if (!trace_path.empty()) {
    // One record per tenant per heartbeat, in tenant order.
    size_t traces = 0;
    for (const TenantRunResult& result : summary.tenants) {
      traces += result.summary.batches.size();
    }
    std::printf("\n(wrote %zu batch traces to %s)\n", traces,
                trace_path.c_str());
  }
  if (!record_dir.empty()) {
    std::printf("(recorded run journal to %s — promptctl --replay=%s)\n",
                record_dir.c_str(), record_dir.c_str());
  }
  if (mt.observability()->exporter() != nullptr && serve_hold_ms > 0) {
    std::printf("holding telemetry server for %dms...\n", serve_hold_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(serve_hold_ms));
  }
  return all_stable ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("list", false).ValueOr(false)) return ListOptions();

  auto dataset = DatasetFromName(flags.GetString("dataset", "SynD"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto technique = PartitionerTypeFromName(flags.GetString("technique", "Prompt"));
  if (!technique.ok()) return Fail(technique.status());
  auto rate = flags.GetDouble("rate", 8000);
  if (!rate.ok()) return Fail(rate.status());
  auto interval_ms = flags.GetInt("interval_ms", 1000);
  if (!interval_ms.ok()) return Fail(interval_ms.status());
  auto batches = flags.GetInt("batches", 20);
  if (!batches.ok()) return Fail(batches.status());
  auto tasks = flags.GetInt("tasks", 16);
  if (!tasks.ok()) return Fail(tasks.status());
  auto zipf = flags.GetDouble("zipf", 1.0);
  if (!zipf.ok()) return Fail(zipf.status());
  auto scale = flags.GetDouble("cardinality_scale", 0.02);
  if (!scale.ok()) return Fail(scale.status());
  auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());
  auto ingest_shards = flags.GetInt("ingest_shards", 1);
  if (!ingest_shards.ok()) return Fail(ingest_shards.status());
  if (*ingest_shards < 1) {
    return Fail(Status::Invalid("--ingest_shards must be >= 1"));
  }
  const std::string key_mode_name = flags.GetString("key_mode", "exact");
  KeyMode key_mode = KeyMode::kExact;
  if (!ParseKeyMode(key_mode_name, &key_mode)) {
    return Fail(Status::Invalid("--key_mode must be 'exact' or 'sketch'"));
  }
  auto sketch_capacity = flags.GetInt("sketch_capacity", 0);
  if (!sketch_capacity.ok()) return Fail(sketch_capacity.status());
  if (*sketch_capacity < 0) {
    return Fail(Status::Invalid("--sketch_capacity must be >= 0"));
  }
  auto elastic = flags.GetBool("elastic", false);
  if (!elastic.ok()) return Fail(elastic.status());
  auto adaptive = flags.GetBool("adaptive", false);
  if (!adaptive.ok()) return Fail(adaptive.status());
  const std::string adapt_candidates =
      flags.GetString("adapt_candidates", "Hash,PK2,Prompt");
  auto adapt_d = flags.GetInt("adapt_d", 3);
  if (!adapt_d.ok()) return Fail(adapt_d.status());
  if (*adapt_d < 1) return Fail(Status::Invalid("--adapt_d must be >= 1"));
  auto metrics = flags.GetBool("metrics", false);
  if (!metrics.ok()) return Fail(metrics.status());
  // Virtual cost of one tuple's Map work (µs); scales all other cost-model
  // terms proportionally so W is meaningful at CLI scales.
  auto map_us = flags.GetDouble("map_us", 200);
  if (!map_us.ok()) return Fail(map_us.status());
  auto metrics_every = flags.GetInt("metrics_every", 0);
  if (!metrics_every.ok()) return Fail(metrics_every.status());
  if (*metrics_every < 0) {
    return Fail(Status::Invalid("--metrics_every must be >= 0"));
  }
  auto serve_port = flags.GetInt("serve_metrics_port", -1);
  if (!serve_port.ok()) return Fail(serve_port.status());
  if (*serve_port > 65535) {
    return Fail(Status::Invalid("--serve_metrics_port must be <= 65535"));
  }
  auto serve_hold_ms = flags.GetInt("serve_hold_ms", 0);
  if (!serve_hold_ms.ok()) return Fail(serve_hold_ms.status());
  auto explain_batch = flags.GetInt("explain", -1);
  if (!explain_batch.ok()) return Fail(explain_batch.status());
  const std::string autopsy_path = flags.GetString("autopsy_out", "");
  const std::string trace_path = flags.GetString("trace_out", "");
  const std::string metrics_path = flags.GetString("metrics_out", "");
  const std::string csv_path = flags.GetString("csv", "");
  const std::string fault_spec = flags.GetString("fault_schedule", "");
  auto nodes = flags.GetInt("nodes", 4);
  if (!nodes.ok()) return Fail(nodes.status());
  auto cores_per_node = flags.GetInt("cores_per_node", 4);
  if (!cores_per_node.ok()) return Fail(cores_per_node.status());
  auto replication = flags.GetInt("replication", 2);
  if (!replication.ok()) return Fail(replication.status());
  auto cluster = flags.GetBool("cluster", false);
  if (!cluster.ok()) return Fail(cluster.status());
  const std::string query_text =
      flags.GetString("query", "SELECT COUNT TOP 10 WINDOW 10S");
  const std::string queries_path = flags.GetString("queries", "");
  const std::string store_dir = flags.GetString("store_dir", "");
  auto fsync = ParseFsyncPolicy(flags.GetString("fsync", "batch"));
  if (!fsync.ok()) return Fail(fsync.status());
  auto memory_budget_mb = flags.GetInt("memory_budget_mb", 0);
  if (!memory_budget_mb.ok()) return Fail(memory_budget_mb.status());
  if (*memory_budget_mb < 0) {
    return Fail(Status::Invalid("--memory_budget_mb must be >= 0"));
  }
  auto recover_only = flags.GetBool("recover_only", false);
  if (!recover_only.ok()) return Fail(recover_only.status());
  auto crash_after = flags.GetInt("crash_after", -1);
  if (!crash_after.ok()) return Fail(crash_after.status());
  if ((*recover_only || *crash_after >= 0) && store_dir.empty()) {
    return Fail(Status::Invalid(
        "--recover_only/--crash_after need --store_dir (nothing durable "
        "survives a crash without it)"));
  }
  auto retain_bytes = flags.GetInt("retain_bytes", 0);
  if (!retain_bytes.ok()) return Fail(retain_bytes.status());
  auto retain_batches = flags.GetInt("retain_batches", 0);
  if (!retain_batches.ok()) return Fail(retain_batches.status());
  if (*retain_bytes < 0 || *retain_batches < 0) {
    return Fail(Status::Invalid("--retain_bytes/--retain_batches must be >= 0"));
  }
  const std::string record_dir = flags.GetString("record", "");
  const std::string replay_dir = flags.GetString("replay", "");
  const std::string diff_spec = flags.GetString("diff", "");
  const std::string scenario_spec = flags.GetString("scenario", "");
  StoreOptions store_options;
  store_options.dir = store_dir;
  store_options.fsync = *fsync;
  store_options.memory_budget_bytes =
      static_cast<size_t>(*memory_budget_mb) << 20;
  store_options.retain_bytes = static_cast<size_t>(*retain_bytes);
  store_options.retain_batches = static_cast<uint64_t>(*retain_batches);
  for (const std::string& unknown : flags.UnknownFlags()) {
    std::fprintf(stderr, "promptctl: unknown flag --%s (try --list)\n",
                 unknown.c_str());
    return 1;
  }

  if (!diff_spec.empty()) return RunDiff(diff_spec);
  if (!replay_dir.empty()) return RunReplay(replay_dir, record_dir);

  if (!queries_path.empty()) {
    // Multi-tenant serving: the spec file replaces the query, technique and
    // adaptive flags, and the multi-tenant options do not expose faults,
    // cluster mode, elasticity, crash drills or the single-query report
    // outputs yet. A flag that would be dropped is an error instead.
    for (const char* name :
         {"query", "interval_ms", "technique", "adaptive", "adapt_candidates",
          "adapt_d", "elastic", "fault_schedule", "cluster", "nodes",
          "cores_per_node", "replication", "crash_after", "recover_only",
          "explain", "csv"}) {
      if (flags.Has(name)) {
        return Fail(Status::Invalid(std::string("--") + name +
                                    " is not supported with --queries"));
      }
    }
    return RunMultiTenant(queries_path, *dataset, *rate, *batches, *tasks,
                          *zipf, *scale, *seed, *ingest_shards, key_mode,
                          *sketch_capacity, *map_us, *metrics,
                          *metrics_every, metrics_path, *serve_port,
                          *serve_hold_ms, autopsy_path, trace_path,
                          store_options, scenario_spec, record_dir);
  }

  auto query = ParseQuery(query_text);
  if (!query.ok()) return Fail(query.status());
  if (query->slide != Millis(*interval_ms)) {
    // The slide is the batch interval; keep them consistent.
    std::fprintf(stderr,
                 "note: query SLIDE %lldms overrides --interval_ms\n",
                 static_cast<long long>(query->slide / 1000));
  }

  auto profile = std::make_shared<SinusoidalRate>(*rate, 0.3,
                                                  4 * query->slide);
  auto source = MakeDataset(*dataset, profile, static_cast<uint64_t>(*seed),
                            *zipf, *scale);
  if (!scenario_spec.empty()) {
    auto scenario =
        MakeScenario(scenario_spec, *rate, static_cast<uint64_t>(*seed));
    if (!scenario.ok()) return Fail(scenario.status());
    source = std::move(scenario->source);
  }

  EngineOptions options;
  options.batch_interval = query->slide;
  options.map_tasks = static_cast<uint32_t>(*tasks);
  options.reduce_tasks = static_cast<uint32_t>(*tasks);
  options.cores = static_cast<uint32_t>(*tasks);
  options.obs.collect_partition_metrics = *metrics;
  options.obs.trace_path = trace_path;
  options.obs.metrics_every = static_cast<uint32_t>(*metrics_every);
  options.obs.metrics_path = metrics_path;
  options.obs.serve_port = *serve_port;
  options.obs.autopsy_path = autopsy_path;
  // The straggler/split-key rules read the partition-metrics pass.
  if (*explain_batch >= 0 || !autopsy_path.empty()) {
    options.obs.collect_partition_metrics = true;
  }
  options.ingest.shards = static_cast<uint32_t>(*ingest_shards);
  options.ingest.key_mode = key_mode;
  if (*sketch_capacity > 0) {
    options.ingest.accumulator_options.sketch.capacity =
        static_cast<size_t>(*sketch_capacity);
  }
  PartitionerConfig partitioner_config;
  // adapt.config is also what the flight recorder's manifest records as the
  // construction config, so keep it literally the config passed to
  // CreatePartitioner below.
  options.adapt.config = partitioner_config;
  options.cost.map_per_tuple_us = *map_us;
  options.cost.map_per_key_us = *map_us / 4;
  options.cost.reduce_per_tuple_us = *map_us / 8;
  options.cost.reduce_per_cluster_us = *map_us * 2;
  options.cost.map_task_fixed_us = 2000;
  options.cost.reduce_task_fixed_us = 2000;
  options.use_prompt_reduce = *technique == PartitionerType::kPrompt ||
                              *technique == PartitionerType::kPromptPostSort;
  if (*adaptive) {
    options.adapt.enabled = true;
    options.adapt.d = *adapt_d;
    options.adapt.candidates.clear();
    std::string rest = adapt_candidates;
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      const std::string token = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (token.empty()) continue;
      auto candidate = PartitionerTypeFromName(token);
      if (!candidate.ok()) return Fail(candidate.status());
      options.adapt.candidates.push_back(*candidate);
    }
    if (options.adapt.candidates.empty()) {
      return Fail(Status::Invalid("--adapt_candidates must name >= 1 technique"));
    }
    if (std::find(options.adapt.candidates.begin(),
                  options.adapt.candidates.end(),
                  *technique) == options.adapt.candidates.end()) {
      return Fail(Status::Invalid(
          std::string("--technique=") + PartitionerTypeName(*technique) +
          " must be one of --adapt_candidates=" + adapt_candidates));
    }
    // The reduce allocator stays fixed across switches (only the batching
    // technique adapts); Worst-Fit handles every candidate's buckets well.
    options.use_prompt_reduce = true;
  }
  if (*elastic) {
    options.elasticity_enabled = true;
    options.cores_track_tasks = true;
    options.elasticity.max_map_tasks = 256;
    options.elasticity.max_reduce_tasks = 256;
  }
  if (!fault_spec.empty()) {
    auto faults = ParseFaultSchedule(fault_spec);
    if (!faults.ok()) return Fail(faults.status());
    options.faults = *faults;
  }
  if (*cluster || !fault_spec.empty() || store_options.enabled()) {
    // Fault injection targets nodes and the durable store backs the node
    // replica tier, so either one implies cluster mode.
    options.cluster_enabled = true;
    options.cluster.nodes = static_cast<uint32_t>(*nodes);
    options.cluster.cores_per_node = static_cast<uint32_t>(*cores_per_node);
    options.cluster.replication_factor = static_cast<uint32_t>(*replication);
    options.cores = options.cluster.nodes * options.cluster.cores_per_node;
  }
  options.store = store_options;
  if (!record_dir.empty()) {
    options.journal.dir = record_dir;
    // Journaling the query text lets replay rebuild the job (map/reduce
    // logic, window, top-k) instead of assuming word count.
    options.journal.query = query_text;
  }

  MicroBatchEngine engine(options, query->job,
                          CreatePartitioner(*technique, partitioner_config),
                          source.get());
  if (const Status& st = engine.observability()->init_status(); !st.ok()) {
    return Fail(st);
  }
  if (const Status& st = engine.init_status(); !st.ok()) {
    // A requested --store_dir that cannot be opened must never silently
    // degrade to memory-only (or report a crash drill as "recovered 0").
    return Fail(st);
  }
  if (store_options.enabled()) {
    const MicroBatchEngine::DurableRecovery& rec = engine.durable_recovery();
    if (rec.batches_recovered > 0 || *recover_only) {
      std::printf("durable store: recovered %llu batch(es)",
                  static_cast<unsigned long long>(rec.batches_recovered));
      if (rec.batches_recovered > 0) {
        std::printf(" [%llu..%llu]",
                    static_cast<unsigned long long>(rec.first_recovered_batch),
                    static_cast<unsigned long long>(rec.last_recovered_batch));
      }
      std::printf(" torn_records=%llu%s\n",
                  static_cast<unsigned long long>(rec.torn_records),
                  rec.data_loss ? "  DATA LOSS" : "");
    }
  }
  if (*recover_only) {
    // Restart half of a crash drill: the constructor already replayed the
    // store into the window — print the recovered answer and stop.
    const uint32_t k = query->top_k > 0 ? query->top_k : 10;
    std::printf("\ntop-%u keys in the window:\n", k);
    for (const KV& kv : engine.window().TopK(k)) {
      std::printf("  %016llx  %.2f\n",
                  static_cast<unsigned long long>(kv.key), kv.value);
    }
    std::printf("\n");  // same block shape as a full run, for diffing
    return engine.durable_recovery().data_loss ? 3 : 0;
  }
  if (const HttpExporter* exporter = engine.observability()->exporter();
      exporter != nullptr) {
    std::printf("serving telemetry on http://127.0.0.1:%u  "
                "(/metrics /timeseries.json /healthz)\n",
                exporter->port());
  }

  std::printf(
      "dataset=%s technique=%s rate=%.0f/s interval=%lldms "
      "query=\"%s\"\n\n",
      DatasetName(*dataset), PartitionerTypeName(*technique), *rate,
      static_cast<long long>(query->slide / 1000), query_text.c_str());

  if (*crash_after >= 0) {
    // Crash drill: process some batches, then die the way a power cut would
    // — no destructors, no flushes beyond what --fsync already forced.
    engine.Run(static_cast<uint32_t>(*crash_after));
    std::printf("crash drill: dying by SIGKILL after %lld batch(es)\n",
                static_cast<long long>(*crash_after));
    std::fflush(stdout);
    std::raise(SIGKILL);
  }

  RunSummary summary = engine.Run(static_cast<uint32_t>(*batches));
  TableSink table(&std::cout, /*column_width=*/10);
  for (const BatchReport& b : summary.batches) {
    Record row;
    row.Set("batch", b.batch_id)
        .Set("tuples", b.num_tuples)
        .Set("keys", b.num_keys)
        .Set("proc_ms", static_cast<double>(b.processing_time) / 1000.0)
        .Set("W", b.w)
        .Set("map", b.map_tasks)
        .Set("red", b.reduce_tasks)
        .Set("lat_ms", static_cast<double>(b.latency) / 1000.0);
    if (*adaptive) {
      row.Set("tech", b.technique >= 0
                          ? PartitionerTypeName(
                                static_cast<PartitionerType>(b.technique))
                          : "?");
    }
    if (*metrics) {
      row.Set("bsi", b.partition_metrics.bsi)
          .Set("ksr", b.partition_metrics.ksr);
    }
    if (key_mode == KeyMode::kSketch) {
      row.Set("cov", b.sketch.head_coverage());
    }
    table.Write(row);
  }

  if (*explain_batch >= 0) {
    const auto id = static_cast<uint64_t>(*explain_batch);
    const BatchReport* target = nullptr;
    for (const BatchReport& b : summary.batches) {
      if (b.batch_id == id) target = &b;
    }
    if (target == nullptr) {
      return Fail(Status::OutOfRange("--explain=" + std::to_string(id) +
                                     ": run produced batches 0.." +
                                     std::to_string(summary.batches.size() - 1)));
    }
    std::printf("\n");
    WriteAutopsyText(target->autopsy, *target, &std::cout);
  }

  if (!trace_path.empty()) {
    std::printf("\n(wrote %zu batch traces to %s)\n", summary.batches.size(),
                trace_path.c_str());
  }
  if (!record_dir.empty()) {
    std::printf("\n(recorded run journal to %s — promptctl --replay=%s)\n",
                record_dir.c_str(), record_dir.c_str());
  }
  if (!csv_path.empty()) {
    if (auto st = WriteReportsCsvFile(summary.batches, csv_path); !st.ok()) {
      return Fail(st);
    }
    std::printf("\n(wrote %zu batch reports to %s)\n",
                summary.batches.size(), csv_path.c_str());
  }

  const uint32_t k = query->top_k > 0 ? query->top_k : 10;
  std::printf("\ntop-%u keys in the window:\n", k);
  for (const KV& kv : engine.window().TopK(k)) {
    std::printf("  %016llx  %.2f\n",
                static_cast<unsigned long long>(kv.key), kv.value);
  }
  std::printf("\nmean W=%.2f  throughput=%.0f tuples/s  %s\n",
              summary.MeanW(2),
              summary.MeanThroughputTuplesPerSec(query->slide, 2),
              summary.stable ? "stable" : "UNSTABLE (back-pressure would engage)");
  if (key_mode == KeyMode::kSketch) {
    std::printf("sketch: mean head coverage=%.3f  peak_rss=%.1f MB\n",
                MeanHeadCoverage(summary.batches),
                static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  }
  if (summary.failures_recovered > 0 || summary.batches_replayed > 0 ||
      summary.tasks_retried > 0 || summary.tasks_speculated > 0) {
    std::printf(
        "recovery: failures=%llu replayed=%llu retried=%llu speculated=%llu "
        "max_latency=%.1fms%s\n",
        static_cast<unsigned long long>(summary.failures_recovered),
        static_cast<unsigned long long>(summary.batches_replayed),
        static_cast<unsigned long long>(summary.tasks_retried),
        static_cast<unsigned long long>(summary.tasks_speculated),
        static_cast<double>(summary.max_recovery_time) / 1000.0,
        summary.data_loss ? "  DATA LOSS (raise --replication)" : "");
  }
  if (summary.crashed) {
    std::printf("crash injected at batch %llu%s\n",
                static_cast<unsigned long long>(summary.crashed_at_batch),
                store_options.enabled()
                    ? "; rerun with --recover_only to replay the store"
                    : " (no --store_dir: nothing survives)");
  }
  if (*adaptive) {
    std::printf("adaptive: %llu switch(es) (up=%llu down=%llu)\n",
                static_cast<unsigned long long>(
                    summary.technique_switches.size()),
                static_cast<unsigned long long>(summary.technique_switches_up),
                static_cast<unsigned long long>(
                    summary.technique_switches_down));
    for (const RunSummary::TechniqueSwitch& s : summary.technique_switches) {
      std::printf("  after batch %llu: %s -> %s (%s)\n",
                  static_cast<unsigned long long>(s.after_batch),
                  PartitionerTypeName(s.from), PartitionerTypeName(s.to),
                  s.reason.c_str());
    }
  }
  if (engine.observability()->exporter() != nullptr && *serve_hold_ms > 0) {
    std::printf("holding telemetry server for %lldms...\n",
                static_cast<long long>(*serve_hold_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(*serve_hold_ms));
  }
  return summary.stable ? 0 : 2;
}
