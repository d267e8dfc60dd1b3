// wallbench: the engine's wall-clock benchmark.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   wallbench --selftest --out-dir DIR
//
// Closed loop with one feeder: before each batch the harness generates that
// batch from the seed, then calls Run(1); the engine pulls the batch through
// the feeder, which stamps the cut-off. --trace 0 prints the end-to-end
// metrics, scaled to a reference host speed by a probe timed between
// segments, and --trace 1 the per-layer metrics of a separate traced run. Every
// batch is checked outside the timed path, and the last window of every
// query is compared with a plain-map reference rebuilt from the seed. The
// last stdout line is the JSON result; the exit code is 0 only when the run
// completed (a wrong answer still exits 0 with "correct": false).
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "workloads.h"

namespace wallbench {
namespace {

// Set-ups per run, and segments of an end-to-end run: each segment is a
// fresh set-up followed by its share of the measured batches, so the set-ups
// meet the same spells of the host's speed as the measured batches do.
// setup_s is their median.
constexpr int kSetups = 10;
// Measured batches per end-to-end run at least, so that at least 10 lie
// above emit_p95_ms.
constexpr size_t kMinBatches = 200;
// Traced batches whose counts form the exact count metrics. Counts depend on
// the batch index, so they are taken over a fixed prefix, never over a
// time-bounded run.
constexpr size_t kCountBatches = 40;
// Untraced/traced segment pairs of a traced run.
constexpr int kTracePairs = 10;
// The traced run compares untraced and traced batch times at this quantile
// of each side's pooled per-batch times. The host switches between a fast
// state and one about 25% slower every few seconds, so two adjacent
// segments' means can differ by 20%; the 10th percentile lies in the fast
// state on both sides unless the slow state covers nearly the whole run.
constexpr double kCompareQuantile = 0.10;
// End-to-end timings are reported at a reference host speed. A shared
// host's speed for this code drifts by 10-30% over seconds to minutes, in
// spells that can cover a whole run. Between segments, when no engine
// exists, the harness times kQuietProbes runs of the HostProbe; every timing
// of the run is scaled by kReferenceProbeNs over the median of those times:
// the figures a host on which the probe takes 0.8 ms (about its median on
// the 4-vCPU Xeon guest of RESULTS.md) would give. Probes taken while an
// engine is alive read its idle threads too: on hicard_sharded, whose shard
// workers poll between batches, they ran ~50% slower than between engines.
constexpr double kReferenceProbeNs = 8e5;
constexpr int kQuietProbes = 20;

// ---------------------------------------------------------------------------
// Host facts.

int64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
              1000000 +
          ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
         1000;
}

double ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1);
    }
  }
  return 0;
}

int ThreadCount() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

/// The 1-minute load average; read before the first set-up of a run.
double LoadAverage() {
  double load1 = 0;
  if (FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = 0;
    std::fclose(f);
  }
  return load1;
}

/// The host facts of a run; `probe_ms`, the run's median HostProbe time,
/// only when it is given.
std::string HostLine(double load1, int threads, double probe_ms = 0) {
  utsname u{};
  uname(&u);
  std::ostringstream out;
  out << "host {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"load1\": " << load1 << ", \"threads\": " << threads
      << ", \"kernel\": \"" << u.release << "\"";
  if (probe_ms > 0) out << ", \"probe_ms\": " << probe_ms;
  out << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// The measurement loop.

/// The per-batch window check: every COUNT query's window total against the
/// tuple count of the last W batches (query index, totals).
struct Checks {
  explicit Checks(const Workload& w) {
    for (size_t q = 0; q < w.tenants.size(); ++q) {
      CountTotals totals(w.tenants[q].query, w.window_batches);
      if (totals.applies()) counts.emplace_back(q, totals);
    }
  }
  void AddBatch(const std::vector<Tuple>& tuples) {
    for (auto& [q, totals] : counts) totals.AddBatch(tuples);
  }
  bool Holds(const EngineUnderTest& e) const {
    for (const auto& [q, totals] : counts) {
      if (!totals.Holds(e.window(q))) return false;
    }
    return true;
  }
  std::vector<std::pair<size_t, CountTotals>> counts;
};

/// Batches run and failed. A batch fails once, whatever the reasons; the
/// final reference check is part of the last batch's check.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool last_failed = false;
  std::string first_error;

  void Fail(const std::string& why) {
    if (first_error.empty()) first_error = why;
    if (!last_failed) ++failed;
    last_failed = true;
  }
};

struct Sample {
  int64_t wall_ns = 0;  ///< Run(1) call to return
  int64_t emit_ns = 0;  ///< cut-off stamp to return
  int64_t cpu_ns = 0;   ///< process CPU inside Run(1)
  uint64_t tuples = 0;
};

/// Prepares one batch (untimed), runs it (timed), then checks it (untimed).
Sample RunOne(EngineUnderTest& e, Feeder& feeder, Checks& checks, Tally& tally) {
  feeder.Prepare();
  checks.AddBatch(feeder.tuples());
  const uint64_t stamps = feeder.stamps();
  Sample s;
  s.tuples = feeder.tuples().size();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = NowNs();
  const bool ok = e.RunBatch();
  const int64_t t1 = NowNs();
  s.cpu_ns = ProcessCpuNs() - cpu0;
  s.wall_ns = t1 - t0;
  s.emit_ns = t1 - feeder.cutoff_ns();
  ++tally.attempted;
  tally.last_failed = false;
  const std::string batch = std::to_string(feeder.batch());
  if (!ok) tally.Fail("engine reported a failure in batch " + batch);
  if (feeder.stamps() != stamps + 1) {
    tally.Fail("cut-off stamp did not fire exactly once in batch " + batch);
  }
  if (!checks.Holds(e)) {
    tally.Fail("COUNT window total != last-W tuple count after batch " + batch);
  }
  return s;
}

/// Runs batches until `seconds` of wall time (and at least `min_batches`).
std::vector<Sample> MeasureLoop(EngineUnderTest& e, Feeder& feeder,
                                Checks& checks, Tally& tally, double seconds,
                                size_t min_batches, int* threads) {
  std::vector<Sample> samples;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || samples.size() < min_batches) {
    samples.push_back(RunOne(e, feeder, checks, tally));
    if (samples.size() == 1 && threads != nullptr) *threads = ThreadCount();
  }
  return samples;
}

/// Times kQuietProbes runs of the probe; call only when no engine exists.
std::vector<double> QuietProbesNs(HostProbe& probe) {
  std::vector<double> ns;
  for (int i = 0; i < kQuietProbes; ++i) {
    ns.push_back(static_cast<double>(probe.MeasureNs()));
  }
  return ns;
}

/// Compares every query's window with the plain-map reference over the last
/// W batches, and checks that the comparison itself rejects corruption.
void FinalCheck(const Workload& w, const BatchGenerator& gen,
                const EngineUnderTest& e, uint64_t last_batch, Tally& tally) {
  const uint64_t first = last_batch + 1 - w.window_batches;
  for (size_t q = 0; q < w.tenants.size(); ++q) {
    const Answer ref = ReferenceWindow(gen, w.tenants[q].query, first, last_batch);
    std::string why;
    if (!SameAnswer(e.window(q), ref, &why)) {
      tally.Fail("query " + std::to_string(q) + " window differs: " + why);
    }
    if (!CheckerRejectsCorruption(ref)) {
      tally.Fail("reference checker accepted a corrupted answer");
    }
  }
}

/// The directories of one run. Durable workloads recover, at every
/// set-up, a store and journal written once by an untimed earlier engine:
/// `pristine` keeps that copy, `live` is what the set-up's engine opens.
class WorkDirs {
 public:
  explicit WorkDirs(const std::string& out_dir)
      : root_(out_dir + "/run-" + std::to_string(getpid())) {
    pristine_ = {root_ + "/pristine/store", root_ + "/pristine/journal"};
    live_ = {root_ + "/live/store", root_ + "/live/journal"};
    Remove();
  }
  ~WorkDirs() { Remove(); }
  WorkDirs(const WorkDirs&) = delete;
  WorkDirs& operator=(const WorkDirs&) = delete;

  const RunDirs& live() const { return live_; }

  /// Empties `live`; for durable workloads fills it with a copy of the
  /// earlier engine's store and journal (written on first use).
  bool Reset(const Workload& w, const BatchGenerator& gen, std::string* error) {
    std::error_code ec;
    std::filesystem::remove_all(root_ + "/live", ec);
    if (!w.multi_tenant) return true;
    if (!have_pristine_) {
      if (!WriteEarlierStore(w, gen, pristine_, w.window_batches, error)) {
        return false;
      }
      have_pristine_ = true;
    }
    std::filesystem::copy(root_ + "/pristine", root_ + "/live",
                          std::filesystem::copy_options::recursive, ec);
    if (ec) *error = "copying the earlier store: " + ec.message();
    return !ec;
  }

 private:
  void Remove() const {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  std::string root_;
  RunDirs pristine_, live_;
  bool have_pristine_ = false;
};

/// Everything one run shares: the workload, its seeded generator, its
/// directories, the host-speed probe and the batch tally.
struct Bench {
  Bench(const Workload& workload, uint64_t seed, const std::string& out_dir)
      : w(workload), gen(workload.stream, seed), dirs(out_dir) {}
  const Workload& w;
  const BatchGenerator gen;
  WorkDirs dirs;
  HostProbe probe;
  Tally tally;
};

/// One set-up, ready to measure.
struct Setup {
  std::unique_ptr<Checks> checks;
  std::unique_ptr<Feeder> feeder;
  std::unique_ptr<EngineUnderTest> engine;
  double seconds = 0;  ///< the timed part: construction + warm-up batches
};

/// Builds the engine (or, with `rec`, its traced shadow) and runs the
/// warm-up batches. Timed: constructing the feeder and the engine (which
/// recovers the store on durable workloads) and each warm-up Run(1).
/// Untimed: copying the earlier store into place and generating batches.
bool DoSetup(Bench& b, SpanRecorder* rec, std::vector<BatchCounts>* counts,
             Setup* out, std::string* error) {
  const Workload& w = b.w;
  out->engine.reset();
  out->feeder.reset();
  out->checks = std::make_unique<Checks>(w);
  if (!b.dirs.Reset(w, b.gen, error)) return false;
  uint64_t first_batch = 0;
  if (w.multi_tenant) {
    // The recovered windows hold the earlier engine's batches.
    std::vector<Tuple> tuples;
    for (uint64_t i = 0; i < w.window_batches; ++i) {
      b.gen.Generate(i, &tuples);
      out->checks->AddBatch(tuples);
    }
    first_batch = w.window_batches;
  }
  const int64_t t0 = NowNs();
  out->feeder = std::make_unique<Feeder>(&b.gen, first_batch);
  const RunDirs& dirs = b.dirs.live();
  out->engine = rec == nullptr
                    ? MakeEngine(w, out->feeder.get(), dirs, error)
                    : MakeShadow(w, out->feeder.get(), dirs, rec, counts, error);
  if (out->engine == nullptr) return false;
  int64_t timed = NowNs() - t0;
  for (uint32_t i = 0; i < w.warmup_batches; ++i) {
    timed += RunOne(*out->engine, *out->feeder, *out->checks, b.tally).wall_ns;
  }
  out->seconds = static_cast<double>(timed) / 1e9;
  return true;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double error_rate =
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 1.0;
  std::printf("metric %-32s %.6f fraction (%llu failed of %llu batches)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  if (!tally.first_error.empty()) {
    std::printf("error %s\n", tally.first_error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0).

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds,
                const std::string& out_dir, double load1) {
  Bench b(w, seed, out_dir);
  std::string error;
  std::vector<double> setup_s, quiet_ns;
  std::vector<Sample> samples;
  int threads = 0;
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.engine.reset();
    const std::vector<double> quiet = QuietProbesNs(b.probe);
    quiet_ns.insert(quiet_ns.end(), quiet.begin(), quiet.end());
    if (!DoSetup(b, nullptr, nullptr, &setup, &error)) {
      std::fprintf(stderr, "wallbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(setup.seconds);
    const std::vector<Sample> segment = MeasureLoop(
        *setup.engine, *setup.feeder, *setup.checks, b.tally, seconds / kSetups,
        (kMinBatches + kSetups - 1) / kSetups, k == 0 ? &threads : nullptr);
    samples.insert(samples.end(), segment.begin(), segment.end());
  }
  // The reference check of the last segment's windows comes after the peak
  // is read, so its maps do not count as engine state.
  const double peak_rss_mb = ReadStatusKb("VmHWM") / 1024.0;
  FinalCheck(w, b.gen, *setup.engine, setup.feeder->batch(), b.tally);
  setup.engine.reset();
  const std::vector<double> quiet = QuietProbesNs(b.probe);
  quiet_ns.insert(quiet_ns.end(), quiet.begin(), quiet.end());

  // Per batch, as measured; `speed` turns a measured time into the time at
  // the reference host speed.
  const double probe_ns = Median(quiet_ns);
  const double speed = kReferenceProbeNs / probe_ns;
  std::vector<double> rate, emit_ms, cpu;
  uint64_t tuples = 0;
  for (const Sample& s : samples) {
    const double n = static_cast<double>(s.tuples);
    rate.push_back(n / (static_cast<double>(s.wall_ns) / 1e9));
    emit_ms.push_back(static_cast<double>(s.emit_ns) / 1e6);
    cpu.push_back(static_cast<double>(s.cpu_ns) / 1e3 / n);
    tuples += s.tuples;
  }
  const double raw_throughput = Median(rate);
  const double raw_p50 = Percentile(emit_ms, 0.50);
  const double raw_p95 = Percentile(emit_ms, 0.95);
  const double raw_cpu = Median(cpu);
  const double raw_setup = Median(setup_s);
  std::printf("%s\n", HostLine(load1, threads, probe_ns / 1e6).c_str());
  std::printf("measured %zu batches (%llu tuples) in %d set-up segments\n",
              samples.size(), static_cast<unsigned long long>(tuples), kSetups);
  std::printf("set-ups (s):");
  for (double s : setup_s) std::printf(" %.4f", s * speed);
  std::printf("\n");
  std::printf(
      "raw {\"throughput_tps\": %.1f, \"emit_p50_ms\": %.4f, "
      "\"emit_p95_ms\": %.4f, \"cpu_s_per_mtuple\": %.6f, \"setup_s\": %.6f}\n",
      raw_throughput, raw_p50, raw_p95, raw_cpu, raw_setup);
  PrintResult(
      {
          {"throughput_tps", raw_throughput / speed, "tuples/s"},
          {"emit_p50_ms", raw_p50 * speed, "ms"},
          {"emit_p95_ms", raw_p95 * speed, "ms"},
          {"cpu_s_per_mtuple", raw_cpu * speed, "s/Mtuple"},
          {"peak_rss_mb", peak_rss_mb, "MB"},
          {"setup_s", raw_setup * speed, "s"},
      },
      b.tally);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1).

/// One traced segment: a fresh shadow, warmed up, then measured. Every
/// segment starts from the same batch, so trace ids repeat across segments.
struct TracedSegment {
  SpanRecorder rec;
  std::vector<BatchCounts> counts;  ///< measured batches only
  uint64_t first_measured = 0;      ///< trace id of the first measured batch
  size_t measured = 0;
  /// Run(1) times of the untraced segment run just before this one.
  std::vector<double> untraced_batch_ms;
};

using TracedRun = std::vector<std::unique_ptr<TracedSegment>>;

/// Builds and warms a shadow, then measures it for `seconds` (and at least
/// `min_batches` batches) and checks its final windows.
bool RunTracedSegment(Bench& b, double seconds, size_t min_batches,
                      TracedSegment* seg, std::string* error) {
  Setup setup;
  if (!DoSetup(b, &seg->rec, &seg->counts, &setup, error)) return false;
  seg->counts.clear();
  seg->first_measured = setup.feeder->batch() + 1;
  seg->measured = MeasureLoop(*setup.engine, *setup.feeder, *setup.checks,
                              b.tally, seconds, min_batches, nullptr)
                      .size();
  FinalCheck(b.w, b.gen, *setup.engine, setup.feeder->batch(), b.tally);
  return true;
}

/// Per-layer metrics from the spans of the measured batches of every
/// segment. The ratios against the untraced time (coverage, overhead, loop
/// other) compare the kCompareQuantile of the untraced Run(1) times with
/// that of the traced batches, both pooled over all segments. Count metrics
/// come from the first segment's first kCountBatches batches, which no
/// clock decides.
std::vector<Metric> LayerMetrics(const Workload& w, const TracedRun& run,
                                 double gen_ns_per_tuple,
                                 std::map<std::string, double>* layer_ms) {
  std::vector<double> self_ms(kSpanNames, 0);
  std::vector<double> recover_ms, untraced_ms, traced_layers_ms, traced_root_ms;
  double fanout_ms = 0, seal = 0;
  size_t measured = 0;
  uint64_t tuples = 0;
  for (const auto& seg : run) {
    const std::vector<Span>& spans = seg->rec.spans();
    const std::vector<int64_t> self = seg->rec.SelfTimes();
    untraced_ms.insert(untraced_ms.end(), seg->untraced_batch_ms.begin(),
                       seg->untraced_batch_ms.end());
    // Per measured batch of this segment: layer self time and root span.
    std::map<uint64_t, std::pair<double, double>> batches;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.name == kStoreRecover) recover_ms.push_back(dur);
      if (s.trace == UINT64_MAX || s.trace < seg->first_measured) continue;
      self_ms[s.name] += static_cast<double>(self[i]) / 1e6;
      if (s.name == kBatch) {
        batches[s.trace].second += dur;
      } else {
        batches[s.trace].first += static_cast<double>(self[i]) / 1e6;
      }
      // Fan-out = Matches + every tenant's OnTuple: the loop minus the
      // journal's RecordTuple chunks inside it.
      if (s.name == kTenantFanout) fanout_ms += dur;
      if (s.name == kReplayAppend && s.parent >= 0 &&
          spans[s.parent].name == kTenantFanout) {
        fanout_ms -= dur;
      }
    }
    for (const auto& [trace, ms] : batches) {
      traced_layers_ms.push_back(ms.first);
      traced_root_ms.push_back(ms.second);
    }
    measured += seg->measured;
    for (const BatchCounts& c : seg->counts) {
      tuples += c.tuples;
      seal += c.shard_seal_ms;
    }
  }
  const double untraced = Percentile(untraced_ms, kCompareQuantile);
  const double traced_layers = Percentile(traced_layers_ms, kCompareQuantile);
  const double traced_root = Percentile(traced_root_ms, kCompareQuantile);
  auto share = [untraced](double v) { return untraced > 0 ? v / untraced : 0.0; };
  const double n = static_cast<double>(measured);
  const double per_tuple_ns = 1e6 / static_cast<double>(std::max<uint64_t>(1, tuples));
  for (int name = 0; name < kSpanNames; ++name) {
    if (name == kBatch) continue;
    const double ms = self_ms[name] / n;
    std::string layer = SpanNameText(static_cast<uint8_t>(name));
    layer = layer.substr(0, layer.find('.'));
    (*layer_ms)[layer] += ms;
  }

  // Exact counts over a fixed prefix of the measured batches.
  const std::vector<BatchCounts>& counts = run.front()->counts;
  const size_t k = std::min(kCountBatches, counts.size());
  double keys = 0, split = 0, frags = 0, wkeys = 0, skew = 0;
  uint64_t store_bytes = 0, store_tuples = 0, journal_bytes = 0, ctuples = 0;
  for (size_t i = 0; i < k; ++i) {
    const BatchCounts& c = counts[i];
    keys += static_cast<double>(c.keys);
    split += static_cast<double>(c.split_keys);
    frags += static_cast<double>(c.fragments);
    wkeys += static_cast<double>(c.window_keys);
    skew += c.shard_skew;
    store_bytes += c.store_bytes;
    store_tuples += c.store_tuples;
    journal_bytes += c.journal_bytes;
    ctuples += c.tuples;
  }
  const double kd = static_cast<double>(std::max<size_t>(1, k));
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  // Sharded ingest seals inside SealBatch on the shard workers: the harness
  // cannot span it, so core.seal_ms there is the pipeline's own per-shard
  // figure (slowest shard), already inside ingest.seal_merge_ms.
  const double core_seal_ms =
      w.ingest_shards > 1 ? seal / n : self_ms[kCoreSeal] / n;
  return {
      {"ingest.route_ns_per_tuple", self_ms[kIngestRoute] * per_tuple_ns,
       "ns/tuple"},
      {"ingest.seal_merge_ms", self_ms[kIngestSealMerge] / n, "ms"},
      {"ingest.shard_skew", skew / kd, "ratio"},
      {"core.accumulate_ns_per_tuple", self_ms[kCoreAccumulate] * per_tuple_ns,
       "ns/tuple"},
      {"core.seal_ms", core_seal_ms, "ms"},
      {"core.plan_ms", self_ms[kCorePlan] / n, "ms"},
      {"core.materialize_ms", self_ms[kCoreMaterialize] / n, "ms"},
      {"core.reduce_assign_ms", self_ms[kCoreReduceAssign] / n, "ms"},
      {"core.keys_per_batch", keys / kd, "count"},
      {"core.split_keys_per_batch", split / kd, "count"},
      {"core.fragments_per_batch", frags / kd, "count"},
      {"engine.execute_ms", self_ms[kEngineExecute] / n, "ms"},
      {"engine.window_ms", self_ms[kEngineWindow] / n, "ms"},
      {"engine.window_keys", wkeys / kd, "count"},
      {"engine.loop_other_ms", untraced > 0 ? untraced - traced_layers : 0,
       "ms"},
      {"store.encode_ms", self_ms[kStoreEncode] / n, "ms"},
      {"store.append_ms", self_ms[kStoreAppend] / n, "ms"},
      {"store.sync_ms", self_ms[kStoreSync] / n, "ms"},
      {"store.bytes_per_tuple", ratio(store_bytes, store_tuples), "count"},
      {"store.recover_ms", Median(recover_ms), "ms"},
      {"replay.append_ms", self_ms[kReplayAppend] / n, "ms"},
      {"replay.sync_ms", self_ms[kReplaySync] / n, "ms"},
      {"replay.bytes_per_tuple", ratio(journal_bytes, ctuples), "count"},
      {"tenant.fanout_ns_per_tuple", fanout_ms * per_tuple_ns, "ns/tuple"},
      {"trace.coverage", share(traced_layers), "ratio"},
      {"trace.overhead_pct", (share(traced_root) - 1.0) * 100.0, "%"},
      {"workload.gen_ns_per_tuple", gen_ns_per_tuple, "ns/tuple"},
  };
}

int RunTraced(const Workload& w, uint64_t seed, double seconds,
              const std::string& out_dir, double load1) {
  Bench b(w, seed, out_dir);
  std::string error;
  // The host's speed drifts by 10-20% over seconds, so the untraced and the
  // traced segments alternate, each with its own fresh set-up (both never
  // coexist: the process stays within the workload's thread count).
  const double segment_s = seconds / (2.0 * kTracePairs);
  int64_t gen_ns = 0;
  uint64_t untraced_batches = 0, gen_tuples = 0;
  std::vector<double> pair_untraced_ms;
  int threads = 0;
  TracedRun run;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    {
      Setup setup;
      if (!DoSetup(b, nullptr, nullptr, &setup, &error)) {
        std::fprintf(stderr, "wallbench: set-up failed: %s\n", error.c_str());
        return 1;
      }
      const int64_t gen0 = setup.feeder->gen_ns();
      const uint64_t gen_tuples0 = setup.feeder->gen_tuples();
      const std::vector<Sample> samples =
          MeasureLoop(*setup.engine, *setup.feeder, *setup.checks, b.tally,
                      segment_s, 1, pair == 0 ? &threads : nullptr);
      pair_untraced_ms.clear();
      for (const Sample& s : samples) {
        pair_untraced_ms.push_back(static_cast<double>(s.wall_ns) / 1e6);
      }
      untraced_batches += samples.size();
      gen_ns += setup.feeder->gen_ns() - gen0;
      gen_tuples += setup.feeder->gen_tuples() - gen_tuples0;
      FinalCheck(w, b.gen, *setup.engine, setup.feeder->batch(), b.tally);
    }
    run.push_back(std::make_unique<TracedSegment>());
    run.back()->untraced_batch_ms = pair_untraced_ms;
    if (!RunTracedSegment(b, segment_s, pair == 0 ? kCountBatches : 1,
                          run.back().get(), &error)) {
      std::fprintf(stderr, "wallbench: traced set-up failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  std::map<std::string, double> layer_ms;
  const std::vector<Metric> metrics =
      LayerMetrics(w, run,
                   static_cast<double>(gen_ns) / static_cast<double>(gen_tuples),
                   &layer_ms);
  double layers_total_ms = 0;
  for (const auto& [layer, ms] : layer_ms) layers_total_ms += ms;

  const std::string trace_path = out_dir + "/trace-" + w.name + "-seed" +
                                 std::to_string(seed) + ".jsonl";
  FILE* f = std::fopen(trace_path.c_str(), "w");
  bool written = f != nullptr;
  size_t spans = 0, measured = 0;
  for (size_t i = 0; written && i < run.size(); ++i) {
    written = run[i]->rec.WriteJsonl(f, static_cast<int>(i));
    spans += run[i]->rec.spans().size();
    measured += run[i]->measured;
  }
  if (f != nullptr) written = std::fclose(f) == 0 && written;
  if (!written) {
    std::fprintf(stderr, "wallbench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", HostLine(load1, threads).c_str());
  std::printf("spans %s (%zu spans; %zu traced and %llu untraced batches in "
              "%d alternating pairs)\n",
              trace_path.c_str(), spans, measured,
              static_cast<unsigned long long>(untraced_batches), kTracePairs);
  // Mean self time per traced batch, and its share of all layers' time.
  for (const auto& [layer, ms] : layer_ms) {
    if (ms <= 0) continue;
    std::printf("layer %-10s %9.4f ms/batch %6.1f%%\n", layer.c_str(), ms,
                100.0 * ms / layers_total_ms);
  }
  PrintResult(metrics, b.tally);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-tests (--selftest).

/// Records every tuple the engine pulls, to compare with the unwrapped stream.
class RecordingSource final : public prompt::TupleSource {
 public:
  explicit RecordingSource(prompt::TupleSource* inner) : inner_(inner) {}
  const char* name() const override { return "recording"; }
  uint64_t cardinality() const override { return inner_->cardinality(); }
  bool Next(Tuple* t) override {
    if (!inner_->Next(t)) return false;
    seen.push_back(*t);
    return true;
  }
  std::vector<Tuple> seen;

 private:
  prompt::TupleSource* inner_;
};

bool SameTuples(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ts != b[i].ts || a[i].key != b[i].key || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

/// The feeder stamps exactly once per batch, and the engine pulls exactly the
/// generator's stream (plus the next batch's head tuple) through it.
bool FeederSelfTest(const std::string& out_dir) {
  const Workload& w = *FindWorkload("wordcount_z1");
  const BatchGenerator gen(w.stream, 7);
  Feeder feeder(&gen, 0);
  RecordingSource recording(&feeder);
  std::string error;
  std::unique_ptr<EngineUnderTest> engine =
      MakeEngine(w, &recording, RunDirs{out_dir, out_dir}, &error);
  if (engine == nullptr) return false;
  constexpr uint64_t kBatches = 6;
  bool ok = true;
  for (uint64_t b = 0; b < kBatches; ++b) {
    feeder.Prepare();
    ok &= engine->RunBatch();
    ok &= feeder.stamps() == b + 1;
  }
  std::vector<Tuple> expected, batch;
  for (uint64_t b = 0; b < kBatches; ++b) {
    gen.Generate(b, &batch);
    expected.insert(expected.end(), batch.begin(), batch.end());
  }
  gen.Generate(kBatches, &batch, 1);
  expected.push_back(batch[0]);
  ok &= SameTuples(recording.seen, expected);
  // The answer through the wrapped source matches the reference too.
  std::string why;
  ok &= SameAnswer(engine->window(0),
                   ReferenceWindow(gen, w.tenants[0].query, 0, kBatches - 1),
                   &why);
  return ok;
}

/// The reference checker flags a value off by one and a missing key.
bool CheckerSelfTest() {
  const Workload& w = *FindWorkload("tenants_durable");
  const BatchGenerator gen(w.stream, 3);
  for (const TenantDef& t : w.tenants) {
    if (!CheckerRejectsCorruption(ReferenceWindow(gen, t.query, 0, 1))) {
      return false;
    }
  }
  return true;
}

std::string CountsFingerprint(const Workload& w, const TracedRun& run,
                              const std::vector<Answer>& windows) {
  std::ostringstream out;
  out.precision(17);
  std::map<std::string, double> unused;
  for (const Metric& m : LayerMetrics(w, run, 0, &unused)) {
    if (m.unit == "count" || m.name == "ingest.shard_skew") {
      out << m.name << "=" << m.value << ";";
    }
  }
  for (const Answer& a : windows) {
    std::map<KeyId, double> sorted(a.begin(), a.end());
    uint64_t h = 0;
    for (const auto& [k, v] : sorted) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = Mix64(h ^ k) + bits;
    }
    out << "window=" << a.size() << ":" << h << ";";
  }
  return out.str();
}

/// Two traced runs of one seed give identical counts and window answers;
/// another seed changes them.
bool CountsSelfTest(const std::string& out_dir) {
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    const Workload& w = *FindWorkload(name);
    std::vector<std::string> prints;
    for (uint64_t seed : {11, 11, 12}) {
      Bench b(w, seed, out_dir);
      TracedRun run;
      run.push_back(std::make_unique<TracedSegment>());
      TracedSegment& seg = *run.back();
      std::string error;
      Setup setup;
      if (!DoSetup(b, &seg.rec, &seg.counts, &setup, &error)) {
        std::printf("selftest counts %s: set-up failed: %s\n", name.c_str(),
                    error.c_str());
        return false;
      }
      seg.counts.clear();
      seg.first_measured = setup.feeder->batch() + 1;
      for (size_t i = 0; i < kCountBatches; ++i) {
        RunOne(*setup.engine, *setup.feeder, *setup.checks, b.tally);
      }
      seg.measured = kCountBatches;
      std::vector<Answer> windows;
      for (size_t q = 0; q < w.tenants.size(); ++q) {
        windows.push_back(setup.engine->window(q));
      }
      ok &= b.tally.failed == 0;
      prints.push_back(CountsFingerprint(w, run, windows));
    }
    const bool repeat = prints[0] == prints[1];
    const bool differs = prints[0] != prints[2];
    std::printf("selftest counts %s: same seed %s, other seed %s\n",
                name.c_str(), repeat ? "identical" : "DIFFERENT",
                differs ? "differs" : "IDENTICAL");
    std::printf("  seed 11: %s\n", prints[0].c_str());
    ok &= repeat && differs;
  }
  return ok;
}

int RunSelfTests(const std::string& out_dir) {
  bool all = true;
  auto report = [&all](const char* name, bool ok) {
    std::printf("selftest %s: %s\n", name, ok ? "PASS" : "FAIL");
    all &= ok;
  };
  report("feeder", FeederSelfTest(out_dir));
  report("checker", CheckerSelfTest());
  report("counts", CountsSelfTest(out_dir));
  std::printf("selftest %s\n", all ? "PASS" : "FAIL");
  return all ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const double load1 = LoadAverage();
  std::string workload, out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wallbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--out-dir") {
      out_dir = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "wallbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  prompt::Logger::Instance().set_level(prompt::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (selftest) return RunSelfTests(out_dir);
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "wallbench: need --workload one of");
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, ", --seconds > 0 and --trace 0|1\n");
    return 2;
  }
  std::printf("wallbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace);
  return trace ? RunTraced(*w, seed, seconds, out_dir, load1)
               : RunEndToEnd(*w, seed, seconds, out_dir, load1);
}
