// Cross-version guard for the per-batch trace: TraceOf's JSONL trace records
// of reports that take every branch of the span layout (adapt switch,
// sharded ingest, sketch mode, store append, the plan inside the release
// slack, queue, plan overflow, recovery), compared byte for byte with
// records written by the engine's trace path of an earlier build, the
// stateful recorder TraceOf replaced (testdata/traces_recorded.jsonl). A
// change to any span's name, position, duration or depth, or to the
// trace's totals, fails here; a mismatch prints the whole actual recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "obs/sink.h"

namespace prompt {
namespace {

struct TraceCase {
  BatchReport report;
  TimeMicros batch_start = 0;
  double partition_cost_scale = 1.0;
};

/// A batch with the given id and decision cost, its overflow past the 5%
/// release slack derived as the engine derives it.
TraceCase Batch(uint64_t id, TimeMicros partition_cost, double scale = 1.0,
                TimeMicros interval = Seconds(1)) {
  TraceCase c;
  c.batch_start = static_cast<TimeMicros>(id) * Seconds(1);
  c.partition_cost_scale = scale;
  BatchReport& r = c.report;
  r.batch_id = id;
  r.batch_interval = interval;
  r.num_tuples = 8000 + 17 * id;
  r.num_keys = 500 + id;
  r.map_makespan = 300000 + 1000 * static_cast<TimeMicros>(id);
  r.reduce_makespan = 120000;
  r.partition_cost = partition_cost;
  const auto scaled =
      static_cast<TimeMicros>(scale * static_cast<double>(partition_cost));
  r.partition_overflow = std::max<TimeMicros>(
      0, scaled - static_cast<TimeMicros>(0.05 * static_cast<double>(interval)));
  return c;
}

/// Closes a case's timeline: latency = interval + queue + processing.
TraceCase Settled(TraceCase c) {
  BatchReport& r = c.report;
  r.processing_time = r.partition_overflow + r.map_makespan +
                      r.reduce_makespan + r.recovery_time;
  r.latency = r.batch_interval + r.queue_delay + r.processing_time;
  return c;
}

std::vector<TraceCase> Cases() {
  std::vector<TraceCase> cases;
  cases.push_back(Settled(Batch(0, 0)));                  // no plan span
  cases.push_back(Settled(Batch(1, 20000)));              // plan in slack
  cases.push_back(Settled(Batch(2, 80000)));              // plan overflow
  cases.push_back(Settled(Batch(3, 9000, /*scale=*/7.5)));  // scaled cost
  {
    TraceCase c = Batch(4, 1000);
    c.report.queue_delay = 250000;
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(5, 3000);
    c.report.recovery_time = 120000;
    c.report.batches_replayed = 2;
    c.report.recovered_from_failure = true;
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(6, 4000);
    c.report.technique_switched = true;
    c.report.switched_from = static_cast<int32_t>(PartitionerType::kHash);
    c.report.technique = static_cast<int32_t>(PartitionerType::kPrompt);
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(7, 4000);  // custom partitioners on both sides
    c.report.technique_switched = true;
    c.report.switched_from = -1;
    c.report.technique = -1;
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(8, 5555);
    c.report.has_ingest = true;
    c.report.ingest.ingest_wall = 987654;
    c.report.ingest.seal_barrier_latency = 1234;
    c.report.ingest.merge_latency = 4321;
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(9, 2500);
    c.report.sketch.sketch_mode = true;
    c.report.sketch.head_tuples = 987;
    c.report.sketch.tail_tuples = 13;
    cases.push_back(Settled(c));
  }
  {
    TraceCase c = Batch(10, 2500);
    c.report.store_append_us = 1700;
    c.report.store_bytes_appended = 64000;
    cases.push_back(Settled(c));
  }
  {
    // Every branch at once, on a resized 500 ms interval.
    TraceCase c = Batch(11, 40000, /*scale=*/1.0, Millis(500));
    c.report.technique_switched = true;
    c.report.switched_from = static_cast<int32_t>(PartitionerType::kPk2);
    c.report.technique = static_cast<int32_t>(PartitionerType::kSketch);
    c.report.has_ingest = true;
    c.report.ingest.ingest_wall = 480000;
    c.report.ingest.seal_barrier_latency = 900;
    c.report.ingest.merge_latency = 2100;
    c.report.sketch.sketch_mode = true;
    c.report.sketch.head_tuples = 2;
    c.report.sketch.tail_tuples = 1;
    c.report.store_append_us = 800;
    c.report.queue_delay = 70000;
    c.report.recovery_time = 30000;
    cases.push_back(Settled(c));
  }
  return cases;
}

std::string ReadRecorded() {
  std::ifstream in(std::string(PROMPT_ENGINE_TESTDATA_DIR) +
                   "/traces_recorded.jsonl");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TraceGoldenTest, TracesMatchTheRecordedOnes) {
  std::ostringstream actual;
  JsonlTraceSink sink(&actual);
  for (const TraceCase& c : Cases()) {
    const BatchTrace trace =
        TraceOf(c.report, c.batch_start, c.partition_cost_scale);
    // Depth-0 spans tile the reported latency exactly.
    EXPECT_EQ(trace.TopLevelTotal(), c.report.latency)
        << "batch " << c.report.batch_id;
    sink.Write(trace);
  }
  EXPECT_EQ(actual.str(), ReadRecorded()) << "actual recording:\n"
                                          << actual.str();
}

}  // namespace
}  // namespace prompt
