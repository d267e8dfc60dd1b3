#include "obs/trace.h"

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace prompt {
namespace {

TEST(TraceOfTest, DepthZeroSpansTileTheLatency) {
  BatchReport report;
  report.batch_id = 7;
  report.batch_interval = 1000000;
  report.num_tuples = 500;
  report.num_keys = 100;
  report.map_makespan = 60000;
  report.reduce_makespan = 40000;
  report.processing_time = 100000;
  report.latency = 1100000;
  const BatchTrace trace = TraceOf(report, /*batch_start=*/1000000,
                                   /*partition_cost_scale=*/1.0);

  EXPECT_EQ(trace.batch_id, 7u);
  EXPECT_EQ(trace.batch_start, 1000000);
  EXPECT_EQ(trace.num_tuples, 500u);
  EXPECT_EQ(trace.num_keys, 100u);
  EXPECT_EQ(trace.latency, 1100000);
  ASSERT_EQ(trace.spans.size(), 3u);  // accumulate, map, reduce
  EXPECT_EQ(trace.TopLevelTotal(), 1100000);
  EXPECT_DOUBLE_EQ(trace.Coverage(), 1.0);

  const TraceSpan* map = trace.FindSpan("map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->start, 1000000);
  EXPECT_EQ(map->duration, 60000);
  EXPECT_EQ(trace.FindSpan("no_such_span"), nullptr);
}

TEST(TraceOfTest, IngestSpansAreAnnotations) {
  BatchReport report;
  report.batch_interval = 1000;
  report.latency = 1000;
  report.has_ingest = true;
  report.ingest.seal_barrier_latency = 40;
  report.ingest.merge_latency = 10;
  const BatchTrace trace = TraceOf(report, 0, 1.0);

  // Depth-1 spans annotate; only depth-0 spans count toward coverage.
  EXPECT_EQ(trace.TopLevelTotal(), 1000);
  EXPECT_DOUBLE_EQ(trace.Coverage(), 1.0);
  ASSERT_NE(trace.FindSpan("seal_barrier"), nullptr);
  EXPECT_EQ(trace.FindSpan("seal_barrier")->depth, 1u);
  EXPECT_EQ(trace.FindSpan("kway_merge")->duration, 10);
}

TEST(BatchTraceTest, CoverageReportsMissingSpans) {
  BatchTrace trace;
  trace.latency = 1000;
  trace.spans.push_back(TraceSpan{"accumulate", 0, 900, 0});
  EXPECT_DOUBLE_EQ(trace.Coverage(), 0.9);
}

}  // namespace
}  // namespace prompt
