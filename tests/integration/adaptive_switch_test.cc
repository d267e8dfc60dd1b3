// End-to-end adaptive technique switching over a mid-run skew shift: a
// SkewShiftSource stream that is uniform for the first half and heavily
// Zipf-skewed for the second. Starting at Prompt, the controller must walk
// the ladder down (calm evidence) during the uniform phase and escalate back
// to Prompt (skew autopsies under Hash) after the shift — and because
// switches only change *placement*, never tuple→key content, the per-key
// window aggregates must be bit-identical to a static run over the same
// stream (WordCount sums small integers, so double addition is exact in any
// order).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "workload/sources.h"

namespace prompt {
namespace {

constexpr uint32_t kBatches = 24;
constexpr uint32_t kShiftBatch = 12;
constexpr TimeMicros kInterval = Millis(250);

std::unique_ptr<SkewShiftSource> MakeShiftSource() {
  ZipfKeyedSource::Params params;
  params.cardinality = 500;
  params.zipf = 0.0;  // phase 1: uniform
  params.seed = 42;
  params.rate = std::make_shared<ConstantRate>(8000);
  return std::make_unique<SkewShiftSource>(std::move(params),
                                           /*zipf_after=*/2.0,
                                           /*shift_at=*/kShiftBatch * kInterval);
}

EngineOptions AdaptiveRunOptions() {
  EngineOptions opts;
  opts.batch_interval = kInterval;
  opts.obs.collect_partition_metrics = true;
  // Floor the autopsy above hash-bucket noise on uniform data but well below
  // the shifted phase's hot-bucket excess.
  opts.obs.autopsy.min_excess_frac = 0.08;
  // Reduce-heavy cost model: the hot reduce bucket is what skewed batches
  // pay for, which is the kBucketSkew signature the controller listens for.
  opts.cost.map_per_tuple_us = 2;
  opts.cost.reduce_per_tuple_us = 50;
  opts.use_prompt_reduce = true;
  opts.unstable_queue_intervals = 1e9;
  // At ~4 tuples/key the B-BPFI packer splits ~2-3% of keys on *uniform*
  // data purely from block-boundary straddling; lift the calm bound above
  // that floor so the gauge discriminates heavy-key splitting, not packing
  // noise.
  opts.adapt.calm_split_key_frac = 0.05;
  return opts;
}

RunSummary RunStatic(PartitionerType type) {
  auto source = MakeShiftSource();
  EngineOptions opts = AdaptiveRunOptions();
  MicroBatchEngine engine(opts, JobSpec::WordCount(4), CreatePartitioner(type),
                          source.get());
  return engine.Run(kBatches);
}

TEST(AdaptiveSwitchIntegrationTest, SwitchesBothDirectionsAcrossTheShift) {
  auto source = MakeShiftSource();
  EngineOptions opts = AdaptiveRunOptions();
  opts.adapt.enabled = true;
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary summary = engine.Run(kBatches);

  // Uniform phase sheds robustness; skewed phase escalates back.
  EXPECT_GE(summary.technique_switches_down, 1u);
  EXPECT_GE(summary.technique_switches_up, 1u);
  ASSERT_FALSE(summary.technique_switches.empty());

  // The first move is a de-escalation off the initial Prompt rung, and it
  // happens strictly inside the uniform phase.
  const auto& first = summary.technique_switches.front();
  EXPECT_EQ(first.from, PartitionerType::kPrompt);
  EXPECT_EQ(first.reason, "calm");
  EXPECT_LT(first.after_batch, kShiftBatch);

  // Every escalation lands on the ladder's top rung (Prompt) and only fires
  // once the shift is live.
  bool saw_up = false;
  for (const auto& s : summary.technique_switches) {
    if (s.reason == "skew") {
      saw_up = true;
      EXPECT_EQ(s.to, PartitionerType::kPrompt);
      EXPECT_GE(s.after_batch, kShiftBatch);
    }
  }
  EXPECT_TRUE(saw_up);
}

TEST(AdaptiveSwitchIntegrationTest, ReportsMarkTheFirstBatchAfterASwitch) {
  auto source = MakeShiftSource();
  EngineOptions opts = AdaptiveRunOptions();
  opts.adapt.enabled = true;
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary summary = engine.Run(kBatches);
  ASSERT_FALSE(summary.technique_switches.empty());

  // Each recorded switch after batch i marks batch i+1's report: it carries
  // the new technique plus the switched-from annotation (the source of the
  // depth-1 trace span).
  for (const auto& s : summary.technique_switches) {
    const size_t next = static_cast<size_t>(s.after_batch) + 1;
    ASSERT_LT(next, summary.batches.size());
    const BatchReport& r = summary.batches[next];
    EXPECT_TRUE(r.technique_switched) << "batch " << next;
    EXPECT_EQ(r.switched_from, static_cast<int32_t>(s.from));
    EXPECT_EQ(r.technique, static_cast<int32_t>(s.to));
  }
  // Unswitched batches carry the active technique but no switch mark.
  EXPECT_FALSE(summary.batches.front().technique_switched);
  EXPECT_EQ(summary.batches.front().technique,
            static_cast<int32_t>(PartitionerType::kPrompt));
}

TEST(AdaptiveSwitchIntegrationTest, WindowAggregatesMatchStaticRunsExactly) {
  auto source = MakeShiftSource();
  EngineOptions opts = AdaptiveRunOptions();
  opts.adapt.enabled = true;
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kPrompt),
                          source.get());
  RunSummary summary = engine.Run(kBatches);
  ASSERT_GE(summary.technique_switches.size(), 2u);  // the run did adapt

  const std::unordered_map<KeyId, double>& adaptive = engine.window().Result();
  ASSERT_FALSE(adaptive.empty());

  // Partitioning chooses placement only: every static replay of the same
  // stream must produce the same per-key window sums, bit for bit.
  for (PartitionerType type :
       {PartitionerType::kHash, PartitionerType::kPk2,
        PartitionerType::kPrompt}) {
    auto static_source = MakeShiftSource();
    MicroBatchEngine static_engine(AdaptiveRunOptions(), JobSpec::WordCount(4),
                                   CreatePartitioner(type),
                                   static_source.get());
    static_engine.Run(kBatches);
    const auto& got = static_engine.window().Result();
    ASSERT_EQ(got.size(), adaptive.size()) << PartitionerTypeName(type);
    for (const auto& [key, value] : adaptive) {
      auto it = got.find(key);
      ASSERT_NE(it, got.end()) << PartitionerTypeName(type);
      EXPECT_EQ(it->second, value) << PartitionerTypeName(type);
    }
  }
}

TEST(AdaptiveSwitchIntegrationTest, StaticRunsNeverSwitch) {
  RunSummary summary = RunStatic(PartitionerType::kHash);
  EXPECT_TRUE(summary.technique_switches.empty());
  EXPECT_EQ(summary.technique_switches_up, 0u);
  EXPECT_EQ(summary.technique_switches_down, 0u);
}

}  // namespace
}  // namespace prompt
