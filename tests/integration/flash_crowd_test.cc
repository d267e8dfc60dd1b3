// Satellite scenario test: the flash-crowd preset (60% of tuples collapse
// onto 3 viral keys for a 4 s window) must actually register as skew — the
// autopsy draws bucket-skew/straggler verdicts during the burst — and an
// adaptive run starting on the cheap Hash rung must escalate up the ladder
// while the crowd is live.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/factory.h"
#include "engine/engine.h"
#include "obs/autopsy.h"
#include "workload/scenarios.h"

namespace prompt {
namespace {

constexpr TimeMicros kInterval = Millis(250);
// The preset's burst spans [4 s, 8 s): batches 16..31 at 250 ms.
constexpr uint32_t kBatches = 48;
constexpr uint64_t kBurstFirstBatch = 16;
constexpr uint64_t kBurstLastBatch = 31;

EngineOptions FlashCrowdOptions() {
  EngineOptions opts;
  opts.batch_interval = kInterval;
  opts.obs.collect_partition_metrics = true;
  opts.obs.autopsy.min_excess_frac = 0.08;
  // Reduce-heavy cost model: viral-key concentration lands on reduce
  // buckets, which is the kBucketSkew signature the controller reacts to.
  opts.cost.map_per_tuple_us = 2;
  opts.cost.reduce_per_tuple_us = 50;
  opts.use_prompt_reduce = true;
  opts.unstable_queue_intervals = 1e9;
  opts.adapt.calm_split_key_frac = 0.05;
  return opts;
}

TEST(FlashCrowdScenarioTest, BurstDrawsSkewVerdictsFromTheAutopsy) {
  ScenarioSpec scenario = MakeScenario(ScenarioId::kFlashCrowd, 8000, 7);
  EngineOptions opts = FlashCrowdOptions();
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash),
                          scenario.source.get());
  RunSummary summary = engine.Run(kBatches);
  ASSERT_EQ(summary.batches.size(), kBatches);

  uint64_t burst_skew = 0;
  uint64_t preburst_skew = 0;
  for (const BatchReport& report : summary.batches) {
    const BatchAutopsy& autopsy = report.autopsy;
    const bool skew = autopsy.dominant == BatchCause::kBucketSkew ||
                      autopsy.dominant == BatchCause::kStragglerCore;
    if (!skew) continue;
    if (report.batch_id >= kBurstFirstBatch &&
        report.batch_id <= kBurstLastBatch) {
      ++burst_skew;
    } else if (report.batch_id < kBurstFirstBatch) {
      ++preburst_skew;
    }
  }
  // The crowd is unmissable: at least one skew verdict inside the burst,
  // and the quiet lead-in must not be what trips it.
  EXPECT_GE(burst_skew, 1u);
  EXPECT_EQ(preburst_skew, 0u);
}

TEST(FlashCrowdScenarioTest, AdaptiveControllerEscalatesDuringTheBurst) {
  ScenarioSpec scenario = MakeScenario(ScenarioId::kFlashCrowd, 8000, 7);
  EngineOptions opts = FlashCrowdOptions();
  opts.adapt.enabled = true;
  // Start on the cheapest rung: the crowd is what must force the climb.
  MicroBatchEngine engine(opts, JobSpec::WordCount(4),
                          CreatePartitioner(PartitionerType::kHash),
                          scenario.source.get());
  RunSummary summary = engine.Run(kBatches);

  EXPECT_GE(summary.technique_switches_up, 1u);
  bool saw_burst_escalation = false;
  for (const auto& s : summary.technique_switches) {
    if (s.reason != "skew") continue;
    EXPECT_GE(s.after_batch, kBurstFirstBatch);
    EXPECT_EQ(s.to, PartitionerType::kPrompt);
    saw_burst_escalation = true;
  }
  EXPECT_TRUE(saw_burst_escalation);
}

}  // namespace
}  // namespace prompt
