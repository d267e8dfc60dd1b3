#include "core/accumulator_api.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::Accumulate;
using testing::KeyHistogram;
using testing::ZipfTuples;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

// The behavioural tests of the exact Accumulator; its output is pinned to
// recorded fingerprints in accumulator_differential_test.cc.
class AccumulatorTest : public ::testing::TestWithParam<AccumulatorKind> {
 protected:
  std::unique_ptr<Accumulator> Make(AccumulatorOptions opts = {}) const {
    return MakeAccumulator(GetParam(), opts);
  }
};

INSTANTIATE_TEST_SUITE_P(Kinds, AccumulatorTest,
                         ::testing::Values(AccumulatorKind::kFlat),
                         [](const auto& info) {
                           return std::string(AccumulatorKindName(info.param));
                         });

TEST_P(AccumulatorTest, EmptyBatch) {
  auto acc = Make();
  acc->Begin(kStart, kEnd);
  auto batch = acc->Seal();
  EXPECT_EQ(batch.num_tuples(), 0u);
  EXPECT_EQ(batch.num_keys(), 0u);
}

TEST_P(AccumulatorTest, CountsAreExact) {
  auto acc = Make();
  auto tuples = ZipfTuples(20000, 500, 1.0, kStart, kEnd);
  auto batch = Accumulate(*acc, tuples, kStart, kEnd);
  auto expected = KeyHistogram(tuples);

  EXPECT_EQ(batch.num_tuples(), tuples.size());
  EXPECT_EQ(batch.num_keys(), expected.size());
  std::map<KeyId, uint64_t> got;
  for (const auto& run : batch.keys()) got[run.key] = run.count;
  EXPECT_EQ(got, expected);
}

TEST_P(AccumulatorTest, ChainsContainAllTuplesOfKey) {
  auto acc = Make();
  auto tuples = ZipfTuples(5000, 100, 1.2, kStart, kEnd);
  auto batch = Accumulate(*acc, tuples, kStart, kEnd);
  for (const auto& run : batch.keys()) {
    uint64_t visited = 0;
    batch.ForEachTuple(run, 0, run.count, [&](const Tuple& t) {
      EXPECT_EQ(t.key, run.key);
      ++visited;
    });
    EXPECT_EQ(visited, run.count);
  }
}

TEST_P(AccumulatorTest, ChainSkipAndLimitSegmentTheChain) {
  auto acc = Make();
  acc->Begin(kStart, kEnd);
  for (int i = 0; i < 10; ++i) {
    acc->OnTuple(Tuple{kStart + i, 7, static_cast<double>(i)});
  }
  auto batch = acc->Seal();
  ASSERT_EQ(batch.keys().size(), 1u);
  const auto& run = batch.keys()[0];
  std::vector<double> seg;
  batch.ForEachTuple(run, 3, 4, [&](const Tuple& t) { seg.push_back(t.value); });
  // Chain preserves arrival order: skipping 3 takes values 3,4,5,6.
  ASSERT_EQ(seg.size(), 4u);
  EXPECT_DOUBLE_EQ(seg[0], 3.0);
  EXPECT_DOUBLE_EQ(seg[3], 6.0);
}

TEST_P(AccumulatorTest, PostSortIsExactlyDescending) {
  auto acc = Make();
  auto tuples = ZipfTuples(30000, 1000, 1.3, kStart, kEnd);
  acc->Begin(kStart, kEnd);
  for (const Tuple& t : tuples) acc->OnTuple(t);
  auto batch = acc->SealWithPostSort();
  for (size_t i = 1; i < batch.keys().size(); ++i) {
    EXPECT_GE(batch.keys()[i - 1].count, batch.keys()[i].count);
  }
}

TEST_P(AccumulatorTest, QuasiSortedOrderIsNearlyDescending) {
  AccumulatorOptions opts;
  opts.budget = 16;
  opts.estimated_tuples = 50000;
  opts.avg_keys = 1000;
  auto acc = Make(opts);
  auto tuples = ZipfTuples(50000, 1000, 1.1, kStart, kEnd);
  auto batch = Accumulate(*acc, tuples, kStart, kEnd);

  // Measure order quality: fraction of adjacent pairs in correct order.
  size_t ordered = 0;
  for (size_t i = 1; i < batch.keys().size(); ++i) {
    if (batch.keys()[i - 1].count >= batch.keys()[i].count) ++ordered;
  }
  double frac =
      static_cast<double>(ordered) / static_cast<double>(batch.keys().size() - 1);
  EXPECT_GT(frac, 0.85) << "quasi-sorted order should be mostly descending";

  // The heaviest key must surface near the front even with stale counts.
  uint64_t max_count = 0;
  for (const auto& run : batch.keys()) max_count = std::max(max_count, run.count);
  size_t max_pos = 0;
  for (size_t i = 0; i < batch.keys().size(); ++i) {
    if (batch.keys()[i].count == max_count) {
      max_pos = i;
      break;
    }
  }
  EXPECT_LT(max_pos, batch.keys().size() / 10);
}

TEST_P(AccumulatorTest, OrderingUpdatesRespectBudget) {
  AccumulatorOptions opts;
  opts.budget = 4;
  opts.estimated_tuples = 100000;
  opts.avg_keys = 100;
  auto acc = Make(opts);
  auto tuples = ZipfTuples(100000, 100, 0.8, kStart, kEnd);
  Accumulate(*acc, tuples, kStart, kEnd);
  // Each key gets 1 insert + at most `budget` repositionings.
  EXPECT_LE(acc->ordering_updates(), acc->num_keys() * opts.budget);
}

TEST_P(AccumulatorTest, LargerBudgetImprovesOrdering) {
  auto order_quality = [this](uint32_t budget) {
    AccumulatorOptions opts;
    opts.budget = budget;
    opts.estimated_tuples = 60000;
    opts.avg_keys = 2000;
    auto acc = Make(opts);
    auto tuples = ZipfTuples(60000, 2000, 1.0, kStart, kEnd, 7);
    auto batch = Accumulate(*acc, tuples, kStart, kEnd);
    // Kendall-ish metric: mean absolute displacement of the top 50 keys
    // versus the exact order.
    auto exact = batch.keys();
    std::stable_sort(exact.begin(), exact.end(),
                     [](const SortedKeyRun& a, const SortedKeyRun& b) {
                       return a.count > b.count;
                     });
    std::map<KeyId, size_t> pos;
    for (size_t i = 0; i < batch.keys().size(); ++i) {
      pos[batch.keys()[i].key] = i;
    }
    double disp = 0;
    size_t top = std::min<size_t>(50, exact.size());
    for (size_t i = 0; i < top; ++i) {
      disp += std::abs(static_cast<double>(pos[exact[i].key]) -
                       static_cast<double>(i));
    }
    return disp / static_cast<double>(top);
  };
  // Not strictly monotone per-seed, but a 16x budget should clearly help.
  EXPECT_LE(order_quality(32), order_quality(2) + 1.0);
}

TEST_P(AccumulatorTest, BeginResetsAllState) {
  auto acc = Make();
  auto tuples = ZipfTuples(1000, 50, 1.0, kStart, kEnd);
  Accumulate(*acc, tuples, kStart, kEnd);
  acc->Begin(kEnd, kEnd + Seconds(1));
  EXPECT_EQ(acc->num_tuples(), 0u);
  EXPECT_EQ(acc->num_keys(), 0u);
  acc->OnTuple(Tuple{kEnd + 5, 1, 1.0});
  auto batch = acc->Seal();
  EXPECT_EQ(batch.num_tuples(), 1u);
  ASSERT_EQ(batch.keys().size(), 1u);
  EXPECT_EQ(batch.keys()[0].count, 1u);
}

TEST_P(AccumulatorTest, ResetReleasesCapacity) {
  auto acc = Make();
  auto tuples = ZipfTuples(20000, 2000, 1.0, kStart, kEnd);
  Accumulate(*acc, tuples, kStart, kEnd);
  EXPECT_GT(acc->capacity_bytes(), 0u);
  acc->Reset();
  EXPECT_EQ(acc->num_tuples(), 0u);
  EXPECT_EQ(acc->num_keys(), 0u);
  // Reset must release the bulk of the batch storage (small fixed-size
  // tables may remain).
  EXPECT_LT(acc->capacity_bytes(), 64u * 1024u);
  // And the accumulator is reusable after a Reset.
  acc->Begin(kStart, kEnd);
  acc->OnTuple(Tuple{kStart + 1, 3, 1.0});
  auto batch = acc->Seal();
  EXPECT_EQ(batch.num_tuples(), 1u);
}

TEST_P(AccumulatorTest, TimeStepUpdatesLowFrequencyKeys) {
  // A key whose arrivals are far apart never satisfies f.step, but t.step
  // (Alg. 1 lines 15-19) still refreshes its ordering position over the
  // interval.
  AccumulatorOptions opts;
  opts.budget = 8;
  opts.estimated_tuples = 1000000;  // huge N_est => huge initial f.step
  opts.avg_keys = 1;
  auto acc = Make(opts);
  acc->Begin(0, Seconds(1));
  // Key 7 arrives 10 times, spread across the whole interval; key 1 floods
  // early so the ordering has competing mass.
  for (int i = 0; i < 50; ++i) acc->OnTuple(Tuple{Millis(1) + i, 1, 1.0});
  for (int i = 0; i < 10; ++i) {
    acc->OnTuple(Tuple{Millis(100) * (i + 1), 7, 1.0});
  }
  const uint64_t updates = acc->ordering_updates();
  // Key 7's time-step must have fired at least a few times (initial f.step
  // is ~125k arrivals, unreachable; only t.step can trigger).
  EXPECT_GE(updates, 3u);
  auto batch = acc->Seal();
  // Both keys report exact counts regardless of update cadence.
  for (const auto& run : batch.keys()) {
    if (run.key == 1) {
      EXPECT_EQ(run.count, 50u);
    }
    if (run.key == 7) {
      EXPECT_EQ(run.count, 10u);
    }
  }
}

TEST_P(AccumulatorTest, ZeroBudgetStillCountsExactly) {
  AccumulatorOptions opts;
  opts.budget = 0;  // no repositioning at all beyond the initial insert
  auto acc = Make(opts);
  auto tuples = ZipfTuples(5000, 200, 1.2, kStart, kEnd);
  auto batch = Accumulate(*acc, tuples, kStart, kEnd);
  EXPECT_EQ(testing::KeyHistogram(tuples).size(), batch.num_keys());
  std::map<KeyId, uint64_t> got;
  for (const auto& run : batch.keys()) got[run.key] = run.count;
  EXPECT_EQ(got, testing::KeyHistogram(tuples));
}

TEST_P(AccumulatorTest, SingleKeyBatch) {
  auto acc = Make();
  acc->Begin(kStart, kEnd);
  for (int i = 0; i < 1000; ++i) acc->OnTuple(Tuple{kStart + i, 99, 1.0});
  auto batch = acc->Seal();
  ASSERT_EQ(batch.keys().size(), 1u);
  EXPECT_EQ(batch.keys()[0].key, 99u);
  EXPECT_EQ(batch.keys()[0].count, 1000u);
}

TEST(AccumulatorFactoryTest, KindNamesRoundTrip) {
  EXPECT_STREQ(AccumulatorKindName(AccumulatorKind::kFlat), "flat");
}

TEST(AccumulatorFactoryTest, FactoryReportsKindName) {
  EXPECT_STREQ(MakeAccumulator(AccumulatorKind::kFlat)->name(), "flat");
}

// The sealed layout every producer writes and the ingest merge relies on:
// key runs tile the front of tuples() with no gap or overlap, tail buckets
// tile the rest in bucket order, and each run holds exactly its key's
// tuples in arrival order.
TEST(SealedLayoutTest, RunsThenTailBucketsTileTheTuples) {
  AccumulatorOptions opts;
  opts.sketch.capacity = 16;
  opts.sketch.tail_buckets = 8;
  const auto tuples = ZipfTuples(8000, 500, 1.1, kStart, kEnd);
  for (const AccumulatorKind kind :
       {AccumulatorKind::kFlat, AccumulatorKind::kSketch}) {
    auto acc = MakeAccumulator(kind, opts);
    for (const bool post_sort : {false, true}) {
      acc->Begin(kStart, kEnd);
      for (const Tuple& t : tuples) acc->OnTuple(t);
      const AccumulatedBatch batch =
          post_sort ? acc->SealWithPostSort() : acc->Seal();
      const std::string ctx = std::string(acc->name()) +
                              (post_sort ? " post_sort" : " seal");
      ASSERT_EQ(batch.tuples().size(), tuples.size()) << ctx;

      std::vector<SortedKeyRun> runs = batch.keys();
      std::sort(runs.begin(), runs.end(),
                [](const SortedKeyRun& a, const SortedKeyRun& b) {
                  return a.offset < b.offset;
                });
      uint64_t next = 0;
      for (const SortedKeyRun& run : runs) {
        EXPECT_EQ(run.offset, next) << ctx << " key " << run.key;
        next = run.offset + run.count;
        TimeMicros last_ts = kStart;
        for (const Tuple& t : batch.tuples(run)) {
          EXPECT_EQ(t.key, run.key) << ctx;
          EXPECT_GE(t.ts, last_ts) << ctx << " key " << run.key;
          last_ts = t.ts;
        }
      }
      for (const TailBucket& bucket : batch.tail()) {
        EXPECT_EQ(bucket.offset, next) << ctx;
        next = bucket.offset + bucket.tuples;
      }
      EXPECT_EQ(next, tuples.size()) << ctx;
      EXPECT_EQ(batch.tail().empty(), kind != AccumulatorKind::kSketch) << ctx;
    }
  }
}

}  // namespace
}  // namespace prompt
