#include "baselines/online_partitioners.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "stats/metrics.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

using testing::BatchKeyHistogram;
using testing::KeyHistogram;
using testing::RunBatch;
using testing::ZipfTuples;

constexpr TimeMicros kStart = 0;
constexpr TimeMicros kEnd = Seconds(1);

TEST(ShufflePartitionerTest, BlockSizesAreExactlyEqual) {
  ShufflePartitioner partitioner;
  auto tuples = ZipfTuples(8000, 100, 1.5, kStart, kEnd);
  auto batch = RunBatch(partitioner, tuples, 8, kStart, kEnd);
  for (const auto& block : batch.blocks) {
    EXPECT_EQ(block.size(), 1000u);
  }
  auto m = ComputeBlockMetrics(batch);
  EXPECT_DOUBLE_EQ(m.bsi, 0.0);
}

TEST(ShufflePartitionerTest, DestroysKeyLocality) {
  ShufflePartitioner partitioner;
  auto tuples = ZipfTuples(20000, 50, 1.0, kStart, kEnd);
  auto batch = RunBatch(partitioner, tuples, 8, kStart, kEnd);
  auto m = ComputeBlockMetrics(batch);
  // Frequent keys land in every block: KSR approaches the block count.
  EXPECT_GT(m.ksr, 4.0);
}

TEST(HashPartitionerTest, PerfectKeyLocality) {
  HashPartitioner partitioner;
  auto tuples = ZipfTuples(20000, 500, 1.2, kStart, kEnd);
  auto batch = RunBatch(partitioner, tuples, 8, kStart, kEnd);
  auto m = ComputeBlockMetrics(batch);
  EXPECT_DOUBLE_EQ(m.ksr, 1.0);
  EXPECT_EQ(m.split_keys, 0u);
  // Every tuple of a key in exactly one block.
  std::map<KeyId, std::set<uint32_t>> blocks_of_key;
  for (const auto& block : batch.blocks) {
    for (const auto& f : block.fragments()) {
      blocks_of_key[f.key].insert(block.block_id());
    }
  }
  for (const auto& [k, blocks] : blocks_of_key) EXPECT_EQ(blocks.size(), 1u);
}

TEST(HashPartitionerTest, SkewCausesSizeImbalance) {
  HashPartitioner partitioner;
  auto tuples = ZipfTuples(40000, 10000, 1.6, kStart, kEnd);
  auto batch = RunBatch(partitioner, tuples, 8, kStart, kEnd);
  auto m = ComputeBlockMetrics(batch);
  // The block holding the hottest key dominates.
  EXPECT_GT(m.bsi, 0.5 * m.avg_block_size);
}

TEST(TimeBasedPartitionerTest, AssignsByArrivalTime) {
  TimeBasedPartitioner partitioner;
  partitioner.Begin(4, kStart, kEnd);
  // Tuples in the first quarter of the interval -> block 0, etc.
  partitioner.OnTuple(Tuple{kStart + 10, 1, 1.0});
  partitioner.OnTuple(Tuple{kStart + Seconds(1) / 4 + 10, 2, 1.0});
  partitioner.OnTuple(Tuple{kStart + Seconds(1) / 2 + 10, 3, 1.0});
  partitioner.OnTuple(Tuple{kStart + 3 * Seconds(1) / 4 + 10, 4, 1.0});
  auto batch = partitioner.Seal(0);
  for (uint32_t b = 0; b < 4; ++b) {
    ASSERT_EQ(batch.blocks[b].size(), 1u) << "block " << b;
    EXPECT_EQ(batch.blocks[b].tuples()[0].key, b + 1);
  }
}

TEST(TimeBasedPartitionerTest, VariableRateSkewsBlockSizes) {
  TimeBasedPartitioner partitioner;
  partitioner.Begin(4, kStart, kEnd);
  // 4x the tuples in the last quarter of the interval (a rate spike).
  for (int i = 0; i < 1000; ++i) {
    partitioner.OnTuple(
        Tuple{kStart + i * (Seconds(1) * 3 / 4) / 1000, 1, 1.0});
  }
  for (int i = 0; i < 4000; ++i) {
    partitioner.OnTuple(Tuple{
        kStart + Seconds(1) * 3 / 4 + i * (Seconds(1) / 4) / 4000, 2, 1.0});
  }
  auto batch = partitioner.Seal(0);
  auto m = ComputeBlockMetrics(batch);
  EXPECT_GT(m.bsi, 2.0 * m.avg_block_size);  // spike block ~4000 vs avg 1250
}

TEST(KeySplitPartitionerTest, KeysTouchAtMostDBlocks) {
  for (uint32_t d : {2u, 5u}) {
    KeySplitPartitioner partitioner(d);
    auto tuples = ZipfTuples(30000, 300, 1.4, kStart, kEnd, /*seed=*/d);
    auto batch = RunBatch(partitioner, tuples, 12, kStart, kEnd);
    std::map<KeyId, std::set<uint32_t>> blocks_of_key;
    for (const auto& block : batch.blocks) {
      for (const auto& f : block.fragments()) {
        blocks_of_key[f.key].insert(block.block_id());
      }
    }
    for (const auto& [k, blocks] : blocks_of_key) {
      EXPECT_LE(blocks.size(), d) << "key " << k << " d=" << d;
    }
  }
}

TEST(KeySplitPartitionerTest, BalancesSizesUnderSkew) {
  KeySplitPartitioner partitioner(5);
  auto tuples = ZipfTuples(40000, 5000, 1.5, kStart, kEnd);
  auto batch = RunBatch(partitioner, tuples, 8, kStart, kEnd);
  auto m = ComputeBlockMetrics(batch);
  EXPECT_LT(m.bsi, 0.25 * m.avg_block_size);
}

TEST(KeySplitPartitionerTest, NamesMatchThePaper) {
  EXPECT_STREQ(KeySplitPartitioner(2).name(), "PK2");
  EXPECT_STREQ(KeySplitPartitioner(5).name(), "PK5");
}

TEST(CamPartitionerTest, TradesSizeAndCardinality) {
  CamPartitioner cam(4);
  KeySplitPartitioner pk5(5);
  auto tuples = ZipfTuples(40000, 2000, 1.2, kStart, kEnd);
  auto cam_batch = RunBatch(cam, tuples, 8, kStart, kEnd);
  auto pk5_batch = RunBatch(pk5, tuples, 8, kStart, kEnd);
  auto cam_m = ComputeBlockMetrics(cam_batch);
  auto pk5_m = ComputeBlockMetrics(pk5_batch);
  // cAM should fragment keys less than PK5 while staying size-balanced.
  EXPECT_LT(cam_m.ksr, pk5_m.ksr);
  EXPECT_LT(cam_m.bsi, 0.5 * cam_m.avg_block_size);
}

TEST(OnlinePartitionersTest, AllConserveTuples) {
  auto tuples = ZipfTuples(15000, 700, 1.1, kStart, kEnd);
  auto expected = KeyHistogram(tuples);
  ShufflePartitioner shuffle;
  HashPartitioner hash;
  TimeBasedPartitioner time_based;
  KeySplitPartitioner pk2(2);
  CamPartitioner cam(4);
  for (BatchPartitioner* p : std::initializer_list<BatchPartitioner*>{
           &shuffle, &hash, &time_based, &pk2, &cam}) {
    auto batch = RunBatch(*p, tuples, 8, kStart, kEnd);
    EXPECT_EQ(BatchKeyHistogram(batch), expected) << p->name();
    EXPECT_EQ(batch.num_tuples, tuples.size()) << p->name();
    EXPECT_EQ(batch.num_keys, expected.size()) << p->name();
  }
}

TEST(OnlinePartitionersTest, NumKeysEqualsADistinctRecountOfTheBlocks) {
  // num_keys is taken from the seal's split-flag table; recount it from the
  // blocks' tuples, for a skewed batch and an empty one.
  TimeBasedPartitioner time_based;
  ShufflePartitioner shuffle;
  HashPartitioner hash;
  KeySplitPartitioner pk2(2);
  KeySplitPartitioner pk5(5);
  CamPartitioner cam(4);
  const std::vector<Tuple> skewed = ZipfTuples(12000, 900, 1.2, kStart, kEnd);
  const std::vector<Tuple> empty;
  for (BatchPartitioner* p : std::initializer_list<BatchPartitioner*>{
           &time_based, &shuffle, &hash, &pk2, &pk5, &cam}) {
    for (const std::vector<Tuple>* tuples : {&skewed, &empty}) {
      auto batch = RunBatch(*p, *tuples, 8, kStart, kEnd);
      std::set<KeyId> distinct;
      for (const auto& block : batch.blocks) {
        for (const Tuple& t : block.tuples()) distinct.insert(t.key);
      }
      EXPECT_EQ(batch.num_keys, distinct.size())
          << p->name() << ", " << tuples->size() << " tuples";
    }
  }
}

TEST(OnlinePartitionersTest, BeginResetsState) {
  ShufflePartitioner partitioner;
  auto tuples = ZipfTuples(1000, 10, 1.0, kStart, kEnd);
  RunBatch(partitioner, tuples, 4, kStart, kEnd);
  auto batch2 = RunBatch(partitioner, tuples, 4, kStart, kEnd, 1);
  EXPECT_EQ(batch2.num_tuples, 1000u);
  for (const auto& block : batch2.blocks) EXPECT_EQ(block.size(), 250u);
}

}  // namespace
}  // namespace prompt
