// Adversarial serde corpus: the durable store feeds DecodeBatch bytes that
// crossed a crash, so the decoder must survive truncation at every length,
// any single bit flip, and forged counts engineered to overflow size
// arithmetic — always a clean Status, never a crash or giant allocation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>

#include "common/random.h"
#include "core/prompt_partitioner.h"
#include "engine/serde.h"
#include "testing/test_helpers.h"

namespace prompt {
namespace {

// EncodeBatch/DecodeBlock copy tuples as raw bytes; the wire layout is
// (ts, key, value) at these offsets.
static_assert(offsetof(Tuple, ts) == 0);
static_assert(offsetof(Tuple, key) == 8);
static_assert(offsetof(Tuple, value) == 16);

using testing::RunBatch;
using testing::ZipfTuples;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

std::string SmallBatchBytes() {
  PromptPartitioner partitioner;
  auto data = ZipfTuples(40, 50, 1.1, 0, Seconds(1));
  return EncodeBatch(RunBatch(partitioner, data, 2, 0, Seconds(1), 9));
}

TEST(SerdeHardeningTest, TruncationAtEveryLengthFailsCleanly) {
  const std::string bytes = SmallBatchBytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DecodeBatch(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_TRUE(r.status().IsInvalid()) << "cut=" << cut;
  }
}

TEST(SerdeHardeningTest, EveryBitFlipIsDetected) {
  const std::string bytes = SmallBatchBytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(DecodeBatch(flipped).ok()) << "byte=" << i << " bit=" << bit;
    }
  }
}

TEST(SerdeHardeningTest, ForgedTupleCountRejectedWithoutAllocation) {
  // A count near 2^64 wraps count*24 back into small numbers: the decoder
  // must bound by division, reject, and above all never reserve() by it.
  for (uint64_t forged :
       {~0ull, ~0ull / 24 + 1, 0x0AAAAAAAAAAAAAAAull, 1ull << 62}) {
    std::string block;
    PutU32(0, &block);        // block_id
    PutU64(forged, &block);   // tuple count
    PutU64(0, &block);        // fragment count
    block.append(48, '\0');   // a couple of real tuples' worth of bytes
    size_t off = 0;
    auto r = DecodeBlock(block, &off);
    ASSERT_FALSE(r.ok()) << "forged=" << forged;
    EXPECT_TRUE(r.status().IsInvalid());
  }
}

TEST(SerdeHardeningTest, ForgedFragmentCountRejectedWithoutAllocation) {
  for (uint64_t forged : {~0ull, ~0ull / 17 + 1, 1ull << 61}) {
    std::string block;
    PutU32(1, &block);
    PutU64(0, &block);        // no tuples
    PutU64(forged, &block);   // fragment count
    block.append(34, '\0');
    size_t off = 0;
    auto r = DecodeBlock(block, &off);
    ASSERT_FALSE(r.ok()) << "forged=" << forged;
    EXPECT_TRUE(r.status().IsInvalid());
  }
}

TEST(SerdeHardeningTest, ForgedBlockCountRejected) {
  // Hand-build a batch whose checksum is *valid* so the forged block count
  // reaches the header bound — corruption checks must not be the only
  // thing standing between a forged count and blocks.reserve().
  std::string payload;
  PutU64(1, &payload);               // batch_id
  PutU64(0, &payload);               // seal_time
  PutU64(0, &payload);               // num_tuples
  PutU64(0, &payload);               // num_keys
  PutU64(0, &payload);               // partition_cost
  PutU32(0xFFFFFFFFu, &payload);     // num_blocks: forged
  std::string out;
  PutU32(kBatchMagic, &out);
  PutU64(BatchChecksum(payload), &out);
  out += payload;
  auto r = DecodeBatch(out);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("inconsistent"), std::string::npos);
}

TEST(SerdeHardeningTest, OldFormatBatchRejected) {
  // A batch in the retired "PRMB" envelope (FNV-1a checksum) must fail as
  // Invalid and say why, never be decoded under the new checksum rules.
  std::string bytes = SmallBatchBytes();
  const uint32_t retired_magic = 0x50524d42u;  // "PRMB"
  std::memcpy(bytes.data(), &retired_magic, 4);
  auto r = DecodeBatch(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
  EXPECT_NE(r.status().message().find("retired"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("PRMB"), std::string::npos)
      << r.status().message();
}

TEST(SerdeHardeningTest, RandomGarbageCorpusNeverCrashes) {
  Rng rng(2024);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(rng.NextBounded(300), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    EXPECT_FALSE(DecodeBatch(garbage).ok());
    size_t off = 0;
    (void)DecodeBlock(garbage, &off);  // must return, cleanly, either way
  }
}

TEST(SerdeHardeningTest, TruncatedBlockPayloadInsideValidLengths) {
  // A block whose header is plausible (small counts) but whose payload was
  // cut mid-tuple: the per-field reads must catch it.
  std::string block;
  PutU32(2, &block);
  PutU64(3, &block);   // claims 3 tuples
  PutU64(0, &block);
  block.append(3 * 24, 'x');
  for (size_t cut = 20; cut < block.size(); cut += 7) {
    std::string partial = block.substr(0, cut);
    size_t off = 0;
    auto r = DecodeBlock(partial, &off);
    if (cut < block.size()) {
      EXPECT_FALSE(r.ok()) << "cut=" << cut;
    }
  }
}

}  // namespace
}  // namespace prompt
