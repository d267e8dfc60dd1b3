// DurableBlockStore: segment format, CRC torn-tail detection, index
// rebuild on reopen, tombstone replay, prefix GC, compaction, crash
// simulation and the fsync-policy durability contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics_registry.h"
#include "store/block_store.h"
#include "store/crc32c.h"
#include "store/segment.h"

namespace prompt {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

StoreOptions Opts(const std::string& dir,
                  FsyncPolicy fsync = FsyncPolicy::kBatch) {
  StoreOptions o;
  o.dir = dir;
  o.fsync = fsync;
  return o;
}

std::unique_ptr<DurableBlockStore> MustOpen(const StoreOptions& options) {
  auto store = DurableBlockStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueUnsafe();
}

std::string Body(uint64_t id, size_t len = 64) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((id * 131 + i * 7) & 0xff);
  }
  return s;
}

TEST(Crc32cTest, KnownVector) {
  // The check value every CRC-32C implementation agrees on.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t chunked = 0;
  for (size_t i = 0; i < data.size(); i += 5) {
    chunked = Crc32c(data.data() + i, std::min<size_t>(5, data.size() - i),
                     chunked);
  }
  EXPECT_EQ(chunked, whole);
}

TEST(Crc32cTest, MaskRoundTripAndDisplacement) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);  // the point of masking
  }
}

std::string RandomBytes(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng.NextBounded(256));
  return s;
}

// Computed by a static initialiser, before main(): the CPU-feature check
// behind Crc32c must already give the right path then.
const uint32_t kCrcAtStaticInit = Crc32c("123456789", 9);

TEST(Crc32cTest, WorksDuringStaticInitialisation) {
  EXPECT_EQ(kCrcAtStaticInit, 0xE3069283u);
}

TEST(Crc32cTest, DispatchedEqualsPortableAtEveryLengthAndOffset) {
  // Crc32c may run the SSE4.2 instruction; the table path must agree
  // byte-for-byte, including the unaligned heads and sub-word tails.
  const std::string data = RandomBytes(1024 + 8, 1);
  size_t mismatches = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const char* p = data.data() + offset;
      if (Crc32c(p, len) != Crc32cPortable(p, len)) ++mismatches;
      if (Crc32c(p, len, 0x9E3779B9u) != Crc32cPortable(p, len, 0x9E3779B9u)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Crc32cTest, InitChainsAcrossEverySplitPoint) {
  const std::string data = RandomBytes(1024, 2);
  const uint32_t whole = Crc32cPortable(data.data(), data.size());
  EXPECT_EQ(Crc32c(data.data(), data.size()), whole);
  for (size_t split = 0; split <= data.size(); ++split) {
    const char* tail = data.data() + split;
    const size_t tail_len = data.size() - split;
    EXPECT_EQ(Crc32c(tail, tail_len, Crc32c(data.data(), split)), whole)
        << "split=" << split;
    EXPECT_EQ(Crc32cPortable(tail, tail_len,
                             Crc32cPortable(data.data(), split)),
              whole)
        << "split=" << split;
  }
}

/// The bytes a writev() over `parts` would still write.
std::string Remaining(std::span<iovec> parts) {
  std::string s;
  for (const iovec& part : parts) {
    s.append(static_cast<const char*>(part.iov_base), part.iov_len);
  }
  return s;
}

TEST(SegmentTest, ConsumeIovecsAtEverySplitPoint) {
  // A record as SegmentWriter::Append writes it — frame, payload header,
  // body — and a tombstone-shaped one whose body is empty. Every pair of
  // short writes (first, then second) must leave exactly the suffix.
  for (std::string body : {std::string("body bytes of a record"),
                           std::string()}) {
    std::string frame = "LENGCRC!";
    std::string header = "kownerbatchid";
    std::string record = frame + header + body;
    for (size_t first = 0; first <= record.size(); ++first) {
      for (size_t second = 0; first + second <= record.size(); ++second) {
        iovec parts[3] = {{frame.data(), frame.size()},
                          {header.data(), header.size()},
                          {body.data(), body.size()}};
        std::span<iovec> left = ConsumeIovecs(parts, first);
        ASSERT_EQ(Remaining(left), record.substr(first)) << "first=" << first;
        left = ConsumeIovecs(left, second);
        ASSERT_EQ(Remaining(left), record.substr(first + second))
            << "first=" << first << " second=" << second;
        EXPECT_EQ(left.empty(), first + second == record.size());
      }
    }
  }
}

TEST(SegmentTest, HeaderBodyAppendFramesLikeOnePayload) {
  // Append(header, body) must put on disk exactly the bytes of a
  // one-part record of header + body: one length, one CRC over both.
  const std::string dir = FreshDir("seg_two_part");
  std::filesystem::create_directories(dir);
  const std::string header = "0123456789abc";
  const std::string body = Body(3, 500);
  std::string files[2];
  for (int two_part = 0; two_part < 2; ++two_part) {
    const std::string path =
        dir + "/seg-00000" + std::to_string(two_part) + ".log";
    auto writer = SegmentWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    auto offset = two_part ? (*writer)->Append(header, body)
                           : (*writer)->Append(header + body);
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, kSegmentHeaderBytes);
    EXPECT_EQ((*writer)->size(),
              kSegmentHeaderBytes + kRecordHeaderBytes + header.size() +
                  body.size());
    writer->reset();
    std::ifstream in(path, std::ios::binary);
    files[two_part].assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(files[0], files[1]);
  auto scan = ScanSegmentFile(dir + "/seg-000001.log");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, header + body);
}

TEST(SegmentTest, ScanOfUnreadableFileIsAnIOError) {
  const std::string dir = FreshDir("seg_unreadable");
  std::filesystem::create_directories(dir);
  auto missing = ScanSegmentFile(dir + "/seg-000000.log");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError());
  auto directory = ScanSegmentFile(dir);
  ASSERT_FALSE(directory.ok());
  EXPECT_TRUE(directory.status().IsIOError());
}

TEST(FsyncPolicyTest, ParseRoundTrip) {
  for (FsyncPolicy p :
       {FsyncPolicy::kNever, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    auto parsed = ParseFsyncPolicy(FsyncPolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
}

TEST(SegmentTest, ScanReturnsEveryAppendedRecord) {
  const std::string dir = FreshDir("seg_roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg-000000.log";
  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  std::vector<std::string> payloads = {"alpha", "", Body(7, 300), "z"};
  for (const std::string& p : payloads) {
    ASSERT_TRUE((*writer)->Append(p).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
  writer->reset();

  auto scan = ScanSegmentFile(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->header_ok);
  ASSERT_EQ(scan->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan->records[i].payload, payloads[i]);
  }
  EXPECT_EQ(scan->valid_bytes, scan->file_bytes);
  EXPECT_EQ(scan->torn_records, 0u);
}

TEST(SegmentTest, ScanStopsAtTornTail) {
  const std::string dir = FreshDir("seg_torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg-000000.log";
  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("first").ok());
  ASSERT_TRUE((*writer)->Append("second").ok());
  const uint64_t valid = (*writer)->size();
  writer->reset();
  {
    // A crash mid-append: a length prefix promising more bytes than exist.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write("xx", 2);
  }

  auto scan = ScanSegmentFile(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].payload, "first");
  EXPECT_EQ(scan->valid_bytes, valid);
  EXPECT_EQ(scan->torn_records, 1u);
  EXPECT_EQ(scan->torn_bytes, 6u);
}

TEST(SegmentTest, ScanStopsAtBitFlip) {
  const std::string dir = FreshDir("seg_flip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/seg-000000.log";
  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("first").ok());
  const uint64_t second_at = (*writer)->size();
  ASSERT_TRUE((*writer)->Append("second").ok());
  ASSERT_TRUE((*writer)->Append("third").ok());
  writer->reset();
  {
    // Flip one payload byte of the middle record: its CRC must fail, and
    // nothing after it can be trusted (offsets may be forged too).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(second_at + kRecordHeaderBytes));
    f.put('X');
  }

  auto scan = ScanSegmentFile(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "first");
  EXPECT_EQ(scan->valid_bytes, second_at);
  EXPECT_EQ(scan->torn_records, 1u);
}

TEST(BlockStoreTest, PutGetRoundTrip) {
  auto store = MustOpen(Opts(FreshDir("put_get")));
  for (uint64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(store->Put(0, id, Body(id)).ok());
  }
  EXPECT_EQ(store->live_batches(), 5u);
  for (uint64_t id = 0; id < 5; ++id) {
    auto got = store->Get(0, id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, Body(id));
  }
  EXPECT_TRUE(store->Contains(0, 3));
  EXPECT_FALSE(store->Contains(0, 99));
  EXPECT_FALSE(store->Get(0, 99).ok());
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(BlockStoreTest, RePutOverwrites) {
  auto store = MustOpen(Opts(FreshDir("reput")));
  ASSERT_TRUE(store->Put(0, 7, "old").ok());
  ASSERT_TRUE(store->Put(0, 7, "new and longer").ok());
  EXPECT_EQ(store->live_batches(), 1u);
  auto got = store->Get(0, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "new and longer");
  EXPECT_EQ(store->live_bytes(), 14u);
}

TEST(BlockStoreTest, OwnersAreNamespaced) {
  auto store = MustOpen(Opts(FreshDir("owners")));
  ASSERT_TRUE(store->Put(0, 5, "tenant-zero").ok());
  ASSERT_TRUE(store->Put(1, 5, "tenant-one").ok());
  EXPECT_EQ(*store->Get(0, 5), "tenant-zero");
  EXPECT_EQ(*store->Get(1, 5), "tenant-one");
  ASSERT_TRUE(store->Evict(0, 5).ok());
  EXPECT_FALSE(store->Contains(0, 5));
  EXPECT_TRUE(store->Contains(1, 5));
  EXPECT_EQ(store->LiveBatches(1), (std::vector<uint64_t>{5}));
}

TEST(BlockStoreTest, ReopenRebuildsIndex) {
  const std::string dir = FreshDir("reopen");
  {
    auto store = MustOpen(Opts(dir));
    for (uint64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE(store->Put(0, id, Body(id, 100 + id)).ok());
    }
    ASSERT_TRUE(store->Sync().ok());
  }
  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->recovery().batches_recovered, 4u);
  EXPECT_EQ(store->recovery().torn_records, 0u);
  for (uint64_t id = 0; id < 4; ++id) {
    auto got = store->Get(0, id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, Body(id, 100 + id));
  }
}

TEST(BlockStoreTest, TombstoneSurvivesReopen) {
  const std::string dir = FreshDir("tombstone");
  {
    auto store = MustOpen(Opts(dir));
    for (uint64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(store->Put(0, id, Body(id)).ok());
    }
    ASSERT_TRUE(store->Evict(0, 1).ok());
    ASSERT_TRUE(store->Sync().ok());
  }
  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->recovery().tombstones, 1u);
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 2}));
  EXPECT_FALSE(store->Get(0, 1).ok());
}

TEST(BlockStoreTest, CrashDiscardsUnsyncedUnderNever) {
  const std::string dir = FreshDir("crash_never");
  {
    auto store = MustOpen(Opts(dir, FsyncPolicy::kNever));
    for (uint64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(store->Put(0, id, Body(id)).ok());
    }
    ASSERT_TRUE(store->SimulateCrash(/*tear_tail=*/false).ok());
  }
  auto store = MustOpen(Opts(dir, FsyncPolicy::kNever));
  // Only the segment header was fsynced: every record is gone, honestly.
  EXPECT_EQ(store->recovery().batches_recovered, 0u);
}

TEST(BlockStoreTest, CrashKeepsEverythingUnderAlways) {
  const std::string dir = FreshDir("crash_always");
  {
    auto store = MustOpen(Opts(dir, FsyncPolicy::kAlways));
    for (uint64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(store->Put(0, id, Body(id)).ok());
    }
    ASSERT_TRUE(store->SimulateCrash(/*tear_tail=*/true).ok());
  }
  auto store = MustOpen(Opts(dir, FsyncPolicy::kAlways));
  EXPECT_EQ(store->recovery().batches_recovered, 3u);
  EXPECT_EQ(store->recovery().torn_records, 0u);
  for (uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(*store->Get(0, id), Body(id));
  }
}

TEST(BlockStoreTest, TornTailTruncatedOnReopen) {
  const std::string dir = FreshDir("torn_tail");
  {
    auto store = MustOpen(Opts(dir, FsyncPolicy::kBatch));
    ASSERT_TRUE(store->Put(0, 0, Body(0)).ok());
    ASSERT_TRUE(store->Put(0, 1, Body(1)).ok());
    ASSERT_TRUE(store->Sync().ok());
    // Batch 2 is appended but never synced; the crash tears it mid-record.
    ASSERT_TRUE(store->Put(0, 2, Body(2)).ok());
    ASSERT_TRUE(store->SimulateCrash(/*tear_tail=*/true).ok());
  }
  auto store = MustOpen(Opts(dir, FsyncPolicy::kBatch));
  EXPECT_EQ(store->recovery().batches_recovered, 2u);
  EXPECT_EQ(store->recovery().torn_records, 1u);
  EXPECT_GT(store->recovery().torn_bytes, 0u);
  EXPECT_FALSE(store->Contains(0, 2));
  EXPECT_EQ(*store->Get(0, 0), Body(0));
  EXPECT_EQ(*store->Get(0, 1), Body(1));
  // The repaired log must accept appends again at the truncation point.
  ASSERT_TRUE(store->Put(0, 2, Body(2)).ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(*store->Get(0, 2), Body(2));
}

TEST(BlockStoreTest, PrefixSegmentsDeletedOnceDead) {
  const std::string dir = FreshDir("prefix_gc");
  StoreOptions opts = Opts(dir);
  opts.segment_bytes = 256;  // a few puts per segment
  auto store = MustOpen(opts);
  for (uint64_t id = 0; id < 12; ++id) {
    ASSERT_TRUE(store->Put(0, id, Body(id, 100)).ok());
  }
  const uint64_t segments_before = store->segment_count();
  ASSERT_GT(segments_before, 2u);
  const uint64_t disk_before = store->disk_bytes();
  // Window-FIFO eviction: the oldest batches die first, exactly the
  // front-of-log pattern prefix GC exploits.
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(store->Evict(0, id).ok());
  }
  EXPECT_LT(store->segment_count(), segments_before);
  EXPECT_LT(store->disk_bytes(), disk_before);
  for (uint64_t id = 8; id < 12; ++id) {
    EXPECT_EQ(*store->Get(0, id), Body(id, 100));
  }
  // On-disk files match the in-memory segment map.
  uint64_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, store->segment_count());
}

TEST(BlockStoreTest, CompactDropsDeadBytes) {
  const std::string dir = FreshDir("compact");
  StoreOptions opts = Opts(dir);
  opts.segment_bytes = 256;
  // Disable Evict's automatic fallback so the explicit Compact() call is
  // what reclaims the interior holes (the auto path has its own test).
  opts.compact_live_frac = 0;
  auto store = MustOpen(opts);
  for (uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(store->Put(0, id, Body(id, 100)).ok());
  }
  // Kill interior batches (not a prefix), so prefix GC cannot reclaim them.
  for (uint64_t id : {1u, 2u, 3u, 5u, 6u, 7u, 8u}) {
    ASSERT_TRUE(store->Evict(0, id).ok());
  }
  const uint64_t disk_before = store->disk_bytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->disk_bytes(), disk_before);
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 4, 9}));
  for (uint64_t id : {0u, 4u, 9u}) {
    EXPECT_EQ(*store->Get(0, id), Body(id, 100));
  }
  // And the compacted log must survive a reopen.
  store.reset();
  store = MustOpen(opts);
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 4, 9}));
  EXPECT_EQ(*store->Get(0, 4), Body(4, 100));
}

TEST(BlockStoreTest, EvictAutoCompactsOnceDeadWeightDominates) {
  const std::string dir = FreshDir("auto_compact");
  StoreOptions opts = Opts(dir);
  opts.segment_bytes = 256;  // default compact_live_frac = 0.5
  auto store = MustOpen(opts);
  for (uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(store->Put(0, id, Body(id, 100)).ok());
  }
  const uint64_t disk_full = store->disk_bytes();
  // Interior holes escape prefix GC, but once live bytes fall under half
  // the on-disk footprint Evict itself must trigger the rewrite — no
  // explicit Compact() call anywhere.
  for (uint64_t id : {1u, 2u, 3u, 5u, 6u, 7u, 8u}) {
    ASSERT_TRUE(store->Evict(0, id).ok());
  }
  EXPECT_LT(store->disk_bytes(), disk_full / 2);
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 4, 9}));
  for (uint64_t id : {0u, 4u, 9u}) {
    EXPECT_EQ(*store->Get(0, id), Body(id, 100));
  }
}

TEST(BlockStoreTest, MetricsCountAppendsAndEvictions) {
  MetricsRegistry registry;
  auto store = MustOpen(Opts(FreshDir("metrics")));
  store->BindMetrics(&registry);
  ASSERT_TRUE(store->Put(0, 0, Body(0)).ok());
  ASSERT_TRUE(store->Put(0, 1, Body(1)).ok());
  ASSERT_TRUE(store->Evict(0, 0).ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(registry.GetCounter("prompt_store_appends_total")->value(), 3u)
      << "2 puts + 1 tombstone";
  EXPECT_EQ(registry.GetCounter("prompt_store_evictions_total")->value(), 1u);
  EXPECT_GE(registry.GetCounter("prompt_store_syncs_total")->value(), 1u);
  EXPECT_EQ(registry.GetGauge("prompt_store_live_batches")->value(), 1.0);
  EXPECT_GT(registry.GetGauge("prompt_store_disk_bytes")->value(), 0.0);
}

// Builds a record payload exactly as the store frames it:
// [kind u8][owner u32][batch_id u64][body] with kind 1 = put, 2 =
// tombstone. Tests use it to lay down disk states (e.g. mid-compaction)
// that recovery must tolerate.
std::string RecordPayload(uint8_t kind, uint32_t owner, uint64_t batch_id,
                          const std::string& body) {
  std::string p;
  p.push_back(static_cast<char>(kind));
  p.append(reinterpret_cast<const char*>(&owner), 4);
  p.append(reinterpret_cast<const char*>(&batch_id), 8);
  p += body;
  return p;
}

void WriteSegment(const std::string& path,
                  const std::vector<std::string>& payloads) {
  auto writer = SegmentWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::string& p : payloads) {
    ASSERT_TRUE((*writer)->Append(p).ok());
  }
  ASSERT_TRUE((*writer)->Sync().ok());
}

TEST(BlockStoreTest, CompactionInterruptedBetweenGenerationsRecovers) {
  // The disk state a kill mid-Compact() leaves behind: the old generation
  // (a live put, a doomed put, its tombstone) still present, the new
  // generation (the re-appended live put) already written. Last-write-wins
  // replay must keep the new copy and never resurrect the tombstoned batch.
  const std::string dir = FreshDir("compact_both_gens");
  std::filesystem::create_directories(dir);
  WriteSegment(dir + "/seg-000000.log",
               {RecordPayload(1, 0, 0, "old-zero"),
                RecordPayload(1, 0, 1, "doomed"),
                RecordPayload(2, 0, 1, "")});
  WriteSegment(dir + "/seg-000001.log",
               {RecordPayload(1, 0, 0, "new-zero")});

  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0}));
  EXPECT_EQ(*store->Get(0, 0), "new-zero");
  EXPECT_FALSE(store->Contains(0, 1));
}

TEST(BlockStoreTest, CompactionIsDurableBeforeOldSegmentsGo) {
  // Compact() must fsync the rewritten generation before the old one is
  // deleted — under fsync=never a crash straight after compaction would
  // otherwise lose every live batch.
  const std::string dir = FreshDir("compact_crash");
  StoreOptions opts = Opts(dir, FsyncPolicy::kNever);
  opts.segment_bytes = 256;
  opts.compact_live_frac = 0;
  {
    auto store = MustOpen(opts);
    for (uint64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(store->Put(0, id, Body(id, 100)).ok());
    }
    for (uint64_t id : {1u, 2u, 3u, 5u, 6u, 7u, 8u}) {
      ASSERT_TRUE(store->Evict(0, id).ok());
    }
    ASSERT_TRUE(store->Compact().ok());
    ASSERT_TRUE(store->SimulateCrash(/*tear_tail=*/false).ok());
  }
  auto store = MustOpen(opts);
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{0, 4, 9}));
  for (uint64_t id : {0u, 4u, 9u}) {
    EXPECT_EQ(*store->Get(0, id), Body(id, 100));
  }
}

TEST(BlockStoreTest, StrictFilenameParsingSkipsStraysAndReadsLongIds) {
  const std::string dir = FreshDir("filenames");
  std::filesystem::create_directories(dir);
  // A 7-digit id (past the zero-padded width) and an unpadded name are
  // both real segments; the .bak impostor is neither indexed nor deleted.
  WriteSegment(dir + "/seg-1.log", {RecordPayload(1, 0, 1, "one")});
  WriteSegment(dir + "/seg-1000000.log", {RecordPayload(1, 0, 2, "two")});
  {
    std::ofstream f(dir + "/seg-000001.log.bak", std::ios::binary);
    f << "junk";
  }

  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(*store->Get(0, 1), "one");
  EXPECT_EQ(*store->Get(0, 2), "two");
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg-000001.log.bak"));
  // New appends land past the highest seen id and survive a reopen.
  ASSERT_TRUE(store->Put(0, 3, "three").ok());
  ASSERT_TRUE(store->Sync().ok());
  store.reset();
  store = MustOpen(Opts(dir));
  EXPECT_EQ(store->LiveBatches(0), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(*store->Get(0, 3), "three");
}

TEST(BlockStoreTest, CorruptHeaderFileIsDroppedNotFatal) {
  const std::string dir = FreshDir("bad_header");
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(dir + "/seg-000000.log", std::ios::binary);
    f << "not a segment";
  }
  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->recovery().batches_recovered, 0u);
  // The store must be writable despite the impostor file.
  ASSERT_TRUE(store->Put(0, 0, Body(0)).ok());
  ASSERT_TRUE(store->Sync().ok());
  EXPECT_EQ(*store->Get(0, 0), Body(0));
}

}  // namespace
}  // namespace prompt
