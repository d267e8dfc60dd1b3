// Flight-recorder journal unit coverage: manifest round-trips, outcome
// fingerprint codec, writer→reader record round-trip, crash/restart resume
// semantics (per-attempt manifests, torn-tail truncation) and the
// order-independence of the window-output hash.
#include "replay/journal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace prompt {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

JournalOptions Opts(const std::string& dir) {
  JournalOptions o;
  o.dir = dir;
  return o;
}

std::unique_ptr<JournalWriter> MustOpen(const JournalOptions& options,
                                        const JournalManifest& manifest) {
  auto writer = JournalWriter::Open(options, manifest);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  return std::move(writer).ValueUnsafe();
}

TEST(JournalManifestTest, LiteralValuesRoundTripAsText) {
  JournalManifest m;
  // A string literal must land as text, not decay through the bool
  // overload (the conversion-rank trap this codebase hit once already).
  m.Set("mode", "single");
  EXPECT_EQ(m.Get("mode", "?"), "single");

  auto parsed = JournalManifest::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), m.Serialize());
}

TEST(JournalManifestTest, RepeatedKeysKeepInsertionOrder) {
  JournalManifest m;
  m.Set("tenant", "id=a weight=1");
  m.Set("mode", "multi");
  m.Set("tenant", "id=b weight=3");
  const std::vector<std::string> tenants = m.GetAll("tenant");
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0], "id=a weight=1");
  EXPECT_EQ(tenants[1], "id=b weight=3");

  auto parsed = JournalManifest::Parse(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetAll("tenant"), tenants);
}

TEST(JournalTest, HashBatchOutputIsOrderIndependent) {
  std::vector<KV> a = {{1, 2.0}, {7, 0.5}, {9, -3.25}};
  std::vector<KV> b = {{9, -3.25}, {1, 2.0}, {7, 0.5}};
  std::vector<KV> c = {{9, -3.25}, {1, 2.0}, {7, 0.75}};
  EXPECT_EQ(HashBatchOutput(a), HashBatchOutput(b));
  EXPECT_NE(HashBatchOutput(a), HashBatchOutput(c));
  EXPECT_NE(HashBatchOutput(a), HashBatchOutput({}));
}

BatchOutcome SampleOutcome(uint64_t batch_id) {
  BatchOutcome o;
  o.batch_id = batch_id;
  o.output_hash = 0xdeadbeef + batch_id;
  o.signals[0] = 123.5;
  o.signals[1] = -0.25;
  o.map_makespan = 1000;
  o.reduce_makespan = 2000;
  o.partition_overflow = 17;
  o.technique = 3;
  o.technique_switched = true;
  o.switched_from = 1;
  o.dominant = BatchCause::kBucketSkew;
  o.total_excess = 4321;
  o.threshold = 999;
  o.excess[static_cast<size_t>(BatchCause::kBucketSkew)] = 4321;
  return o;
}

TEST(JournalTest, WriterReaderRoundTripsEveryRecordKind) {
  const std::string dir = FreshDir("journal_roundtrip");
  JournalManifest manifest;
  manifest.Set("mode", "single");
  manifest.Set("batches", "2");
  {
    auto writer = MustOpen(Opts(dir), manifest);
    EXPECT_TRUE(writer->fresh());
    Tuple t;
    for (uint64_t i = 0; i < 100; ++i) {
      t.ts = static_cast<TimeMicros>(i * 10);
      t.key = i % 7;  // runs of repeated keys exercise the run-length path
      t.value = 1.0;
      writer->RecordTuple(t);
    }
    ASSERT_TRUE(writer->AppendBatchTuples(0).ok());
    ASSERT_TRUE(writer->AppendOutcome(0, SampleOutcome(0)).ok());
    JournalSwitch s;
    s.owner = 0;
    s.after_batch = 0;
    s.from = 1;
    s.to = 3;
    s.reason = "skew";
    ASSERT_TRUE(writer->AppendSwitch(s).ok());
    JournalFault f;
    f.batch_id = 1;
    f.point = 2;
    f.kind = 1;
    f.target = 4;
    ASSERT_TRUE(writer->AppendFault(f).ok());
    BatchEnv env;
    env.batch_id = 0;
    env.partition_cost = 55;
    env.seal_barrier_latency = 7;
    env.merge_latency = 3;
    env.ring_high_water = 12;
    env.ring_capacity = 64;
    ASSERT_TRUE(writer->AppendEnv(0, env).ok());
    ASSERT_TRUE(writer->SyncBatch().ok());
    EXPECT_EQ(writer->unsynced_bytes(), 0u);
  }

  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->torn_records, 0u);
  ASSERT_EQ(journal->attempts.size(), 1u);
  const JournalAttempt& attempt = journal->attempts[0];
  EXPECT_EQ(attempt.manifest.Serialize(), manifest.Serialize());

  ASSERT_EQ(attempt.tuples.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(attempt.tuples[i].ts, static_cast<TimeMicros>(i * 10));
    EXPECT_EQ(attempt.tuples[i].key, i % 7);
    EXPECT_EQ(attempt.tuples[i].value, 1.0);
  }

  ASSERT_EQ(attempt.outcomes.count(0u), 1u);
  ASSERT_EQ(attempt.outcomes.at(0u).size(), 1u);
  EXPECT_TRUE(attempt.outcomes.at(0u)[0].BitIdentical(SampleOutcome(0)));

  ASSERT_EQ(attempt.switches.size(), 1u);
  EXPECT_EQ(attempt.switches[0].reason, "skew");
  EXPECT_EQ(attempt.switches[0].from, 1);
  EXPECT_EQ(attempt.switches[0].to, 3);

  ASSERT_EQ(attempt.faults.size(), 1u);
  EXPECT_EQ(attempt.faults[0].batch_id, 1u);
  EXPECT_EQ(attempt.faults[0].point, 2);
  EXPECT_EQ(attempt.faults[0].kind, 1);
  EXPECT_EQ(attempt.faults[0].target, 4u);

  ASSERT_EQ(attempt.envs.size(), 1u);
  const BatchEnv& env = attempt.envs.at({0u, 0u});
  EXPECT_EQ(env.partition_cost, 55);
  EXPECT_EQ(env.seal_barrier_latency, 7);
  EXPECT_EQ(env.merge_latency, 3);
  EXPECT_EQ(env.ring_high_water, 12u);
  EXPECT_EQ(env.ring_capacity, 64u);
}

TEST(JournalTest, ResumeAppendsAttemptWithItsOwnManifest) {
  const std::string dir = FreshDir("journal_resume");
  JournalManifest first;
  first.Set("mode", "single");
  first.Set("faults", "crash:5;restart:6");
  {
    auto writer = MustOpen(Opts(dir), first);
    ASSERT_TRUE(writer->AppendOutcome(0, SampleOutcome(0)).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // The restarted run drops the crash fault — its attempt must carry the
  // fault-free manifest, not the first run's.
  JournalManifest second;
  second.Set("mode", "single");
  {
    auto writer = MustOpen(Opts(dir), second);
    EXPECT_FALSE(writer->fresh());
    ASSERT_TRUE(writer->AppendOutcome(0, SampleOutcome(1)).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }

  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // The journal-level manifest is the lineage's first.
  EXPECT_EQ(journal->manifest.Get("faults", ""), "crash:5;restart:6");
  ASSERT_EQ(journal->attempts.size(), 2u);
  EXPECT_EQ(journal->attempts[0].manifest.Serialize(), first.Serialize());
  EXPECT_EQ(journal->attempts[1].manifest.Serialize(), second.Serialize());
  ASSERT_EQ(journal->attempts[0].outcomes.at(0u).size(), 1u);
  ASSERT_EQ(journal->attempts[1].outcomes.at(0u).size(), 1u);
  EXPECT_EQ(journal->attempts[1].outcomes.at(0u)[0].batch_id, 1u);
}

TEST(JournalTest, TornTailIsDroppedOnReadAndTruncatedOnResume) {
  const std::string dir = FreshDir("journal_torn");
  JournalManifest manifest;
  manifest.Set("mode", "single");
  {
    auto writer = MustOpen(Opts(dir), manifest);
    ASSERT_TRUE(writer->AppendOutcome(0, SampleOutcome(0)).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Simulate a crash mid-append: garbage bytes past the last full record.
  std::string seg;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    seg = entry.path().string();
  }
  ASSERT_FALSE(seg.empty());
  const auto intact = std::filesystem::file_size(seg);
  {
    std::ofstream f(seg, std::ios::binary | std::ios::app);
    f.write("\x07torn", 5);
  }

  auto journal = ReadJournal(dir);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(journal->attempts.size(), 1u);
  EXPECT_EQ(journal->attempts[0].outcomes.at(0u).size(), 1u);

  // Resume truncates the tail so the next append lands on a clean frame.
  { auto writer = MustOpen(Opts(dir), manifest); }
  EXPECT_GT(std::filesystem::file_size(seg), intact);  // new manifest+marker
  auto reopened = ReadJournal(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->torn_records, 0u);
  EXPECT_EQ(reopened->attempts.size(), 2u);
}

TEST(JournalTest, TupleSourceReplaysRecordedStreamVerbatim) {
  std::vector<Tuple> tuples(5);
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].ts = static_cast<TimeMicros>(100 * i);
    tuples[i].key = 40 + i;
    tuples[i].value = 0.5 * static_cast<double>(i);
  }
  JournalTupleSource source(tuples);
  EXPECT_STREQ(source.name(), "journal-replay");
  Tuple t;
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_TRUE(source.Next(&t));
    EXPECT_EQ(t.ts, tuples[i].ts);
    EXPECT_EQ(t.key, tuples[i].key);
    EXPECT_EQ(t.value, tuples[i].value);
  }
  EXPECT_FALSE(source.Next(&t));
}

}  // namespace
}  // namespace prompt
