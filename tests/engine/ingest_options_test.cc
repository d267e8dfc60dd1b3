// EngineOptions::ingest groups the batching-phase ingest settings; an
// untouched EngineOptions keeps the single-threaded flat-accumulator path.
#include <gtest/gtest.h>

#include "engine/engine.h"

namespace prompt {
namespace {

TEST(IngestOptionsAliasTest, DefaultsAreUntouched) {
  EngineOptions opts;
  EXPECT_EQ(opts.ingest.shards, 1u);
  EXPECT_EQ(opts.ingest.ring_capacity, 16u * 1024u);
}

}  // namespace
}  // namespace prompt
