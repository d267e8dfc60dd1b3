// The benchmark's workloads and the two ways of driving one: the real engine
// (untraced runs) and the traced shadow loop, which makes the engine's own
// public calls in the engine's order with a span around each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/multi_query.h"
#include "harness.h"
#include "spans.h"

namespace wallbench {

/// \brief One query of a workload: a TENANT line of the engine's query-file
/// grammar plus the same query restated for the reference.
struct TenantDef {
  std::string spec_line;
  QuerySpec query;
};

struct Workload {
  std::string name;
  StreamSpec stream;
  uint32_t window_batches = 10;
  uint32_t ingest_shards = 1;
  uint32_t pool_threads = 1;
  /// MultiTenantEngine over a durable store and the flight recorder; set-up
  /// recovers a store an untimed earlier engine wrote.
  bool multi_tenant = false;
  std::vector<TenantDef> tenants;  ///< single-tenant workloads: exactly one
  /// Batches run after construction and before measuring (part of setup_s).
  uint32_t warmup_batches = 12;
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The workload's TENANT lines, through the engine's own query-file parser.
prompt::Result<std::vector<prompt::TenantQuerySpec>> ParseTenantSpecs(
    const Workload& w);

/// Per-run directories (store and journal) inside the checkout.
struct RunDirs {
  std::string store;
  std::string journal;
};

/// \brief What the measurement loop drives: one batch per RunBatch(), and
/// the window answer of each query afterwards.
class EngineUnderTest {
 public:
  virtual ~EngineUnderTest() = default;
  /// Runs one batch interval. False when the engine reported a failure
  /// (data loss, unrecoverable batch, crash, bad init status).
  virtual bool RunBatch() = 0;
  virtual const Answer& window(size_t query) const = 0;
};

/// Builds the real engine over `source` (kReal execution). For durable
/// workloads it opens, and recovers, the store and journal under `dirs`.
/// Returns null and fills *error when construction fails.
std::unique_ptr<EngineUnderTest> MakeEngine(const Workload& w,
                                            prompt::TupleSource* source,
                                            const RunDirs& dirs,
                                            std::string* error);

/// Durable workloads only: runs an untimed earlier engine over fresh `dirs`
/// for batches [0, batches), so later set-ups have a store to recover.
bool WriteEarlierStore(const Workload& w, const BatchGenerator& gen,
                       const RunDirs& dirs, uint32_t batches,
                       std::string* error);

/// \brief Per-batch figures the traced run takes at layer boundaries: exact
/// counts, which depend only on the input (one seed repeats them), and the
/// sharded pipeline's own per-shard seal time.
struct BatchCounts {
  uint64_t tuples = 0;
  uint64_t keys = 0;         ///< distinct keys of the Prompt-partitioned batch
  uint64_t split_keys = 0;   ///< PartitionPlan::split_keys
  uint64_t fragments = 0;    ///< PartitionPlan::fragments
  uint64_t window_keys = 0;  ///< keys in all windows after the batch
  uint64_t store_bytes = 0;  ///< EncodeBatch bytes, all tenants
  uint64_t store_tuples = 0;
  uint64_t journal_bytes = 0;  ///< tuple-stream record bytes
  double shard_skew = 0;       ///< max / mean shard tuples (sharded ingest)
  double shard_seal_ms = 0;    ///< slowest shard's Accumulator::Seal
};

/// The traced shadow of the workload's engine. Spans go to `rec`, counts to
/// `counts` (one entry per batch). Set-up spans (store recovery) carry the
/// trace id UINT64_MAX.
std::unique_ptr<EngineUnderTest> MakeShadow(const Workload& w,
                                            prompt::TupleSource* source,
                                            const RunDirs& dirs,
                                            SpanRecorder* rec,
                                            std::vector<BatchCounts>* counts,
                                            std::string* error);

}  // namespace wallbench
