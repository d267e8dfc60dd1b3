// Stream receiver: the dedicated ingestion process of §2.1 ("dedicated
// processes are responsible for continuously receiving stream data tuples
// and for emitting a micro-batch at every heartbeat"). A producer thread
// pulls tuples from the source into a bounded queue — the queue bound is the
// receiver-side back-pressure — while the batching loop drains it into the
// partitioner and seals at each heartbeat, honouring Early Batch Release.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "common/queue.h"
#include "common/result.h"
#include "core/partitioner.h"
#include "engine/engine.h"
#include "ingest/pipeline.h"
#include "workload/source.h"

namespace prompt {

/// \brief Receiver configuration.
struct ReceiverOptions {
  TimeMicros batch_interval = Seconds(1);
  /// Early Batch Release slack (§4.2): the batching cut-off precedes the
  /// heartbeat by this fraction of the interval, giving the partitioner
  /// slack to run before processing must start.
  double early_release_frac = 0.05;
  /// Bound of the ingestion queue; a full queue blocks the producer
  /// (back-pressure toward the source).
  size_t queue_capacity = 64 * 1024;
  /// Batching-phase ingest configuration (src/ingest/). ingest.shards = 1
  /// keeps the seed's single-threaded path: the batching loop feeds the
  /// partitioner directly. > 1 routes tuples by hash(key) % shards to that
  /// many accumulator workers and k-way merges their runs at the cut-off;
  /// partitioners that support SealAccumulated (Prompt) consume the merged
  /// list directly, others have it replayed through OnTuple in quasi-sorted
  /// order.
  IngestOptions ingest;
};

/// \brief One sealed batch plus receiver-side accounting.
struct ReceivedBatch {
  PartitionedBatch batch;
  /// Lower bound on tuples that arrived during this batch's slack window
  /// and were deferred to the next batch (the cost of separating the
  /// batching cut-off from the processing cut-off).
  uint64_t deferred_tuples = 0;
};

/// \brief Threaded ingestion front-end.
///
/// Start() launches the producer thread; NextBatch() runs on the caller's
/// thread, draining the queue into the partitioner until the batch's
/// early-release cut-off and sealing the batch. Tuples between the cut-off
/// and the heartbeat stay queued for the next batch, exactly the Fig. 7
/// timeline.
class StreamReceiver {
 public:
  /// Neither pointer is owned; both must outlive the receiver.
  StreamReceiver(TupleSource* source, BatchPartitioner* partitioner,
                 ReceiverOptions options);
  ~StreamReceiver();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(StreamReceiver);

  /// Launches the producer thread. May be called once.
  Status Start();

  /// Blocks until the current batch's cut-off has been ingested, then seals
  /// and returns it. Returns Cancelled after Stop().
  Result<ReceivedBatch> NextBatch(uint32_t num_blocks);

  /// Stops the producer and unblocks any pending NextBatch.
  void Stop();

  /// Tuples currently buffered between producer and batching loop.
  size_t queued() const { return queue_.size(); }

  uint64_t batches_emitted() const { return next_batch_id_; }

  /// Per-shard ingest observability for the last sealed batch; nullptr when
  /// running single-threaded (ingest.shards <= 1).
  const IngestMetrics* ingest_metrics() const {
    return pipeline_ != nullptr ? &pipeline_->last_metrics() : nullptr;
  }

 private:
  void ProducerLoop();

  TupleSource* source_;
  BatchPartitioner* partitioner_;
  ReceiverOptions options_;
  BlockingQueue<Tuple> queue_;
  std::unique_ptr<ParallelIngestPipeline> pipeline_;  // ingest.shards > 1
  std::thread producer_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  uint64_t next_batch_id_ = 0;
  TimeMicros next_start_ = 0;
  bool have_pending_ = false;
  Tuple pending_{};
  // Receiver-side EWMA estimates feeding the pipeline's shard budgets.
  MergedBatchEstimates estimates_;
};

}  // namespace prompt
