#include "engine/receiver.h"

namespace prompt {

StreamReceiver::StreamReceiver(TupleSource* source,
                               BatchPartitioner* partitioner,
                               ReceiverOptions options)
    : source_(source),
      partitioner_(partitioner),
      options_(options),
      queue_(options.queue_capacity) {
  PROMPT_CHECK(source_ != nullptr);
  PROMPT_CHECK(partitioner_ != nullptr);
  PROMPT_CHECK(options_.batch_interval > 0);
  PROMPT_CHECK(options_.early_release_frac >= 0 &&
               options_.early_release_frac < 1);
  // Sketch mode requires the pipeline even at one shard: only the pipeline
  // swaps the accumulator kind, the partitioner's own stays exact.
  if (options_.ingest.shards > 1 ||
      options_.ingest.key_mode == KeyMode::kSketch) {
    pipeline_ = std::make_unique<ParallelIngestPipeline>(options_.ingest);
  }
}

StreamReceiver::~StreamReceiver() { Stop(); }

Status StreamReceiver::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return Status::Invalid("receiver already started");
  }
  producer_ = std::thread([this] { ProducerLoop(); });
  return Status::OK();
}

void StreamReceiver::ProducerLoop() {
  Tuple t;
  while (!stopped_.load(std::memory_order_relaxed) && source_->Next(&t)) {
    // Push blocks when the queue is full: ingestion back-pressure.
    if (!queue_.Push(t)) return;  // queue closed by Stop()
  }
  queue_.Close();
}

Result<ReceivedBatch> StreamReceiver::NextBatch(uint32_t num_blocks) {
  if (!started_.load()) return Status::Invalid("receiver not started");
  if (stopped_.load()) return Status::Cancelled("receiver stopped");

  const TimeMicros start = next_start_;
  const TimeMicros end = start + options_.batch_interval;
  next_start_ = end;
  // Early Batch Release: stop accumulating at the cut-off, not at the
  // heartbeat, so Seal() has the slack to run the partitioning algorithm.
  const TimeMicros cutoff =
      end - static_cast<TimeMicros>(options_.early_release_frac *
                                    static_cast<double>(options_.batch_interval));

  if (pipeline_ != nullptr) {
    return NextBatchSharded(num_blocks, start, end, cutoff);
  }

  partitioner_->Begin(num_blocks, start, end);
  uint64_t deferred = 0;

  if (have_pending_) {
    if (pending_.ts < cutoff) {
      partitioner_->OnTuple(pending_);
      have_pending_ = false;
    } else if (pending_.ts >= end) {
      // Still belongs to a future batch: emit an empty batch for this
      // interval without consuming it.
      ReceivedBatch out;
      out.batch = partitioner_->Seal(next_batch_id_++);
      return out;
    }
  }
  while (!have_pending_ || pending_.ts < end) {
    if (have_pending_ && pending_.ts >= cutoff) {
      // Arrived in the slack window: counts as deferred but still consumed
      // into the *next* batch, so hold it.
      ++deferred;
      break;
    }
    auto item = queue_.Pop();
    if (!item.has_value()) {
      // Source exhausted or Stop(): seal what we have.
      stopped_.store(true);
      break;
    }
    if (item->ts >= cutoff) {
      pending_ = *item;
      have_pending_ = true;
      if (item->ts >= cutoff && item->ts < end) {
        ++deferred;
      }
      break;
    }
    partitioner_->OnTuple(*item);
  }

  ReceivedBatch out;
  out.batch = partitioner_->Seal(next_batch_id_++);
  out.deferred_tuples = deferred;
  return out;
}

Result<ReceivedBatch> StreamReceiver::NextBatchSharded(uint32_t num_blocks,
                                                       TimeMicros start,
                                                       TimeMicros end,
                                                       TimeMicros cutoff) {
  partitioner_->Begin(num_blocks, start, end);
  pipeline_->BeginBatch(start, end);
  uint64_t deferred = 0;

  // Same drain loop as the single-threaded path, with the pipeline's shard
  // router as the sink. An already-pending future-batch tuple simply leaves
  // the pipeline batch empty; the seal/merge still runs so the per-batch
  // state machine stays in lockstep.
  bool drain = true;
  if (have_pending_) {
    if (pending_.ts < cutoff) {
      pipeline_->Ingest(pending_);
      have_pending_ = false;
    } else if (pending_.ts >= end) {
      drain = false;
    }
  }
  while (drain && (!have_pending_ || pending_.ts < end)) {
    if (have_pending_ && pending_.ts >= cutoff) {
      ++deferred;
      break;
    }
    auto item = queue_.Pop();
    if (!item.has_value()) {
      stopped_.store(true);
      break;
    }
    if (item->ts >= cutoff) {
      pending_ = *item;
      have_pending_ = true;
      if (item->ts < end) ++deferred;
      break;
    }
    pipeline_->Ingest(*item);
  }

  const AccumulatedBatch& merged = pipeline_->SealBatch();

  ReceivedBatch out;
  if (!partitioner_->SealAccumulated(merged, next_batch_id_, &out.batch)) {
    // Technique without a quasi-sorted fast path: replay the merged batch in
    // quasi-sorted order through the regular per-tuple interface. Online
    // techniques are order-insensitive apart from tie-breaking, so this
    // preserves their semantics.
    merged.Replay([](KeyId) { return true; },
                  [&](const Tuple& t) { partitioner_->OnTuple(t); });
    out.batch = partitioner_->Seal(next_batch_id_);
  }
  ++next_batch_id_;
  out.deferred_tuples = deferred;

  // EWMA feedback for the per-shard Alg. 1 scaling (mirrors the engine's
  // alpha = 0.4 receiver estimates). In sketch mode num_keys() counts only
  // promoted head runs — feeding that back would collapse K_avg toward 1,
  // blow up the auto promote threshold (4 * N_est / K_avg) and lock the
  // sketch out of ever promoting again; the HLL estimate is the honest
  // cardinality signal there.
  constexpr double kAlpha = 0.4;
  const double tuples = static_cast<double>(merged.num_tuples());
  const double keys = static_cast<double>(
      merged.stats().sketch_mode
          ? std::max(merged.num_keys(), merged.stats().distinct_estimate)
          : merged.num_keys());
  if (!est_init_) {
    est_tuples_ = tuples;
    est_keys_ = keys;
    est_init_ = true;
  } else {
    est_tuples_ = kAlpha * tuples + (1 - kAlpha) * est_tuples_;
    est_keys_ = kAlpha * keys + (1 - kAlpha) * est_keys_;
  }
  pipeline_->UpdateEstimates(static_cast<uint64_t>(est_tuples_),
                             static_cast<uint64_t>(est_keys_));
  return out;
}

void StreamReceiver::Stop() {
  stopped_.store(true);
  queue_.Close();
  if (producer_.joinable()) producer_.join();
}

}  // namespace prompt
