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

  partitioner_->Begin(num_blocks, start, end);
  if (pipeline_ != nullptr) pipeline_->BeginBatch(start, end);
  auto ingest = [&](const Tuple& t) {
    if (pipeline_ != nullptr) {
      pipeline_->Ingest(t);
    } else {
      partitioner_->OnTuple(t);
    }
  };
  uint64_t deferred = 0;

  // A pending tuple of a future batch leaves this interval's batch empty;
  // it is still sealed, so the per-batch state machine stays in lockstep.
  bool drain = true;
  if (have_pending_) {
    if (pending_.ts < cutoff) {
      ingest(pending_);
      have_pending_ = false;
    } else if (pending_.ts >= end) {
      drain = false;
    }
  }
  while (drain && (!have_pending_ || pending_.ts < end)) {
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
      if (item->ts < end) ++deferred;
      break;
    }
    ingest(*item);
  }

  ReceivedBatch out;
  out.deferred_tuples = deferred;
  if (pipeline_ == nullptr) {
    out.batch = partitioner_->Seal(next_batch_id_++);
    return out;
  }
  // Sealed and fed back exactly as the engine's batch loop does it.
  const AccumulatedBatch& merged = pipeline_->SealBatch();
  out.batch = SealMerged(partitioner_, merged, KeyFilter{}, next_batch_id_++);
  estimates_.Feed(merged, pipeline_.get());
  return out;
}

void StreamReceiver::Stop() {
  stopped_.store(true);
  queue_.Close();
  if (producer_.joinable()) producer_.join();
}

}  // namespace prompt
