#include "core/prompt_partitioner.h"

#include <algorithm>
#include <span>

#include "common/flat_map.h"

namespace prompt {

namespace {

// Tracks per-block assigned sizes and cardinalities for the residual pass.
struct BlockLoad {
  std::vector<uint64_t> sizes;
  std::vector<uint64_t> cards;

  explicit BlockLoad(uint32_t p) : sizes(p, 0), cards(p, 0) {}

  // Residual placement among blocks that fully hold `need`: prefer the block
  // with the fewest distinct keys, tie-broken Best-Fit (smallest remaining
  // capacity). Pure Best-Fit funnels every diverted residual into the same
  // nearly-full block until it tops out, which wrecks cardinality balance
  // (cost-model objective 2); biasing by cardinality spreads the +1s while
  // still respecting block capacity, so size balance is unchanged.
  // Returns -1 when no block fits entirely.
  int BestFit(uint64_t capacity, uint64_t need) const {
    int best = -1;
    uint64_t best_card = UINT64_MAX;
    uint64_t best_rem = UINT64_MAX;
    for (size_t j = 0; j < sizes.size(); ++j) {
      if (sizes[j] + need <= capacity) {
        uint64_t rem = capacity - sizes[j];
        if (cards[j] < best_card ||
            (cards[j] == best_card && rem < best_rem)) {
          best_card = cards[j];
          best_rem = rem;
          best = static_cast<int>(j);
        }
      }
    }
    return best;
  }

  // Block with the most remaining capacity (may be <= 0 remaining).
  int MostRoom(uint64_t capacity) const {
    int best = 0;
    int64_t best_rem = INT64_MIN;
    for (size_t j = 0; j < sizes.size(); ++j) {
      int64_t rem = static_cast<int64_t>(capacity) -
                    static_cast<int64_t>(sizes[j]);
      if (rem > best_rem) {
        best_rem = rem;
        best = static_cast<int>(j);
      }
    }
    return best;
  }
};

}  // namespace

PartitionPlan BuildPromptPlan(const AccumulatedBatch& batch,
                              uint32_t num_blocks) {
  PROMPT_CHECK(num_blocks >= 1);
  PartitionPlan plan;
  plan.blocks.resize(num_blocks);
  const auto& keys = batch.keys();
  const uint64_t n_c = batch.num_tuples();
  const uint64_t k = keys.size();
  if (k == 0 && batch.tail().empty()) return plan;

  // Alg. 2 lines 1-3.
  const uint64_t p_size = (n_c + num_blocks - 1) / num_blocks;
  const uint64_t p_card = std::max<uint64_t>(1, k / num_blocks);
  const uint64_t s_cut = std::max<uint64_t>(1, p_size / p_card);

  BlockLoad load(num_blocks);
  auto place = [&](uint32_t block, uint32_t key_index, uint64_t skip,
                   uint64_t take) {
    plan.blocks[block].push_back(PlanPlacement{key_index, skip, take});
    load.sizes[block] += take;
    ++load.cards[block];  // same-key merges are rare enough to ignore here
  };

  // --- Pass 1 (lines 5-9): fragment high-frequency keys. Keys arrive in
  // quasi-descending order, so the prefix holds the candidates; a stale
  // budgeted rank may leave a large key further in, which the loop below
  // still catches by checking every key's exact count.
  struct Residual {
    uint32_t key_index;
    uint64_t remaining;
    uint32_t home_block;  // lookupLargePos(k): where its first fragment went
  };
  std::vector<Residual> residuals;
  std::vector<uint32_t> small_keys;
  small_keys.reserve(k);

  uint32_t cursor = 0;  // b_i, cycles over blocks
  for (uint32_t i = 0; i < k; ++i) {
    if (keys[i].count > s_cut) {
      place(cursor, i, 0, s_cut);
      residuals.push_back(Residual{i, keys[i].count - s_cut, cursor});
      cursor = (cursor + 1) % num_blocks;
    } else {
      small_keys.push_back(i);
    }
  }

  // --- Pass 2 (lines 10-16): zigzag (serpentine) assignment of the
  // remaining keys, one key per block per visit, reversing direction at the
  // ends. With quasi-sorted input this approximates Best-Fit-Decreasing
  // without maintaining block sizes. Start at the block after the last
  // pass-1 fragment so it catches up.
  {
    int j = static_cast<int>(cursor % num_blocks);
    int dir = 1;
    const int p = static_cast<int>(num_blocks);
    for (uint32_t idx : small_keys) {
      place(static_cast<uint32_t>(j), idx, 0, keys[idx].count);
      if (p == 1) continue;
      int next = j + dir;
      if (next >= p || next < 0) {
        dir = -dir;  // bounce: the end block receives the next key too
      } else {
        j = next;
      }
    }
  }

  // --- Tail buckets (sketch mode): place each bucket whole, largest first,
  // on the currently smallest block. Buckets are opaque (no per-key stats),
  // so this is plain LPT over bucket sizes. This runs AFTER the zigzag pass:
  // zigzag is load-oblivious, so a large head run can lump one block, and
  // with tail_buckets >> num_blocks the buckets are fine-grained enough for
  // LPT to fill the valleys around those lumps. The residual pass below then
  // sees the true per-block load including tail. Exact batches have no tail
  // and skip this entirely.
  if (!batch.tail().empty()) {
    const auto& tail = batch.tail();
    plan.tail_bucket_block.assign(tail.size(), 0);
    std::vector<uint32_t> order(tail.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&tail](uint32_t a, uint32_t b) {
      return tail[a].tuples != tail[b].tuples ? tail[a].tuples > tail[b].tuples
                                              : a < b;
    });
    for (uint32_t bucket : order) {
      uint32_t smallest = 0;
      for (uint32_t b = 1; b < num_blocks; ++b) {
        if (load.sizes[b] < load.sizes[smallest]) smallest = b;
      }
      plan.tail_bucket_block[bucket] = smallest;
      load.sizes[smallest] += tail[bucket].tuples;
    }
  }

  // --- Pass 3 (lines 17-25): place residuals of the fragmented keys,
  // preferring the key's home block (key locality), else Best-Fit; overflow
  // spills into the roomiest blocks.
  for (const Residual& r : residuals) {
    uint64_t skip = keys[r.key_index].count - r.remaining;
    uint64_t remaining = r.remaining;

    const uint64_t home_used = load.sizes[r.home_block];
    const uint64_t home_room = home_used < p_size ? p_size - home_used : 0;
    if (remaining <= home_room) {
      place(r.home_block, r.key_index, skip, remaining);
      continue;
    }
    if (home_room > 0) {
      place(r.home_block, r.key_index, skip, home_room);
      skip += home_room;
      remaining -= home_room;
    }
    while (remaining > 0) {
      int fit = load.BestFit(p_size, remaining);
      if (fit >= 0) {
        place(static_cast<uint32_t>(fit), r.key_index, skip, remaining);
        break;
      }
      int roomy = load.MostRoom(p_size);
      uint64_t room = load.sizes[roomy] < p_size
                          ? p_size - load.sizes[roomy]
                          : 0;
      if (room == 0) {
        // Every block is at capacity (rounding tail): smallest block takes
        // the rest so sizes stay as even as possible.
        uint32_t smallest = 0;
        for (uint32_t b = 1; b < num_blocks; ++b) {
          if (load.sizes[b] < load.sizes[smallest]) smallest = b;
        }
        place(smallest, r.key_index, skip, remaining);
        break;
      }
      uint64_t take = std::min(room, remaining);
      place(static_cast<uint32_t>(roomy), r.key_index, skip, take);
      skip += take;
      remaining -= take;
    }
  }

  // Plan statistics: distinct (key, block) placements and split keys. A key
  // can be placed twice in one block (pass 3 tops up a split key's home
  // block), which is one fragment. Blocks are visited in order, so a key's
  // placements in block b are all seen while b is its last block.
  std::vector<uint32_t> last_block(k, num_blocks);
  std::vector<uint32_t> blocks_of_key(k, 0);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    for (const PlanPlacement& pl : plan.blocks[b]) {
      if (last_block[pl.key_index] == b) continue;
      last_block[pl.key_index] = b;
      ++plan.fragments;
      if (++blocks_of_key[pl.key_index] == 2) ++plan.split_keys;
    }
  }
  return plan;
}

PartitionedBatch MaterializePlan(const AccumulatedBatch& batch,
                                 const PartitionPlan& plan,
                                 uint32_t num_blocks) {
  PartitionedBatch out;
  out.num_tuples = batch.num_tuples();
  out.num_keys = batch.num_keys();
  out.sketch = batch.stats();
  if (out.sketch.sketch_mode) {
    // Exact per-key cardinality is unknown by design; carry the HLL
    // estimate so Alg. 4's data-distribution statistic stays honest.
    out.num_keys = std::max(out.num_keys, out.sketch.distinct_estimate);
  }

  // Head keys by key index, for attributing tail-resident tuples of promoted
  // keys: those keys span a tail block and head block(s), so they MUST
  // surface in the tail block's fragment table or the reduce stage would
  // route the same key from two blocks as if it were whole (duplicate output
  // keys). Tail-only keys appear in exactly one block and legitimately stay
  // summary-free.
  const std::vector<SortedKeyRun>& keys = batch.keys();
  FlatMap<uint32_t> head_index(batch.tail().empty() ? 0 : keys.size() + 8);
  if (!batch.tail().empty()) {
    for (uint32_t i = 0; i < keys.size(); ++i) {
      head_index.GetOrInsert(keys[i].key) = i;
    }
  }

  // A fragment row under construction, and per key index the number of
  // blocks holding a row for it: two or more make the key split.
  struct Fragment {
    uint64_t count = 0;
    uint32_t key_index = 0;
  };
  std::vector<uint32_t> blocks_of_key(keys.size(), 0);
  std::vector<uint32_t> fragment_keys;  // key index of every row, block order
  auto add = [&blocks_of_key](FlatMap<Fragment>& per_key, KeyId key,
                              uint32_t key_index, uint64_t count) {
    bool inserted = false;
    Fragment& f = per_key.GetOrInsert(key, &inserted);
    if (inserted) {
      f.key_index = key_index;
      ++blocks_of_key[key_index];
    }
    f.count += count;
  };

  out.blocks.reserve(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    DataBlock block(b);
    std::vector<Tuple>& tuples = block.mutable_tuples();
    uint64_t expected = 0;
    for (const PlanPlacement& pl : plan.blocks[b]) expected += pl.take;
    for (uint32_t t = 0; t < plan.tail_bucket_block.size(); ++t) {
      if (plan.tail_bucket_block[t] == b) expected += batch.tail()[t].tuples;
    }
    tuples.reserve(expected);

    // Each placement is one contiguous slice of its key's run.
    FlatMap<Fragment> per_key(plan.blocks[b].size() + 8);
    for (const PlanPlacement& pl : plan.blocks[b]) {
      const SortedKeyRun& run = keys[pl.key_index];
      const std::span<const Tuple> slice =
          batch.tuples(run).subspan(pl.skip, pl.take);
      tuples.insert(tuples.end(), slice.begin(), slice.end());
      add(per_key, run.key, pl.key_index, pl.take);
    }
    for (uint32_t t = 0; t < plan.tail_bucket_block.size(); ++t) {
      if (plan.tail_bucket_block[t] != b) continue;
      const std::span<const Tuple> bucket = batch.tuples(batch.tail()[t]);
      tuples.insert(tuples.end(), bucket.begin(), bucket.end());
      for (const Tuple& tup : bucket) {
        if (const uint32_t* i = head_index.Find(tup.key)) {
          add(per_key, tup.key, *i, 1);
        }
      }
    }
    auto& frags = block.mutable_fragments();
    frags.reserve(per_key.size());
    per_key.ForEach([&](KeyId key, const Fragment& f) {
      frags.push_back(KeyFragment{key, f.count, false});
      fragment_keys.push_back(f.key_index);
    });
    out.blocks.push_back(std::move(block));
  }
  size_t row = 0;
  for (DataBlock& block : out.blocks) {
    for (KeyFragment& f : block.mutable_fragments()) {
      f.split = blocks_of_key[fragment_keys[row++]] > 1;
    }
  }
  return out;
}

void PromptPartitioner::Begin(uint32_t num_blocks, TimeMicros start,
                              TimeMicros end) {
  num_blocks_ = num_blocks;
  batch_end_ = end;
  accumulator_->set_options(options_.accumulator);
  accumulator_->Begin(start, end);
}

void PromptPartitioner::OnTuple(const Tuple& t) { accumulator_->OnTuple(t); }

PartitionedBatch PromptPartitioner::Seal(uint64_t batch_id) {
  Stopwatch watch;
  AccumulatedBatch sealed = options_.post_sort
                                ? accumulator_->SealWithPostSort()
                                : accumulator_->Seal();
  PartitionPlan plan = BuildPromptPlan(sealed, num_blocks_);
  const TimeMicros decision_cost = watch.ElapsedMicros();
  PartitionedBatch out = MaterializePlan(sealed, plan, num_blocks_);
  out.batch_id = batch_id;
  out.seal_time = batch_end_;
  out.partition_cost = decision_cost;
  return out;
}

bool PromptPartitioner::SealAccumulated(const AccumulatedBatch& accumulated,
                                        uint64_t batch_id,
                                        PartitionedBatch* out) {
  // The post-sort ablation measures an exact sort over the *own* accumulator's
  // key list; the merged view's storage is externally owned, so fall back to
  // the replay path and let Seal() run SealWithPostSort there.
  if (options_.post_sort) return false;
  Stopwatch watch;
  PartitionPlan plan = BuildPromptPlan(accumulated, num_blocks_);
  const TimeMicros decision_cost = watch.ElapsedMicros();
  *out = MaterializePlan(accumulated, plan, num_blocks_);
  out->batch_id = batch_id;
  out->seal_time = batch_end_;
  out->partition_cost = decision_cost;
  return true;
}

void PromptPartitioner::UpdateEstimates(uint64_t estimated_tuples,
                                        uint64_t avg_keys) {
  options_.accumulator.estimated_tuples = std::max<uint64_t>(1, estimated_tuples);
  options_.accumulator.avg_keys = std::max<uint64_t>(1, avg_keys);
}

}  // namespace prompt
