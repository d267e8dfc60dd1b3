#include "ingest/merge.h"

namespace prompt {

namespace {

// Sentinel run ranking below every real run, so exhausted inputs always lose
// their matches. count = 0 with the maximal key loses against any real run
// under RunBefore (real counts are >= 1).
constexpr SortedKeyRun kExhausted{~KeyId{0}, 0};

}  // namespace

LoserTree::LoserTree(std::vector<std::span<const SortedKeyRun>> inputs)
    : inputs_(std::move(inputs)), cursor_(inputs_.size(), 0) {
  uint32_t k = 1;
  while (k < inputs_.size()) k <<= 1;
  k_ = k;
  for (const auto& in : inputs_) remaining_ += in.size();

  // Seed the tournament: run every leaf up its path, recording losers. The
  // standard bottom-up build plays leaves pairwise; with K small (shard
  // counts are tens, not thousands) the simpler repeated-replay build is
  // fine and obviously correct.
  tree_.assign(k_, UINT32_MAX);
  winner_ = 0;
  for (uint32_t leaf = 0; leaf < k_; ++leaf) {
    uint32_t node = (k_ + leaf) >> 1;
    uint32_t contender = leaf;
    while (node > 0) {
      if (tree_[node] == UINT32_MAX) {
        // First arrival at this match: park here, await the sibling.
        tree_[node] = contender;
        contender = UINT32_MAX;
        break;
      }
      // Play the match: winner moves up, loser stays.
      const uint32_t other = tree_[node];
      const SortedKeyRun& a = Front(contender);
      const SortedKeyRun& b = Front(other);
      if (RunBefore(b, a)) {
        tree_[node] = contender;
        contender = other;
      }
      node >>= 1;
    }
    if (contender != UINT32_MAX) winner_ = contender;
  }
}

const SortedKeyRun& LoserTree::Front(uint32_t leaf) const {
  if (leaf >= inputs_.size() || cursor_[leaf] >= inputs_[leaf].size()) {
    return kExhausted;
  }
  return inputs_[leaf][cursor_[leaf]];
}

bool LoserTree::Next(SortedKeyRun* out, uint32_t* source) {
  if (remaining_ == 0) return false;
  *out = Front(winner_);
  if (source != nullptr) *source = winner_;
  ++cursor_[winner_];
  --remaining_;
  winner_ = Replay(winner_);
  return true;
}

uint32_t LoserTree::Replay(uint32_t leaf) {
  // The advanced leaf replays its path to the root; at each internal node
  // the stored loser challenges the climbing contender.
  uint32_t contender = leaf;
  for (uint32_t node = (k_ + leaf) >> 1; node > 0; node >>= 1) {
    const uint32_t other = tree_[node];
    if (other != UINT32_MAX &&
        RunBefore(Front(other), Front(contender))) {
      tree_[node] = contender;
      contender = other;
    }
  }
  return contender;
}

std::vector<SortedKeyRun> MergeShardRuns(
    std::vector<std::span<const SortedKeyRun>> shards) {
  if (shards.size() == 1) {
    return std::vector<SortedKeyRun>(shards[0].begin(), shards[0].end());
  }
  LoserTree tree(std::move(shards));
  std::vector<SortedKeyRun> out;
  out.reserve(tree.remaining());
  SortedKeyRun run;
  while (tree.Next(&run)) out.push_back(run);
  return out;
}

}  // namespace prompt
