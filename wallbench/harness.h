// Shared pieces of the wall-clock benchmark: the seeded stream generator, the
// cut-off-stamping feeder the engine pulls from, the plain-map reference the
// window answers are checked against, the host-speed probe, and small
// statistics helpers.
//
// Nothing here calls into the engine except through TupleSource and the
// public WindowState answer map, so the same pieces serve the untraced runs
// (MicroBatchEngine / MultiTenantEngine) and the traced shadow loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/tuple.h"
#include "workload/source.h"

namespace wallbench {

using prompt::KeyId;
using prompt::TimeMicros;
using prompt::Tuple;

constexpr TimeMicros kIntervalMicros = 1000000;  // 1 s of event time per batch

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: tiny state, so the generator leaves the engine's caches alone.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  uint64_t state_;
};

/// Zipf(n, s) ranks in [1, n] by rejection-inversion (Hörmann & Derflinger,
/// 1996): O(1) memory and time per sample, for any s > 0 including s = 1.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : n_(static_cast<double>(n)), s_(s) {
    h_x1_ = HIntegral(1.5) - 1.0;
    h_n_ = HIntegral(n_ + 0.5);
    cut_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  uint64_t Sample(SplitMix& rng) const {
    for (;;) {
      const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
      const double x = HIntegralInverse(u);
      const double k = std::clamp(std::floor(x + 0.5), 1.0, n_);
      if (k - x <= cut_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k);
      }
    }
  }

 private:
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double lx = std::log(x);
    return Helper2((1.0 - s_) * lx) * lx;
  }
  double HIntegralInverse(double x) const {
    const double t = std::max(-1.0, x * (1.0 - s_));
    return std::exp(Helper1(t) * x);
  }
  // log1p(x)/x and expm1(x)/x, with series near 0 so s = 1 stays exact.
  static double Helper1(double x) {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double Helper2(double x) {
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }

  double n_, s_, h_x1_, h_n_, cut_;
};

/// \brief The shape of one workload's input stream.
struct StreamSpec {
  uint64_t keys = 0;              ///< Zipf support (distinct possible keys)
  double zipf = 1.0;              ///< Zipf exponent
  uint64_t tuples_per_batch = 0;  ///< exact count per 1-s batch
  /// Tweets-style: runs of 8-20 words share one timestamp.
  bool tweet_groups = false;
  /// Values are integers drawn uniformly from [1, max_value]; 1 = constant.
  uint32_t max_value = 1;
};

/// \brief Deterministic per-batch generator: batch b depends only on (seed,
/// b), so any batch can be regenerated on its own — the reference rebuilds
/// the last window without replaying the whole run.
class BatchGenerator {
 public:
  BatchGenerator(const StreamSpec& spec, uint64_t seed)
      : spec_(spec),
        seed_(seed),
        key_offset_(Mix64(seed ^ 0x6a09e667f3bcc909ULL)),
        zipf_(spec.keys, spec.zipf) {}

  /// Replaces `out` with the first `limit` tuples of batch b (all of them
  /// by default); timestamps lie in [b, b+1) seconds.
  void Generate(uint64_t b, std::vector<Tuple>* out,
                uint64_t limit = UINT64_MAX) const {
    const uint64_t n = std::min(limit, spec_.tuples_per_batch);
    out->resize(n);
    SplitMix rng(Mix64(seed_ * 0x9e3779b97f4a7c15ULL + b + 1));
    const TimeMicros start = static_cast<TimeMicros>(b) * kIntervalMicros;
    uint64_t group_left = 0;
    TimeMicros ts = start;
    for (uint64_t i = 0; i < n; ++i) {
      if (group_left == 0) {
        group_left = spec_.tweet_groups ? 8 + rng.Below(13) : 1;
        ts = start + static_cast<TimeMicros>(
                         (i * kIntervalMicros) / spec_.tuples_per_batch);
      }
      --group_left;
      Tuple& t = (*out)[i];
      t.ts = ts;
      // Mix64 is a bijection: distinct ranks stay distinct keys, and key
      // bits no longer follow rank order (hash partitioners are not helped).
      t.key = Mix64(zipf_.Sample(rng) + key_offset_);
      t.value = spec_.max_value > 1
                    ? static_cast<double>(1 + rng.Below(spec_.max_value))
                    : 1.0;
    }
  }

  const StreamSpec& spec() const { return spec_; }

 private:
  StreamSpec spec_;
  uint64_t seed_;
  uint64_t key_offset_;
  ZipfSampler zipf_;
};

/// \brief The closed-loop feeder: the harness generates one batch into the
/// buffer before each Run(1) (outside the timed path), and the engine pulls
/// it through this TupleSource.
///
/// The engine reads one tuple past the heartbeat to learn the batch is over,
/// so the buffer also carries the next batch's first tuple. Handing out that
/// tuple is the cut-off: every tuple of the batch has been ingested, and the
/// feeder reads the clock there — once per batch.
class Feeder final : public prompt::TupleSource {
 public:
  /// \param first_batch index of the first batch this engine will pull.
  Feeder(const BatchGenerator* gen, uint64_t first_batch)
      : gen_(gen), next_batch_(first_batch) {}

  const char* name() const override { return "wallbench-feeder"; }
  uint64_t cardinality() const override { return gen_->spec().keys; }

  /// Generates the next batch (plus the lookahead tuple) into the buffer.
  /// Returns the batch index.
  uint64_t Prepare() {
    const int64_t t0 = NowNs();
    batch_ = next_batch_++;
    gen_->Generate(batch_, &buffer_);
    gen_->Generate(batch_ + 1, &lookahead_, 1);
    pos_ = head_served_ ? 1 : 0;
    lookahead_served_ = false;
    gen_ns_ += NowNs() - t0;
    gen_tuples_ += buffer_.size() + 1;
    return batch_;
  }

  bool Next(Tuple* t) override {
    if (pos_ < buffer_.size()) {
      *t = buffer_[pos_++];
      return true;
    }
    if (lookahead_served_ || lookahead_.empty()) return false;
    cutoff_ns_ = NowNs();
    ++stamps_;
    lookahead_served_ = true;
    head_served_ = true;  // the engine now holds the next batch's head tuple
    *t = lookahead_[0];
    return true;
  }

  uint64_t batch() const { return batch_; }
  const std::vector<Tuple>& tuples() const { return buffer_; }
  int64_t cutoff_ns() const { return cutoff_ns_; }
  uint64_t stamps() const { return stamps_; }
  int64_t gen_ns() const { return gen_ns_; }
  uint64_t gen_tuples() const { return gen_tuples_; }

 private:
  const BatchGenerator* gen_;
  uint64_t next_batch_;
  uint64_t batch_ = 0;
  std::vector<Tuple> buffer_;
  std::vector<Tuple> lookahead_;
  size_t pos_ = 0;
  bool head_served_ = false;
  bool lookahead_served_ = false;
  int64_t cutoff_ns_ = 0;
  uint64_t stamps_ = 0;
  int64_t gen_ns_ = 0;
  uint64_t gen_tuples_ = 0;
};

// ---------------------------------------------------------------------------
// Reference answers.

enum class Agg { kCount, kSum, kMax };

/// \brief One query over the stream: aggregate + key predicate (key % modulo
/// == residue; modulo 1 takes every key).
struct QuerySpec {
  Agg agg = Agg::kCount;
  uint64_t modulo = 1;
  uint64_t residue = 0;
  bool Matches(KeyId key) const { return key % modulo == residue; }
};

using Answer = std::unordered_map<KeyId, double>;

/// Rebuilds a query's window answer over batches [first, last] from the
/// generator with a plain map — no engine code involved.
inline Answer ReferenceWindow(const BatchGenerator& gen, const QuerySpec& q,
                              uint64_t first, uint64_t last) {
  Answer ref;
  std::vector<Tuple> tuples;
  for (uint64_t b = first; b <= last; ++b) {
    gen.Generate(b, &tuples);
    for (const Tuple& t : tuples) {
      if (!q.Matches(t.key)) continue;
      auto [it, fresh] = ref.try_emplace(t.key, 0.0);
      switch (q.agg) {
        case Agg::kCount:
          it->second += 1.0;
          break;
        case Agg::kSum:
          it->second += t.value;
          break;
        case Agg::kMax:
          it->second = fresh ? t.value : std::max(it->second, t.value);
          break;
      }
    }
  }
  return ref;
}

/// Exact comparison: same key set, bit-equal values. Integer inputs keep
/// COUNT/SUM/MAX exact in doubles, so no tolerance is needed.
inline bool SameAnswer(const Answer& got, const Answer& want,
                       std::string* why) {
  if (got.size() != want.size()) {
    *why = "key count " + std::to_string(got.size()) + " != reference " +
           std::to_string(want.size());
    return false;
  }
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      *why = "key " + std::to_string(key) + " missing";
      return false;
    }
    if (it->second != value) {
      *why = "key " + std::to_string(key) + " = " +
             std::to_string(it->second) + ", reference " +
             std::to_string(value);
      return false;
    }
  }
  return true;
}

/// The checker must itself catch a wrong answer: one value off by one, and
/// one key missing, each have to fail the comparison. Returns false when
/// either corruption slips through.
inline bool CheckerRejectsCorruption(const Answer& correct) {
  if (correct.empty()) return false;
  std::string why;
  Answer off_by_one = correct;
  off_by_one.begin()->second += 1.0;
  Answer missing = correct;
  missing.erase(missing.begin());
  return SameAnswer(correct, correct, &why) &&
         !SameAnswer(off_by_one, correct, &why) &&
         !SameAnswer(missing, correct, &why);
}

/// \brief Per-batch invariant of a COUNT window, checked after every batch
/// outside the timed path: the window's total equals the number of matching
/// tuples in the last W batches. (SUM and MAX windows are checked exactly at
/// the end of the run; summing a 250k-key window every batch would cost as
/// much as the batch.)
class CountTotals {
 public:
  CountTotals(QuerySpec q, uint32_t window) : q_(q), window_(window) {}

  bool applies() const { return q_.agg == Agg::kCount; }

  void AddBatch(const std::vector<Tuple>& tuples) {
    uint64_t n = 0;
    for (const Tuple& t : tuples) n += q_.Matches(t.key) ? 1 : 0;
    counts_.push_back(n);
    if (counts_.size() > window_) counts_.pop_front();
  }

  bool Holds(const Answer& window) const {
    double expect = 0, got = 0;
    for (uint64_t n : counts_) expect += static_cast<double>(n);
    for (const auto& kv : window) got += kv.second;
    return got == expect;
  }

 private:
  QuerySpec q_;
  uint32_t window_;
  std::deque<uint64_t> counts_;
};

// ---------------------------------------------------------------------------
// Host speed.

/// \brief A fixed piece of work that tracks how fast the shared host runs at
/// the moment: random increments over a 256 KiB array and a 10k-insert
/// std::unordered_map count. It is the same for every workload, seed and
/// engine version, and calls no engine code. The work runs twice and only
/// the second pass is timed; the array and the map then sit in the core's
/// own cache, so what the engine left in the caches does not carry into the
/// time (after a 64 MiB random-write footprint instead of a 256 KiB one the
/// timed pass was 0-2% slower, a single pass over 8 MiB 7-21%).
class HostProbe {
 public:
  HostProbe() : counters_(kWords, 1), keys_(kInserts) {
    uint64_t x = 7;
    for (uint64_t& k : keys_) {
      x = Mix64(x + 1);
      k = x % kKeySpace;
    }
  }

  /// Runs the probe; returns the time of its second pass.
  int64_t MeasureNs() {
    uint64_t sink = Pass();
    const int64_t t0 = NowNs();
    sink += Pass();
    const int64_t elapsed = NowNs() - t0;
    sink_ += sink;
    return elapsed;
  }

 private:
  static constexpr size_t kWords = 1 << 15;  // 256 KiB
  static constexpr int kIncrements = 200000;
  static constexpr size_t kInserts = 10000;
  static constexpr uint64_t kKeySpace = 2048;

  uint64_t Pass() {
    uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int i = 0; i < kIncrements; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += counters_[x & (kWords - 1)]++;
    }
    std::unordered_map<uint64_t, uint64_t> counts;
    for (uint64_t k : keys_) ++counts[k];
    return acc + counts.size();
  }

  std::vector<uint64_t> counters_;
  std::vector<uint64_t> keys_;
  uint64_t sink_ = 0;  ///< keeps the passes' results alive
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace wallbench
