// Google-benchmark microbenchmarks of the hot data structures: the per-tuple
// accumulator path, the seals, seal-time planning, the online baselines'
// per-tuple decisions, and the reduce allocator.
#include <benchmark/benchmark.h>

#include "baselines/factory.h"
#include "common/flat_map.h"
#include "core/accumulator_api.h"
#include "core/prompt_partitioner.h"
#include "core/reduce_allocator.h"
#include "engine/serde.h"
#include "stats/hyperloglog.h"
#include "stats/space_saving.h"
#include "workload/sources.h"

#include <unordered_map>

namespace prompt {
namespace {

std::vector<Tuple> MakeTuples(uint64_t n, uint64_t cardinality, double z) {
  Rng rng(7);
  ZipfSampler zipf(cardinality, z);
  std::vector<Tuple> tuples(n);
  for (uint64_t i = 0; i < n; ++i) {
    tuples[i] = Tuple{static_cast<TimeMicros>(i * 10),
                      Mix64(zipf.Sample(rng)), 1.0};
  }
  return tuples;
}

void BM_AccumulatorOnTuple(benchmark::State& state) {
  const auto tuples = MakeTuples(100000, state.range(0), 1.0);
  AccumulatorOptions opts;
  opts.estimated_tuples = tuples.size();
  opts.avg_keys = state.range(0);
  auto acc = MakeAccumulator(AccumulatorKind::kFlat, opts);
  for (auto _ : state) {
    acc->Begin(0, Seconds(10));
    for (const Tuple& t : tuples) acc->OnTuple(t);
    benchmark::DoNotOptimize(acc->num_keys());
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_AccumulatorOnTuple)->Arg(1000)->Arg(100000);

void BM_AccumulatorSeal(benchmark::State& state) {
  const auto tuples = MakeTuples(200000, state.range(0), 1.0);
  auto acc = MakeAccumulator(AccumulatorKind::kFlat);
  for (auto _ : state) {
    state.PauseTiming();
    acc->Begin(0, Seconds(10));
    for (const Tuple& t : tuples) acc->OnTuple(t);
    state.ResumeTiming();
    auto batch = acc->Seal();
    benchmark::DoNotOptimize(batch.keys().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AccumulatorSeal)->Arg(10000)->Arg(100000);

void BM_PostSortSeal(benchmark::State& state) {
  const auto tuples = MakeTuples(200000, state.range(0), 1.0);
  auto acc = MakeAccumulator(AccumulatorKind::kFlat);
  for (auto _ : state) {
    state.PauseTiming();
    acc->Begin(0, Seconds(10));
    for (const Tuple& t : tuples) acc->OnTuple(t);
    state.ResumeTiming();
    auto batch = acc->SealWithPostSort();
    benchmark::DoNotOptimize(batch.keys().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PostSortSeal)->Arg(10000)->Arg(100000);

void BM_PromptPlan(benchmark::State& state) {
  const auto tuples = MakeTuples(200000, state.range(0), 1.2);
  auto acc = MakeAccumulator(AccumulatorKind::kFlat);
  acc->Begin(0, Seconds(10));
  for (const Tuple& t : tuples) acc->OnTuple(t);
  auto sealed = acc->Seal();
  for (auto _ : state) {
    auto plan = BuildPromptPlan(sealed, 16);
    benchmark::DoNotOptimize(plan.fragments);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PromptPlan)->Arg(1000)->Arg(50000);

void BM_OnlinePartitionerTuple(benchmark::State& state) {
  const auto type = static_cast<PartitionerType>(state.range(0));
  auto partitioner = CreatePartitioner(type);
  const auto tuples = MakeTuples(100000, 10000, 1.0);
  size_t i = 0;
  partitioner->Begin(16, 0, Seconds(1000000));
  for (auto _ : state) {
    partitioner->OnTuple(tuples[i]);
    i = (i + 1) % tuples.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(PartitionerTypeName(type));
}
BENCHMARK(BM_OnlinePartitionerTuple)
    ->Arg(static_cast<int>(PartitionerType::kShuffle))
    ->Arg(static_cast<int>(PartitionerType::kHash))
    ->Arg(static_cast<int>(PartitionerType::kPk5))
    ->Arg(static_cast<int>(PartitionerType::kCam));

void BM_ReduceAssign(benchmark::State& state) {
  Rng rng(9);
  ZipfSampler zipf(state.range(0), 1.0);
  FlatMap<uint64_t> sizes(state.range(0));
  for (int i = 0; i < 100000; ++i) ++sizes.GetOrInsert(zipf.Sample(rng));
  std::vector<KeyCluster> clusters;
  sizes.ForEach([&clusters](KeyId k, uint64_t s) {
    clusters.push_back(KeyCluster{k, s, false});
  });
  PromptReduceAllocator alloc;
  for (auto _ : state) {
    auto assignment = alloc.Assign(clusters, 16);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.SetItemsProcessed(state.iterations() * clusters.size());
}
BENCHMARK(BM_ReduceAssign)->Arg(1000)->Arg(50000);

void BM_FlatMapGetOrInsert(benchmark::State& state) {
  Rng rng(1);
  FlatMap<uint64_t> map(1024);
  for (auto _ : state) {
    ++map.GetOrInsert(rng.NextBounded(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapGetOrInsert)->Arg(1000)->Arg(1000000);

void BM_StdUnorderedMapBaseline(benchmark::State& state) {
  Rng rng(1);
  std::unordered_map<uint64_t, uint64_t> map;
  for (auto _ : state) {
    ++map[rng.NextBounded(state.range(0))];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdUnorderedMapBaseline)->Arg(1000)->Arg(1000000);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(2);
  ZipfSampler zipf(10000000, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_SpaceSavingAdd(benchmark::State& state) {
  Rng rng(4);
  ZipfSampler zipf(100000, 1.1);
  SpaceSaving sketch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    sketch.Add(Mix64(zipf.Sample(rng)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd)->Arg(64)->Arg(4096);

void BM_HyperLogLogAdd(benchmark::State& state) {
  Rng rng(5);
  HyperLogLog hll(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    hll.Add(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogAdd)->Arg(10)->Arg(14);

void BM_SerdeEncodeBatch(benchmark::State& state) {
  PromptPartitioner partitioner;
  const auto tuples = MakeTuples(static_cast<uint64_t>(state.range(0)),
                                 state.range(0) / 10 + 1, 1.0);
  partitioner.Begin(16, 0, Seconds(100));
  for (const Tuple& t : tuples) partitioner.OnTuple(t);
  auto batch = partitioner.Seal(0);
  for (auto _ : state) {
    std::string bytes = EncodeBatch(batch);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(EncodeBatch(batch).size()));
}
BENCHMARK(BM_SerdeEncodeBatch)->Arg(10000)->Arg(100000);

void BM_SerdeDecodeBatch(benchmark::State& state) {
  PromptPartitioner partitioner;
  const auto tuples = MakeTuples(static_cast<uint64_t>(state.range(0)),
                                 state.range(0) / 10 + 1, 1.0);
  partitioner.Begin(16, 0, Seconds(100));
  for (const Tuple& t : tuples) partitioner.OnTuple(t);
  const std::string bytes = EncodeBatch(partitioner.Seal(0));
  for (auto _ : state) {
    auto decoded = DecodeBatch(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_SerdeDecodeBatch)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace prompt

BENCHMARK_MAIN();
