// Micro-benchmarks (google-benchmark) for the primitives whose costs back
// the paper's complexity claims: O(p) run-SSE (Prop. 1), O(log h) heap
// maintenance, the ITA sweep, one DP row, and the greedy end-to-end path.

#include <benchmark/benchmark.h>

#include "core/ita.h"
#include "datasets/etds.h"
#include "datasets/synthetic.h"
#include "pta/dp.h"
#include "pta/error.h"
#include "pta/greedy.h"
#include "pta/merge_heap.h"

namespace {

using namespace pta;

void BM_RunSse(benchmark::State& state) {
  const size_t p = static_cast<size_t>(state.range(0));
  const SequentialRelation rel = GenerateSyntheticSequential(1, 4096, p, 1);
  const ErrorContext ctx(rel);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.RunSse(i % 1024, 1024 + i % 2048));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RunSse)->Arg(1)->Arg(4)->Arg(10);

void BM_Dsim(benchmark::State& state) {
  const size_t p = static_cast<size_t>(state.range(0));
  std::vector<double> va(p, 1.5), vb(p, 2.5), w(p, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dsim(3, va.data(), 5, vb.data(), p, w.data()));
  }
}
BENCHMARK(BM_Dsim)->Arg(1)->Arg(4)->Arg(10);

void BM_HeapInsertAndMerge(benchmark::State& state) {
  const size_t c = static_cast<size_t>(state.range(0));
  const SequentialRelation rel = GenerateSyntheticSequential(1, 16384, 2, 2);
  for (auto _ : state) {
    MergeHeap heap(2, {});
    RelationSegmentSource src(rel);
    Segment seg;
    int32_t tail = MergeHeap::kNoNode;
    while (src.Next(&seg)) {
      tail = heap.Insert(seg, tail);
      while (heap.size() > c) {
        if (heap.Peek().node == tail) tail = heap.prev(tail);
        heap.MergeTop();
      }
    }
    benchmark::DoNotOptimize(heap.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16384);
}
BENCHMARK(BM_HeapInsertAndMerge)->Arg(16)->Arg(256)->Arg(4096);

void BM_ItaSweep(benchmark::State& state) {
  EtdsOptions options;
  options.num_employees = static_cast<size_t>(state.range(0));
  options.num_months = 240;
  const TemporalRelation rel = GenerateEtds(options);
  const ItaSpec spec = EtdsQueryE1();
  for (auto _ : state) {
    auto ita = Ita(rel, spec);
    benchmark::DoNotOptimize(ita->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rel.size()));
}
BENCHMARK(BM_ItaSweep)->Arg(50)->Arg(200);

void BM_DpReduce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SequentialRelation rel = GenerateSyntheticSequential(1, n, 2, 3);
  for (auto _ : state) {
    auto red = ReduceToSizeDp(rel, n / 10);
    benchmark::DoNotOptimize(red->error);
  }
}
BENCHMARK(BM_DpReduce)->Arg(256)->Arg(1024);

void BM_GreedyReduce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SequentialRelation rel = GenerateSyntheticSequential(1, n, 2, 4);
  for (auto _ : state) {
    RelationSegmentSource src(rel);
    auto red = GreedyReduceToSize(src, n / 10, {});
    benchmark::DoNotOptimize(red->error);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GreedyReduce)->Arg(4096)->Arg(65536);

void BM_ErrorContextBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SequentialRelation rel = GenerateSyntheticSequential(1, n, 10, 5);
  for (auto _ : state) {
    ErrorContext ctx(rel);
    benchmark::DoNotOptimize(ctx.MaxError());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ErrorContextBuild)->Arg(4096)->Arg(65536);

}  // namespace
