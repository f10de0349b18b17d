// Query-surface overhead: one identical PTA query executed through the
// PtaQuery builder and through the raw building blocks, engine by engine.
//
// Not a paper figure — this benchmarks the repo's own unified query layer
// (pta/query.h). For each engine {exact_dp, greedy, parallel, streaming}
// the same query (group-by G, two averages, size budget c) runs twice:
//   * direct  — the pre-builder call sequence (Ita/ItaStream + the raw
//     reducer, or a hand-built StreamingPtaEngine for the replay);
//   * builder — PtaQuery...Run() / PtaQuery::Stream...Start().
// Stdout is JSON Lines: one record per engine with both wall times and the
// planner overhead percentage, plus a summary record. Two invariants are
// enforced (non-zero exit on violation):
//   * the builder result is byte-identical to the direct result;
//   * the planner overhead stays small (< 5% — the acceptance target is
//     < 1%, and the recorded numbers show it; the looser gate absorbs
//     scheduler noise on loaded CI hosts).
//
// Usage: bench_query_engines [--quick]   (also honors PTA_BENCH_SCALE)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/synthetic.h"
#include "pta/pta.h"
#include "pta/stream_api.h"
#include "util/table_printer.h"

namespace {

using namespace pta;

using bench::ExactlyEqual;

// At least kMinPairs direct/builder pairs and kMinSeconds of wall time per
// engine: cheap rows (about a millisecond at --quick) get hundreds.
constexpr int kMinPairs = 5;
constexpr double kMinSeconds = 1.0;

struct EngineRow {
  const char* name = "";
  bench::PairedTiming timing;  // a = direct, b = builder
  bool identical = false;
  double overhead_percent() const {
    return 100.0 * (timing.median_ratio - 1.0);
  }
};

// Times direct() against builder() and compares their results byte for
// byte.
template <typename Direct, typename Builder>
EngineRow Measure(const char* name, Direct&& direct, Builder&& builder) {
  EngineRow row;
  row.name = name;
  SequentialRelation direct_out, builder_out;
  row.timing = bench::TimePaired([&] { direct_out = direct(); },
                                 [&] { builder_out = builder(); }, kMinPairs,
                                 kMinSeconds);
  row.identical = ExactlyEqual(direct_out, builder_out);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      setenv("PTA_BENCH_SCALE", "0.05", /*overwrite=*/0);
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  // One query for every engine: per-group averages over a multi-group
  // synthetic relation, reduced to a tenth of the ITA size.
  SyntheticOptions synth;
  synth.num_tuples = bench::Scaled(20000, /*minimum=*/1500);
  synth.num_dims = 2;
  synth.num_groups = 64;
  synth.max_duration = 20;
  // Scale the span with the tuple count so temporal density — and with it
  // cmin and the amount of real merge work — survives --quick.
  synth.time_span = static_cast<int64_t>(bench::Scaled(4000, 200));
  synth.seed = 11;
  const TemporalRelation rel = GenerateSyntheticRelation(synth);
  const ItaSpec spec{{"G"}, {Avg("A1", "Avg1"), Avg("A2", "Avg2")}};

  auto ita = Ita(rel, spec);
  PTA_CHECK(ita.ok());
  const size_t n = ita->size();
  // A tenth of the ITA size, but never below the feasibility floor cmin
  // (sparse quick-scale inputs have many temporal gaps).
  const size_t c = std::max(ita->CMin(), n / 10);

  ParallelOptions parallel;
  parallel.num_shards = 8;  // pinned: identical output on every host
  parallel.num_threads = 4;

  std::fprintf(stderr,
               "bench_query_engines — PtaQuery planner overhead "
               "(%zu base tuples, %zu ITA segments, c = %zu)\n",
               rel.size(), n, c);

  std::vector<EngineRow> rows;

  // exact_dp
  rows.push_back(Measure(
      "exact_dp",
      [&] {
        auto i = Ita(rel, spec);
        PTA_CHECK(i.ok());
        auto r = ReduceToSizeDp(*i, c);
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      },
      [&] {
        auto r = PtaQuery::Over(rel)
                     .Spec(spec)
                     .Budget(Budget::Size(c))
                     .Engine(Engine::kExactDp)
                     .Run();
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      }));

  // greedy
  rows.push_back(Measure(
      "greedy",
      [&] {
        auto stream = ItaStream::Create(rel, spec);
        PTA_CHECK(stream.ok());
        auto r = GreedyReduceToSize(**stream, c);
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      },
      [&] {
        auto r = PtaQuery::Over(rel)
                     .Spec(spec)
                     .Budget(Budget::Size(c))
                     .Engine(Engine::kGreedy)
                     .Run();
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      }));

  // parallel
  rows.push_back(Measure(
      "parallel",
      [&] {
        auto stream = ItaStream::Create(rel, spec);
        PTA_CHECK(stream.ok());
        auto map = GroupShardMap((*stream)->group_keys(), spec.group_by,
                                 parallel.shard_by, parallel.num_shards);
        PTA_CHECK(map.ok());
        auto shards = ShardedSegmentSource::Partition(
            **stream, parallel.num_shards, *map);
        PTA_CHECK(shards.ok());
        ParallelReduceOptions reduce;
        reduce.num_threads = parallel.num_threads;
        auto r = ParallelReduceToSize(*shards, c, reduce);
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      },
      [&] {
        auto r = PtaQuery::Over(rel)
                     .Spec(spec)
                     .Budget(Budget::Size(c))
                     .Engine(Engine::kParallel)
                     .Parallel(parallel)
                     .Run();
        PTA_CHECK(r.ok());
        return std::move(r->relation);
      }));

  // streaming (replay of the materialized ITA result, watermark off)
  rows.push_back(Measure(
      "streaming",
      [&] {
        StreamingOptions options;
        options.size_budget = c;
        StreamingPtaEngine engine(ita->num_aggregates(), options);
        PTA_CHECK(engine.IngestChunk(*ita).ok());
        auto r = engine.Finalize();
        PTA_CHECK(r.ok());
        return std::move(*r);
      },
      [&] {
        auto sq = PtaQuery::Stream(ita->num_aggregates())
                      .Budget(Budget::Size(c))
                      .Start();
        PTA_CHECK(sq.ok());
        PTA_CHECK(sq->IngestChunk(*ita).ok());
        auto r = sq->Finalize();
        PTA_CHECK(r.ok());
        return std::move(*r);
      }));

  TablePrinter table(
      {"Engine", "Direct [s]", "Builder [s]", "Overhead", "Identical"});
  bool all_identical = true;
  double max_overhead = 0.0;
  for (const EngineRow& row : rows) {
    const double overhead = row.overhead_percent();
    if (overhead > max_overhead) max_overhead = overhead;
    all_identical = all_identical && row.identical;
    std::printf(
        "{\"bench\": \"query_engines\", \"engine\": \"%s\", "
        "\"segments\": %zu, \"c\": %zu, \"direct_seconds\": %.6f, "
        "\"builder_seconds\": %.6f, \"planner_overhead_percent\": %.3f, "
        "\"identical\": %s}\n",
        row.name, n, c, row.timing.best_a, row.timing.best_b, overhead,
        row.identical ? "true" : "false");
    table.AddRow({row.name, TablePrinter::Fmt(row.timing.best_a, 4),
                  TablePrinter::Fmt(row.timing.best_b, 4),
                  TablePrinter::FmtPercent(overhead, 2),
                  row.identical ? "yes" : "NO"});
  }
  std::printf(
      "{\"bench\": \"query_engines_summary\", \"segments\": %zu, "
      "\"engines\": %zu, \"all_identical\": %s, "
      "\"max_planner_overhead_percent\": %.3f}\n",
      n, rows.size(), all_identical ? "true" : "false", max_overhead);

  std::fputs(table.ToString().c_str(), stderr);
  std::fprintf(stderr,
               "\nexpected shape: overhead within noise of zero (planning "
               "is a handful of\nvalidations); byte-identical output for "
               "every engine.\n");
  if (!all_identical) {
    std::fprintf(stderr, "FAILED: builder output diverged from direct\n");
    return 1;
  }
  if (max_overhead > 5.0) {
    std::fprintf(stderr, "FAILED: planner overhead %.2f%% exceeds 5%%\n",
                 max_overhead);
    return 1;
  }
  return 0;
}
