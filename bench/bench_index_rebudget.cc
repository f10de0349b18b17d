// Re-budgeting with the PtaIndex merge tree vs full greedy recomputation.
//
// Not a paper figure — this benchmarks the PR 5 index subsystem on the
// paper's Fig. 18 workloads: (a) the gap-free sequential S1 subset and
// (b) the grouped S2 subset (50 groups), p = 10. The dashboard/zoom
// pattern asks the *same* query at many budgets; today that re-runs the
// greedy merge per budget, while the index pays one recorded run and then
// answers every budget as an O(k) cut (plus one MultiBudgetCut walk for a
// whole zoom ladder).
//
// Stdout is JSON Lines: one record per workload and a summary. Invariants
// enforced (non-zero exit on violation):
//   * every size and error cut is byte-identical to the corresponding
//     GmsReduceToSize/-ToError run — and on the gap-free workload to
//     GreedyReduceToSize/-ToError (delta = infinity) as well;
//   * the swept re-budget latency is >= 10x faster than greedy recompute;
//   * one index build costs <= 1.3x one plain greedy run — the
//     materialized GMS reduction to cmin, i.e. exactly the merge sequence
//     the build records (measured overhead is a few percent). The
//     *streaming* gPTAc run is also reported for context: its early
//     merges keep the heap near c, so it undercuts full GMS on grouped
//     data — that gap is the price of recording the whole hierarchy once
//     instead of answering a single budget;
//   * (c) one gapped group (GenerateSyntheticWithGaps, p = 10, large
//     enough that one heap over it falls out of cache): its build on a
//     single thread splits into cache-sized chunks at the gaps and costs
//     <= 1.0x the same greedy run, with cuts byte-identical to GMS.
//
// Usage: bench_index_rebudget [--quick]   (also honors PTA_BENCH_SCALE)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/synthetic.h"
#include "pta/pta.h"
#include "util/stopwatch.h"

namespace {

using namespace pta;

using bench::ExactlyEqual;

// Best-of runs to damp scheduler noise. Every gated ratio compares the
// best times of kReps alternating pairs (bench::TimePaired), so a burst of
// host noise hits both sides.
constexpr int kReps = 9;

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    fn();
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

struct WorkloadResult {
  std::string name;
  size_t n = 0;
  size_t budgets = 0;
  double greedy_sweep_seconds = 0.0;
  double cut_sweep_seconds = 0.0;
  double multi_cut_seconds = 0.0;
  double gms_full_run_seconds = 0.0;
  double stream_full_run_seconds = 0.0;
  double build_seconds = 0.0;
  bool identical = true;

  double speedup() const {
    return cut_sweep_seconds > 0.0
               ? greedy_sweep_seconds / cut_sweep_seconds
               : 0.0;
  }
  double build_over_greedy() const {
    return gms_full_run_seconds > 0.0 ? build_seconds / gms_full_run_seconds
                                      : 0.0;
  }
};

WorkloadResult RunWorkload(const char* name, const SequentialRelation& rel,
                           bool gap_free) {
  WorkloadResult result;
  result.name = name;
  result.n = rel.size();
  const size_t cmin = rel.CMin();
  const std::vector<size_t> budgets = bench::SampleSizes(rel.size(), cmin, 16);
  result.budgets = budgets.size();
  const std::vector<double> eps_grid = {0.01, 0.05, 0.1, 0.25, 0.5, 0.9};
  GreedyOptions greedy;
  greedy.delta = GreedyOptions::kDeltaInfinity;

  // The streaming variant of the same run, for context (its early merges
  // keep the heap near c, undercutting full GMS on grouped data).
  result.stream_full_run_seconds = BestOf([&] {
    RelationSegmentSource source(rel);
    auto red = GreedyReduceToSize(source, cmin, greedy);
    PTA_CHECK_MSG(red.ok(), red.status().message().c_str());
  });

  // --- the index: one build, then O(k) cuts ------------------------------
  PtaIndexBuildStats build_stats;
  auto built = PtaIndex::Build(rel, {}, &build_stats);
  PTA_CHECK_MSG(built.ok(), built.status().message().c_str());
  const PtaIndex& index = *built;
  // Build timing moves a pre-made copy in, mirroring the production path
  // (the planner moves the ITA result into the build); the copy itself is
  // an OverSequential-caching artifact and is prepared outside the timer.
  std::vector<SequentialRelation> inputs(kReps, rel);
  size_t next_input = 0;
  // One maximal plain greedy run (GMS to cmin) — exactly the merge
  // sequence the index build records; the build gate compares to this.
  const bench::PairedTiming build = bench::TimePaired(
      [&] {
        auto red = GmsReduceToSize(rel, cmin, greedy);
        PTA_CHECK_MSG(red.ok(), red.status().message().c_str());
      },
      [&] {
        auto rebuilt = PtaIndex::Build(std::move(inputs[next_input++]), {});
        PTA_CHECK(rebuilt.ok());
      },
      kReps);
  result.gms_full_run_seconds = build.best_a;
  result.build_seconds = build.best_b;
  // One cut per budget against the status quo: one full greedy re-run per
  // budget.
  const bench::PairedTiming sweep = bench::TimePaired(
      [&] {
        for (const size_t c : budgets) {
          auto cut = index.CutToSize(c);
          PTA_CHECK(cut.ok());
        }
      },
      [&] {
        for (const size_t c : budgets) {
          RelationSegmentSource source(rel);
          auto red = GreedyReduceToSize(source, c, greedy);
          PTA_CHECK_MSG(red.ok(), red.status().message().c_str());
        }
      },
      kReps);
  result.cut_sweep_seconds = sweep.best_a;
  result.greedy_sweep_seconds = sweep.best_b;
  result.multi_cut_seconds = BestOf([&] {
    auto ladder = index.MultiBudgetCut(budgets);
    PTA_CHECK(ladder.ok());
  });

  // --- the regression gate: byte-identity, budget by budget -------------
  for (const size_t c : budgets) {
    auto cut = index.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c, greedy);
    PTA_CHECK(cut.ok() && gms.ok());
    const bool same = ExactlyEqual(cut->relation, gms->relation) &&
                      cut->error == gms->error;
    result.identical = result.identical && same;
    if (gap_free) {
      RelationSegmentSource source(rel);
      auto streamed = GreedyReduceToSize(source, c, greedy);
      PTA_CHECK(streamed.ok());
      result.identical = result.identical &&
                         ExactlyEqual(cut->relation, streamed->relation) &&
                         cut->error == streamed->error;
    }
  }
  const GreedyErrorEstimates estimates{index.max_error(), rel.size()};
  for (const double eps : eps_grid) {
    auto cut = index.CutToError(eps);
    auto gms = GmsReduceToError(rel, eps, greedy);
    PTA_CHECK(cut.ok() && gms.ok());
    result.identical = result.identical &&
                       ExactlyEqual(cut->relation, gms->relation) &&
                       cut->error == gms->error;
    if (gap_free) {
      RelationSegmentSource source(rel);
      auto streamed = GreedyReduceToError(source, eps, estimates, greedy);
      PTA_CHECK(streamed.ok());
      result.identical =
          result.identical && ExactlyEqual(cut->relation, streamed->relation);
    }
  }
  return result;
}

// Row (c): only the build gate, so the row can be large without a
// budget sweep.
struct GappedBuildResult {
  size_t n = 0;
  size_t chunks = 0;
  double gms_full_run_seconds = 0.0;
  double build_seconds = 0.0;
  bool identical = true;

  double build_over_greedy() const {
    return gms_full_run_seconds > 0.0 ? build_seconds / gms_full_run_seconds
                                      : 0.0;
  }
};

GappedBuildResult RunGappedBuild(const SequentialRelation& rel) {
  GappedBuildResult result;
  result.n = rel.size();
  const size_t cmin = rel.CMin();
  Reduction at_cmin;
  PtaIndexOptions options;
  options.num_threads = 1;
  std::vector<SequentialRelation> inputs(kReps, rel);
  size_t next_input = 0;
  PtaIndexBuildStats stats;
  Result<PtaIndex> index = PtaIndex{};
  const bench::PairedTiming build = bench::TimePaired(
      [&] {
        auto red = GmsReduceToSize(rel, cmin);
        PTA_CHECK_MSG(red.ok(), red.status().message().c_str());
        at_cmin = std::move(*red);
      },
      [&] {
        index =
            PtaIndex::Build(std::move(inputs[next_input++]), options, &stats);
        PTA_CHECK(index.ok());
      },
      kReps);
  result.gms_full_run_seconds = build.best_a;
  result.build_seconds = build.best_b;
  result.chunks = stats.chunks;
  auto cut = index->CutToSize(cmin);
  auto half = index->CutToSize(rel.size() / 2);
  auto gms_half = GmsReduceToSize(rel, rel.size() / 2);
  PTA_CHECK(cut.ok() && half.ok() && gms_half.ok());
  result.identical = ExactlyEqual(cut->relation, at_cmin.relation) &&
                     cut->error == at_cmin.error &&
                     ExactlyEqual(half->relation, gms_half->relation) &&
                     half->error == gms_half->error;
  return result;
}

void PrintRecord(const WorkloadResult& r) {
  std::printf(
      "{\"bench\": \"index_rebudget\", \"workload\": \"%s\", \"n\": %zu, "
      "\"budgets\": %zu, \"greedy_sweep_seconds\": %.6f, "
      "\"cut_sweep_seconds\": %.6f, \"multi_cut_seconds\": %.6f, "
      "\"speedup\": %.1f, \"gms_full_run_seconds\": %.6f, "
      "\"stream_full_run_seconds\": %.6f, "
      "\"index_build_seconds\": %.6f, \"build_over_greedy\": %.2f, "
      "\"identical\": %s}\n",
      r.name.c_str(), r.n, r.budgets, r.greedy_sweep_seconds,
      r.cut_sweep_seconds, r.multi_cut_seconds, r.speedup(),
      r.gms_full_run_seconds, r.stream_full_run_seconds, r.build_seconds,
      r.build_over_greedy(), r.identical ? "true" : "false");
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

  // The floor keeps --quick's rows at millisecond builds, where the 1.3x
  // and 10x gates read above timer and thread-pool start-up noise.
  const size_t n = bench::Scaled(20000, /*minimum=*/10000);
  // Fig. 18(a): gap-free sequential S1 subset, p = 10 — here the streaming
  // greedy reducers coincide with GMS and the identity gate covers them too.
  const SequentialRelation s1 =
      GenerateSyntheticSequential(1, n, 10, 100 + n);
  // Fig. 18(b): grouped S2 subset, 50 groups.
  const SequentialRelation s2 =
      GenerateSyntheticSequential(50, n / 50, 10, 200 + n);

  // (c): one group with a one-chronon hole every ~64 rows on average.
  const size_t gapped_n = bench::Scaled(400000, /*minimum=*/200000);
  const SequentialRelation gapped =
      GenerateSyntheticWithGaps(gapped_n, 10, gapped_n / 64, 300 + gapped_n);

  const WorkloadResult a = RunWorkload("fig18a_s1", s1, /*gap_free=*/true);
  const WorkloadResult b = RunWorkload("fig18b_s2", s2, /*gap_free=*/false);
  const GappedBuildResult g = RunGappedBuild(gapped);
  PrintRecord(a);
  PrintRecord(b);
  std::printf(
      "{\"bench\": \"index_rebudget\", \"workload\": \"gapped_s1_1t\", "
      "\"n\": %zu, \"build_threads\": 1, \"build_chunks\": %zu, "
      "\"gms_full_run_seconds\": %.6f, \"index_build_seconds\": %.6f, "
      "\"build_over_greedy\": %.2f, \"identical\": %s}\n",
      g.n, g.chunks, g.gms_full_run_seconds, g.build_seconds,
      g.build_over_greedy(), g.identical ? "true" : "false");

  const double worst_speedup =
      a.speedup() < b.speedup() ? a.speedup() : b.speedup();
  const double worst_build = a.build_over_greedy() > b.build_over_greedy()
                                 ? a.build_over_greedy()
                                 : b.build_over_greedy();
  const bool identical = a.identical && b.identical && g.identical;
  const bool speedup_ok = worst_speedup >= 10.0;
  const bool build_ok = worst_build <= 1.3;
  const bool gapped_build_ok = g.build_over_greedy() <= 1.0;
  std::printf(
      "{\"bench\": \"index_rebudget\", \"summary\": true, "
      "\"worst_speedup\": %.1f, \"worst_build_over_greedy\": %.2f, "
      "\"gapped_1t_build_over_greedy\": %.2f, \"identical\": %s, "
      "\"speedup_ok\": %s, \"build_ok\": %s, \"gapped_build_ok\": %s}\n",
      worst_speedup, worst_build, g.build_over_greedy(),
      identical ? "true" : "false", speedup_ok ? "true" : "false",
      build_ok ? "true" : "false", gapped_build_ok ? "true" : "false");

  if (!identical) {
    std::fprintf(stderr, "FAIL: an index cut diverged from the reducers\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: re-budget speedup %.1fx is below 10x\n",
                 worst_speedup);
    return 1;
  }
  if (!build_ok) {
    std::fprintf(stderr, "FAIL: index build %.2fx exceeds 1.3x greedy\n",
                 worst_build);
    return 1;
  }
  if (!gapped_build_ok) {
    std::fprintf(stderr,
                 "FAIL: single-threaded gapped build %.2fx exceeds 1.0x "
                 "greedy\n",
                 g.build_over_greedy());
    return 1;
  }
  return 0;
}
