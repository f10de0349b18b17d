// The granularity advisor (src/advisor/):
//  * ErrorCurve as a bitwise view of the index's recorded curve — every
//    knot, marginal, and eps selection identical to the PtaIndex
//    accessors it wraps;
//  * the acceptance gate — Advise(TargetRelativeError(eps)) recommends,
//    for a dense eps sweep, exactly the budget CutToError(eps)
//    materializes, and the cut at that budget is byte-identical;
//  * knee / marginal-gain / holdout behavior and determinism;
//  * per-group allocation: budgets sum to the cap, each is a valid cut of
//    its group's dendrogram, and the total SSE never exceeds the uniform
//    split at equal total budget;
//  * MultiResolution's checked bottom-up reconciliation property across
//    plain, weighted, gap-merged, single-group, and empty inputs;
//  * PtaQuery::BudgetAuto wiring through the plan cache.

#include "advisor/advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "advisor/error_curve.h"
#include "advisor/multi_resolution.h"
#include "pta/plan.h"
#include "pta/query.h"
#include "test_util.h"

namespace pta {
namespace advisor {
namespace {

using testing::ExpectByteIdentical;
using testing::RandomSequential;

PtaIndex BuildOrDie(const SequentialRelation& rel,
                    const PtaIndexOptions& options = {}) {
  auto index = PtaIndex::Build(rel, options);
  PTA_CHECK_MSG(index.ok(), index.status().ToString().c_str());
  return std::move(*index);
}

// ---- ErrorCurve: a bitwise window onto the recorded curve --------------

TEST(ErrorCurveTest, GlobalCurveIsTheIndexCurveBitwise) {
  const SequentialRelation rel = RandomSequential(100, 2, 4, 0.2, 101);
  const PtaIndex index = BuildOrDie(rel);
  const ErrorCurve curve = ErrorCurve::FromIndex(index);

  EXPECT_EQ(curve.group(), -1);
  EXPECT_EQ(curve.finest_size(), rel.size());
  EXPECT_EQ(curve.coarsest_size(), index.cmin());
  EXPECT_EQ(curve.num_knots(), index.merges() + 1);
  EXPECT_EQ(curve.scale(), index.max_error());

  // Knots are the cumulative errors, copied — not re-accumulated.
  for (size_t m = 0; m <= index.merges(); ++m) {
    EXPECT_EQ(curve.sse()[m], index.cumulative_error(m)) << "m=" << m;
  }
  // ErrorAt agrees with the index accessor on every feasible size.
  for (size_t c = index.cmin(); c <= rel.size(); ++c) {
    auto curve_sse = curve.ErrorAt(c);
    auto index_sse = index.ErrorForSize(c);
    ASSERT_TRUE(curve_sse.ok() && index_sse.ok()) << "c=" << c;
    EXPECT_EQ(*curve_sse, *index_sse) << "c=" << c;
  }
  // MarginalAt(c) is the curve's own knot difference — the cost of the
  // merge to size c as the cumulative curve records it.
  for (size_t m = 1; m <= index.merges(); m += 5) {
    auto marginal = curve.MarginalAt(rel.size() - m);
    ASSERT_TRUE(marginal.ok());
    EXPECT_EQ(*marginal,
              index.cumulative_error(m) - index.cumulative_error(m - 1));
  }
  // SizeFor replays SizeForError's selection exactly.
  for (const double eps : {0.0, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0}) {
    auto a = curve.SizeFor(eps);
    auto b = index.SizeForError(eps);
    ASSERT_TRUE(a.ok() && b.ok()) << "eps=" << eps;
    EXPECT_EQ(*a, *b) << "eps=" << eps;
  }
  // Out-of-domain queries are rejected.
  EXPECT_FALSE(curve.ErrorAt(0).ok());
  EXPECT_FALSE(curve.ErrorAt(rel.size() + 1).ok());
  EXPECT_FALSE(curve.SizeFor(-0.1).ok());
  EXPECT_FALSE(curve.SizeFor(1.1).ok());

  // Export shapes: one point per knot, finest first.
  const std::vector<CurvePoint> points = curve.Points();
  ASSERT_EQ(points.size(), curve.num_knots());
  EXPECT_EQ(points.front().size, rel.size());
  EXPECT_EQ(points.front().sse, 0.0);
  EXPECT_EQ(points.back().size, index.cmin());
  const std::string csv = curve.ToCsv();
  EXPECT_EQ(static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')),
            curve.num_knots() + 1);  // header + one line per knot
}

TEST(ErrorCurveTest, GroupCurvesPartitionTheRecordedRun) {
  const SequentialRelation rel = RandomSequential(120, 2, 5, 0.15, 103);
  const PtaIndex index = BuildOrDie(rel);
  const std::vector<ErrorCurve> curves = ErrorCurve::PerGroup(index);
  ASSERT_EQ(curves.size(), 5u);

  size_t total_leaves = 0;
  size_t total_merges = 0;
  double total_sse = 0.0;
  for (const ErrorCurve& curve : curves) {
    EXPECT_GE(curve.group(), 0);
    EXPECT_GE(curve.num_knots(), 1u);
    total_leaves += curve.finest_size();
    total_merges += curve.num_knots() - 1;
    total_sse += curve.sse().back();
    // A group curve is monotone and starts at zero like the global one.
    EXPECT_EQ(curve.sse().front(), 0.0);
    for (size_t m = 1; m < curve.num_knots(); ++m) {
      EXPECT_GE(curve.sse()[m], curve.sse()[m - 1]);
    }
    // Its scale is its own coarsest SSE.
    EXPECT_EQ(curve.scale(), curve.sse().back());
  }
  // The groups partition the input and the recorded merges...
  EXPECT_EQ(total_leaves, rel.size());
  EXPECT_EQ(total_merges, index.merges());
  // ...and their final SSEs sum to the global curve's endpoint (same
  // addends, different association order — hence NEAR, not EQ).
  EXPECT_NEAR(total_sse, index.cumulative_error(index.merges()),
              1e-9 * (1.0 + std::abs(total_sse)));

  // ForGroup on an unknown id fails.
  EXPECT_FALSE(ErrorCurve::ForGroup(index, 99).ok());
}

// ---- the acceptance gate: TargetRelativeError == CutToError ------------

TEST(AdvisorTest, TargetRelativeErrorMatchesCutToErrorByteForByte) {
  const SequentialRelation rel = RandomSequential(150, 3, 4, 0.2, 107);
  const PtaIndex index = BuildOrDie(rel);

  // Dense sweep: a uniform grid plus every curve knot (the exact
  // boundaries where the selection switches budgets).
  std::vector<double> sweep;
  for (int i = 0; i <= 200; ++i) sweep.push_back(i / 200.0);
  const double emax = index.max_error();
  if (emax > 0) {
    for (size_t m = 1; m <= index.merges(); ++m) {
      const double eps = index.cumulative_error(m) / emax;
      if (eps >= 0.0 && eps <= 1.0) sweep.push_back(eps);
    }
  }
  for (const double eps : sweep) {
    auto advice = Advise(index, AdvisorOptions::TargetRelativeError(eps));
    auto cut = index.CutToError(eps);
    ASSERT_TRUE(advice.ok()) << "eps=" << eps;
    ASSERT_TRUE(cut.ok()) << "eps=" << eps;
    // The recommended budget is the size CutToError materializes...
    EXPECT_EQ(advice->budget, cut->relation.size()) << "eps=" << eps;
    // ...its curve SSE is the cut's accumulated error, bitwise...
    EXPECT_EQ(advice->sse, cut->error) << "eps=" << eps;
    // ...and cutting at the recommendation reproduces the cut exactly.
    auto at_budget = index.CutToSize(advice->budget);
    ASSERT_TRUE(at_budget.ok());
    ExpectByteIdentical(at_budget->relation, cut->relation);
    EXPECT_EQ(at_budget->error, cut->error) << "eps=" << eps;
  }
}

// ---- knee, marginal gain, holdout --------------------------------------

TEST(AdvisorTest, KneeIsDeterministicAndFeasible) {
  const SequentialRelation rel = RandomSequential(130, 2, 3, 0.25, 109);
  const PtaIndex index = BuildOrDie(rel);
  auto first = Advise(index, AdvisorOptions::Knee());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->criterion, Criterion::kKnee);
  EXPECT_GE(first->budget, index.cmin());
  EXPECT_LE(first->budget, rel.size());
  EXPECT_GE(first->relative_error, 0.0);
  EXPECT_LE(first->relative_error, 1.0);
  // Same index, same recommendation — bit for bit.
  auto second = Advise(index, AdvisorOptions::Knee());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->budget, second->budget);
  EXPECT_EQ(first->sse, second->sse);

  // A curve with one overwhelming step has its knee right before it: ten
  // identical segments (free merges), one far-away outlier.
  SequentialRelation elbow(1);
  for (Chronon t = 0; t < 10; ++t) {
    const double v = 5.0;
    elbow.Append(0, Interval(t, t), &v);
  }
  const double outlier = 1e6;
  elbow.Append(0, Interval(10, 10), &outlier);
  const PtaIndex elbow_index = BuildOrDie(elbow);
  auto advice = Advise(elbow_index, AdvisorOptions::Knee());
  ASSERT_TRUE(advice.ok());
  // Everything but the outlier merge is free: the knee keeps 2 segments
  // (the flat run collapsed, the outlier separate) with zero SSE.
  EXPECT_EQ(advice->budget, 2u);
  EXPECT_EQ(advice->sse, 0.0);
}

TEST(AdvisorTest, KneeOnAFlatCurvePicksTheCoarsestCut) {
  // All-equal values: every merge is free, the whole curve is zero.
  SequentialRelation flat(1);
  for (Chronon t = 0; t < 12; ++t) {
    const double v = 3.0;
    flat.Append(0, Interval(t, t), &v);
  }
  const PtaIndex index = BuildOrDie(flat);
  auto advice = Advise(index, AdvisorOptions::Knee());
  ASSERT_TRUE(advice.ok());
  EXPECT_EQ(advice->budget, index.cmin());
  EXPECT_EQ(advice->sse, 0.0);
  EXPECT_EQ(advice->relative_error, 0.0);
}

TEST(AdvisorTest, MarginalGainWalksUntilTheFirstExpensiveMerge) {
  const SequentialRelation rel = RandomSequential(90, 2, 3, 0.2, 113);
  const PtaIndex index = BuildOrDie(rel);

  // Threshold 1 admits every merge (each Δ <= Emax): the coarsest cut.
  auto all = Advise(index, AdvisorOptions::MarginalGain(1.0));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->budget, index.cmin());

  // Threshold 0 stops at the first strictly positive Δ.
  auto none = Advise(index, AdvisorOptions::MarginalGain(0.0));
  ASSERT_TRUE(none.ok());
  size_t free_merges = 0;
  const std::vector<double>& deltas = index.merge_deltas();
  while (free_merges < deltas.size() && deltas[free_merges] <= 0.0) {
    ++free_merges;
  }
  EXPECT_EQ(none->budget, rel.size() - free_merges);

  // Intermediate thresholds recommend a budget whose next merge violates
  // the threshold (or the coarsest cut).
  for (const double t : {0.001, 0.01, 0.05}) {
    auto advice = Advise(index, AdvisorOptions::MarginalGain(t));
    ASSERT_TRUE(advice.ok());
    const size_t m = rel.size() - advice->budget;
    if (m < deltas.size()) {
      EXPECT_GT(deltas[m], t * index.max_error()) << "t=" << t;
    }
    if (m > 0) {
      EXPECT_LE(deltas[m - 1], t * index.max_error()) << "t=" << t;
    }
  }

  EXPECT_FALSE(Advise(index, AdvisorOptions::MarginalGain(-0.5)).ok());
  EXPECT_FALSE(Advise(index, AdvisorOptions::MarginalGain(1.5)).ok());
}

TEST(AdvisorTest, HoldoutScoresCandidateCuts) {
  const SequentialRelation rel = RandomSequential(64, 1, 2, 0.2, 127);
  const PtaIndex index = BuildOrDie(rel);

  // A callback that prefers a specific size wins exactly there.
  const size_t target = index.cmin() + 7;
  std::vector<size_t> seen;
  auto prefer_target = [&](const Reduction& cut) -> Result<double> {
    seen.push_back(cut.relation.size());
    const double d = static_cast<double>(cut.relation.size()) -
                     static_cast<double>(target);
    return d * d;
  };
  std::vector<size_t> candidates;
  for (size_t c = index.cmin(); c <= rel.size(); c += 3) {
    candidates.push_back(c);
  }
  candidates.push_back(target);
  auto advice =
      Advise(index, AdvisorOptions::Holdout(prefer_target, candidates));
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_EQ(advice->budget, target);
  // Candidates were evaluated in ascending order, deduplicated.
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.end(), std::adjacent_find(seen.begin(), seen.end()));

  // The default ladder is geometric: logarithmically many evaluations.
  seen.clear();
  auto sse_score = [&](const Reduction& cut) -> Result<double> {
    seen.push_back(cut.relation.size());
    return cut.error;
  };
  auto geometric = Advise(index, AdvisorOptions::Holdout(sse_score));
  ASSERT_TRUE(geometric.ok());
  EXPECT_LE(seen.size(), 12u);
  EXPECT_EQ(seen.back(), rel.size());
  // Scoring by SSE, the finest candidate (zero error) wins.
  EXPECT_EQ(geometric->budget, rel.size());

  // Callback failures abort with the callback's status.
  auto failing = [](const Reduction&) -> Result<double> {
    return Status::NotFound("holdout set unavailable");
  };
  auto failed = Advise(index, AdvisorOptions::Holdout(failing));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);

  // A holdout request without a callback is a parameter error.
  AdvisorOptions no_callback;
  no_callback.criterion = Criterion::kHoldout;
  EXPECT_FALSE(Advise(index, no_callback).ok());
}

TEST(AdvisorTest, EmptyIndexYieldsTheEmptyAdvice) {
  const PtaIndex empty = BuildOrDie(SequentialRelation(1));
  for (const AdvisorOptions& options :
       {AdvisorOptions::TargetRelativeError(0.5), AdvisorOptions::Knee(),
        AdvisorOptions::MarginalGain(0.5)}) {
    auto advice = Advise(empty, options);
    ASSERT_TRUE(advice.ok()) << CriterionName(options.criterion);
    EXPECT_EQ(advice->budget, 0u);
    EXPECT_EQ(advice->sse, 0.0);
  }
}

// ---- per-group allocation ----------------------------------------------

// The allocator's own uniform split, replicated: equal shares clamped to
// each group's [cmin, leaves] plus one deterministic redistribution sweep.
std::vector<size_t> UniformSizes(const std::vector<GroupBudget>& cmins,
                                 const std::vector<size_t>& leaves,
                                 size_t total) {
  const size_t num_groups = leaves.size();
  std::vector<size_t> sizes(num_groups);
  const size_t base = total / num_groups;
  const size_t rem = total % num_groups;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t want = base + (g < rem ? 1 : 0);
    sizes[g] = std::clamp(want, cmins[g].budget, leaves[g]);
  }
  size_t sum = 0;
  for (const size_t c : sizes) sum += c;
  if (sum < total) {
    size_t give = total - sum;
    for (size_t g = 0; g < num_groups && give > 0; ++g) {
      const size_t add = std::min(leaves[g] - sizes[g], give);
      sizes[g] += add;
      give -= add;
    }
  } else if (sum > total) {
    size_t take = sum - total;
    for (size_t g = 0; g < num_groups && take > 0; ++g) {
      const size_t sub = std::min(sizes[g] - cmins[g].budget, take);
      sizes[g] -= sub;
      take -= sub;
    }
  }
  return sizes;
}

TEST(AdvisorTest, GroupBudgetsSumToTheCapAndBeatUniform) {
  const SequentialRelation rel = RandomSequential(140, 2, 6, 0.2, 131);
  const PtaIndex index = BuildOrDie(rel);
  const std::vector<ErrorCurve> curves = ErrorCurve::PerGroup(index);

  // Per-group feasibility bounds from the curves.
  std::vector<GroupBudget> cmins;
  std::vector<size_t> leaves;
  size_t lo = 0;
  for (const ErrorCurve& curve : curves) {
    cmins.push_back({curve.group(), curve.coarsest_size(), 0.0});
    leaves.push_back(curve.finest_size());
    lo += curve.coarsest_size();
  }

  for (const size_t total : {lo, lo + 5, rel.size() / 4, rel.size() / 2,
                             rel.size() - 3, rel.size()}) {
    auto allocation = AllocateGroupBudgets(index, total);
    ASSERT_TRUE(allocation.ok()) << "total=" << total;
    ASSERT_EQ(allocation->size(), curves.size());
    const size_t clamped = std::clamp(total, lo, rel.size());
    size_t sum = 0;
    double advised_sse = 0.0;
    for (size_t g = 0; g < allocation->size(); ++g) {
      const GroupBudget& gb = (*allocation)[g];
      EXPECT_EQ(gb.group, curves[g].group());
      EXPECT_GE(gb.budget, curves[g].coarsest_size());
      EXPECT_LE(gb.budget, curves[g].finest_size());
      sum += gb.budget;
      advised_sse += gb.sse;
      // The reported SSE is the group curve's value at that budget —
      // i.e. each allocation really is a cut of the group's dendrogram.
      auto curve_sse = curves[g].ErrorAt(gb.budget);
      ASSERT_TRUE(curve_sse.ok());
      EXPECT_EQ(gb.sse, *curve_sse);
    }
    EXPECT_EQ(sum, clamped) << "total=" << total;

    // The advised allocation never loses to the uniform split.
    const std::vector<size_t> uniform =
        UniformSizes(cmins, leaves, clamped);
    double uniform_sse = 0.0;
    for (size_t g = 0; g < curves.size(); ++g) {
      auto sse = curves[g].ErrorAt(uniform[g]);
      ASSERT_TRUE(sse.ok());
      uniform_sse += *sse;
    }
    EXPECT_LE(advised_sse, uniform_sse) << "total=" << total;
  }

  // Advise(per_group) carries the same allocation, capped by group_cap.
  AdvisorOptions options = AdvisorOptions::Knee();
  options.per_group = true;
  options.group_cap = rel.size() / 2;
  auto advice = Advise(index, options);
  ASSERT_TRUE(advice.ok());
  ASSERT_EQ(advice->group_budgets.size(), curves.size());
  size_t sum = 0;
  double total_sse = 0.0;
  for (const GroupBudget& gb : advice->group_budgets) {
    sum += gb.budget;
    total_sse += gb.sse;
  }
  EXPECT_EQ(sum, std::clamp(options.group_cap, lo, rel.size()));
  EXPECT_EQ(advice->group_total_sse, total_sse);
}

// ---- MultiResolution: the checked reconciliation property --------------

std::vector<size_t> LadderFor(const PtaIndex& index, size_t step) {
  std::vector<size_t> budgets;
  for (size_t c = index.cmin(); c < index.input_size(); c += step) {
    budgets.push_back(c);
  }
  budgets.push_back(index.input_size());
  return budgets;
}

void ExpectLadderReconciles(const PtaIndex& index,
                            const std::vector<size_t>& budgets) {
  auto ladder = MultiResolution(index, budgets);
  ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
  ASSERT_EQ(ladder->size(), budgets.size());
  for (size_t i = 0; i < budgets.size(); ++i) {
    auto single = index.CutToSize(budgets[i]);
    ASSERT_TRUE(single.ok());
    ExpectByteIdentical((*ladder)[i].relation, single->relation);
    EXPECT_EQ((*ladder)[i].error, single->error) << "level " << i;
  }
}

TEST(MultiResolutionTest, LaddersReconcileAcrossInputShapes) {
  {  // plain multi-group input with gaps
    const SequentialRelation rel = RandomSequential(90, 2, 4, 0.25, 137);
    const PtaIndex index = BuildOrDie(rel);
    ExpectLadderReconciles(index, LadderFor(index, 7));
  }
  {  // weighted build
    const SequentialRelation rel = RandomSequential(80, 3, 3, 0.2, 139);
    PtaIndexOptions options;
    options.weights = {2.0, 0.25, 1.5};
    const PtaIndex index = BuildOrDie(rel, options);
    ExpectLadderReconciles(index, LadderFor(index, 9));
  }
  {  // gap-merged build (intervals become hulls spanning the gaps)
    const SequentialRelation rel = RandomSequential(70, 2, 3, 0.35, 149);
    PtaIndexOptions options;
    options.merge_across_gaps = true;
    const PtaIndex index = BuildOrDie(rel, options);
    ExpectLadderReconciles(index, LadderFor(index, 5));
  }
  {  // single group
    const SequentialRelation rel = RandomSequential(60, 1, 1, 0.1, 151);
    const PtaIndex index = BuildOrDie(rel);
    ExpectLadderReconciles(index, LadderFor(index, 11));
  }
  {  // empty input: the empty ladder and the empty levels both hold
    const PtaIndex empty = BuildOrDie(SequentialRelation(1));
    auto ladder = MultiResolution(empty, {});
    ASSERT_TRUE(ladder.ok());
    EXPECT_TRUE(ladder->empty());
    auto levels = MultiResolution(empty, {3, 8});
    ASSERT_TRUE(levels.ok()) << levels.status().ToString();
    for (const Reduction& level : *levels) {
      EXPECT_TRUE(level.relation.empty());
    }
  }
}

TEST(MultiResolutionTest, ReaggregateMatchesTheIndexCutBitwise) {
  const SequentialRelation rel = RandomSequential(100, 2, 4, 0.2, 157);
  const PtaIndex index = BuildOrDie(rel);
  // From the full-resolution input down to any coarser size.
  for (size_t c = index.cmin(); c <= rel.size(); c += 13) {
    auto reagg = Reaggregate(index, rel, c);
    auto cut = index.CutToSize(c);
    ASSERT_TRUE(reagg.ok()) << "c=" << c << ": " << reagg.status().ToString();
    ASSERT_TRUE(cut.ok());
    EXPECT_TRUE(reagg->BitwiseEquals(cut->relation)) << "c=" << c;
  }
  // And from an intermediate cut further down.
  const size_t mid = index.cmin() + (rel.size() - index.cmin()) / 2;
  auto mid_cut = index.CutToSize(mid);
  ASSERT_TRUE(mid_cut.ok());
  auto reagg = Reaggregate(index, mid_cut->relation, index.cmin());
  auto coarse = index.CutToSize(index.cmin());
  ASSERT_TRUE(reagg.ok()) << reagg.status().ToString();
  ASSERT_TRUE(coarse.ok());
  EXPECT_TRUE(reagg->BitwiseEquals(coarse->relation));
}

TEST(MultiResolutionTest, RejectsInfeasibleReaggregations) {
  const SequentialRelation rel = RandomSequential(50, 1, 2, 0.2, 163);
  const PtaIndex index = BuildOrDie(rel);
  const size_t mid = index.cmin() + (rel.size() - index.cmin()) / 2;
  auto mid_cut = index.CutToSize(mid);
  ASSERT_TRUE(mid_cut.ok());

  // Coarse size above the finer level: nothing to merge upward.
  EXPECT_FALSE(Reaggregate(index, mid_cut->relation, mid + 1).ok());
  // c == 0 and below-cmin are parameter errors like CutToSize.
  EXPECT_FALSE(Reaggregate(index, rel, 0).ok());
  if (index.cmin() > 1) {
    EXPECT_FALSE(Reaggregate(index, rel, index.cmin() - 1).ok());
  }
  // A relation that is not a cut of this dendrogram is detected.
  const SequentialRelation other = RandomSequential(50, 1, 2, 0.2, 167);
  auto not_a_cut = Reaggregate(index, other, index.cmin());
  ASSERT_FALSE(not_a_cut.ok());
  EXPECT_EQ(not_a_cut.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(not_a_cut.status().message().find("does not match"),
            std::string::npos)
      << not_a_cut.status().message();
  // Arity mismatches are structural, not dendrogram, errors.
  const SequentialRelation wide = RandomSequential(50, 3, 2, 0.2, 163);
  EXPECT_FALSE(Reaggregate(index, wide, index.cmin()).ok());

  // MultiBudgetCut's ladder validation applies to MultiResolution too.
  EXPECT_FALSE(MultiResolution(index, {20, 10}).ok());
  EXPECT_FALSE(MultiResolution(index, {10, 10}).ok());
}

// ---- PtaQuery::BudgetAuto ----------------------------------------------

TEST(BudgetAutoTest, RebudgetsThroughThePlanCache) {
  const auto shared = std::make_shared<const SequentialRelation>(
      RandomSequential(80, 2, 3, 0.2, 173));
  const SequentialRelation& rel = *shared;

  Advice advice;
  auto query = PtaQuery::OverSequential(shared).Engine(Engine::kIndexed)
                   .BudgetAuto(AdvisorOptions::Knee(), &advice);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_GT(advice.budget, 0u);

  PtaRunStats stats;
  auto result = query->Run(&stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->relation.size(), advice.budget);
  // The run cuts the index the advisor consulted: the shared input keys it.
  EXPECT_TRUE(stats.indexed.cache_hit);
  // The run is the indexed cut at the advised budget, byte for byte.
  const PtaIndex index = BuildOrDie(rel);
  auto cut = index.CutToSize(advice.budget);
  ASSERT_TRUE(cut.ok());
  ExpectByteIdentical(result->relation, cut->relation);
  EXPECT_EQ(result->error, cut->error);

  // TargetRelativeError through the query surface keeps the acceptance
  // identity: the run equals CutToError(eps).
  Advice eps_advice;
  auto eps_query =
      PtaQuery::OverSequential(shared).Engine(Engine::kIndexed)
          .BudgetAuto(AdvisorOptions::TargetRelativeError(0.1), &eps_advice);
  ASSERT_TRUE(eps_query.ok());
  auto eps_result = eps_query->Run();
  ASSERT_TRUE(eps_result.ok());
  auto eps_cut = index.CutToError(0.1);
  ASSERT_TRUE(eps_cut.ok());
  ExpectByteIdentical(eps_result->relation, eps_cut->relation);
}

TEST(BudgetAutoTest, RejectsStreamSources) {
  auto query = PtaQuery::Stream(1).BudgetAuto(AdvisorOptions::Knee());
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace advisor
}  // namespace pta
