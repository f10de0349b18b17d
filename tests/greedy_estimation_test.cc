// gPTAε estimation determinism and override handling (Sec. 6.3).
//
// The error-bounded greedy engine estimates Êmax by sampling the input
// with a seeded RNG; identical knobs must give bit-identical results, and
// the estimated_max_error / estimated_n overrides must bypass the sampler
// and steer the Prop. 4 early-merge budget.

#include "pta/pta.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pta {
namespace {

using pta::testing::MakeProjRelation;

ItaSpec ProjAvgSpec() { return {{"Proj"}, {Avg("Sal", "AvgSal")}}; }

// A single-group relation long enough for the streaming algorithm to see
// early-merge opportunities (unit intervals, slowly varying values).
TemporalRelation MakeLongRelation(size_t n) {
  TemporalRelation rel{
      Schema({{"G", ValueType::kString}, {"V", ValueType::kDouble}})};
  Random rng(7);
  for (size_t i = 0; i < n; ++i) {
    const auto t = static_cast<Chronon>(i);
    PTA_CHECK(rel.Insert({"A", rng.Uniform(0.0, 100.0)}, Interval(t, t)).ok());
  }
  return rel;
}

ItaSpec LongAvgSpec() { return {{"G"}, {Avg("V", "AvgV")}}; }

// gPTAε over a base relation through the builder; `stats` (optional)
// receives the run's counters, greedy ones included.
Result<PtaResult> GreedyByError(const TemporalRelation& rel,
                                const ItaSpec& spec, double eps,
                                const GreedyPtaOptions& options,
                                PtaRunStats* stats = nullptr) {
  return PtaQuery::Over(rel)
      .Spec(spec)
      .Budget(Budget::RelativeError(eps))
      .Engine(Engine::kGreedy)
      .Greedy(options)
      .Run(stats);
}

TEST(GreedyEstimationTest, SameSeedAndFractionAreDeterministic) {
  const TemporalRelation rel = MakeLongRelation(200);
  GreedyPtaOptions options;
  options.sample_fraction = 0.25;
  options.sample_seed = 1234;

  PtaRunStats stats1, stats2;
  auto r1 = GreedyByError(rel, LongAvgSpec(), 0.4, options, &stats1);
  auto r2 = GreedyByError(rel, LongAvgSpec(), 0.4, options, &stats2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());

  // Bit-identical relations, errors, and observability counters.
  EXPECT_TRUE(r1->relation.ApproxEquals(r2->relation, 0.0));
  EXPECT_EQ(r1->relation.size(), r2->relation.size());
  EXPECT_DOUBLE_EQ(r1->error, r2->error);
  EXPECT_EQ(r1->ita_size, r2->ita_size);
  EXPECT_EQ(stats1.greedy.max_heap_size, stats2.greedy.max_heap_size);
  EXPECT_EQ(stats1.greedy.merges, stats2.greedy.merges);
  EXPECT_EQ(stats1.greedy.early_merges, stats2.greedy.early_merges);
}

TEST(GreedyEstimationTest, DifferentSeedsStillProduceValidReductions) {
  const TemporalRelation rel = MakeLongRelation(200);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    GreedyPtaOptions options;
    options.sample_fraction = 0.25;
    options.sample_seed = seed;
    auto r = GreedyByError(rel, LongAvgSpec(), 0.4, options);
    ASSERT_TRUE(r.ok()) << "seed " << seed;
    EXPECT_TRUE(r->relation.Validate().ok());
    EXPECT_LE(r->relation.size(), r->ita_size);
  }
}

TEST(GreedyEstimationTest, MaxErrorOverrideBypassesTheSampler) {
  const TemporalRelation proj = MakeProjRelation();
  GreedyPtaOptions options;
  options.estimated_max_error = 1000.0;
  // An invalid fraction proves the sampling path is never entered when the
  // override is set; without the override it must be rejected.
  options.sample_fraction = -1.0;
  EXPECT_TRUE(GreedyByError(proj, ProjAvgSpec(), 0.5, options).ok());

  GreedyPtaOptions no_override;
  no_override.sample_fraction = -1.0;
  auto rejected = GreedyByError(proj, ProjAvgSpec(), 0.5, no_override);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(GreedyEstimationTest, ZeroMaxErrorOverrideSuppressesEarlyMerges) {
  const TemporalRelation rel = MakeLongRelation(200);
  GreedyPtaOptions options;
  options.estimated_max_error = 0.0;  // Prop. 4 step budget becomes zero
  PtaRunStats stats;
  auto r = GreedyByError(rel, LongAvgSpec(), 1.0, options, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.greedy.early_merges, 0u);
  // The post-stream GMS phase still works from the exact Emax.
  EXPECT_LT(r->relation.size(), r->ita_size);
}

TEST(GreedyEstimationTest, LargeMaxErrorOverrideEnablesEarlyMerges) {
  const TemporalRelation rel = MakeLongRelation(200);
  GreedyPtaOptions options;
  options.estimated_max_error = 1e12;
  options.estimated_n = 1;
  PtaRunStats stats;
  auto r = GreedyByError(rel, LongAvgSpec(), 1.0, options, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.greedy.early_merges, 0u);
}

TEST(GreedyEstimationTest, EstimatedNScalesTheStepBudget) {
  const TemporalRelation rel = MakeLongRelation(200);

  GreedyPtaOptions eager;
  eager.estimated_max_error = 1e9;
  eager.estimated_n = 1;
  PtaRunStats eager_stats;
  ASSERT_TRUE(GreedyByError(rel, LongAvgSpec(), 1.0, eager, &eager_stats).ok());

  GreedyPtaOptions cautious = eager;
  cautious.estimated_n = static_cast<size_t>(1) << 60;
  PtaRunStats cautious_stats;
  ASSERT_TRUE(
      GreedyByError(rel, LongAvgSpec(), 1.0, cautious, &cautious_stats).ok());

  // A huge n̂ shrinks eps * Êmax / n̂ to (near) zero: no early merges; the
  // same Êmax with n̂ = 1 merges eagerly while streaming.
  EXPECT_GT(eager_stats.greedy.early_merges, 0u);
  EXPECT_EQ(cautious_stats.greedy.early_merges, 0u);
}

TEST(GreedyEstimationTest, DefaultEstimatedNFollowsThePaperBound) {
  // estimated_n = 0 means "use 2|r| - 1"; the call must succeed and reduce.
  const TemporalRelation proj = MakeProjRelation();
  GreedyPtaOptions options;
  options.sample_fraction = 1.0;
  options.estimated_n = 0;
  auto r = GreedyByError(proj, ProjAvgSpec(), 1.0, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.size(), 3u);  // cmin of the Fig. 1 example
}

}  // namespace
}  // namespace pta
