#include "pta/pta.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjRelation;

ItaSpec ProjAvgSpec() { return {{"Proj"}, {Avg("Sal", "AvgSal")}}; }

// The builder bound to one input, spec and engine; each test adds the
// budget and any tuning, then runs it.
PtaQuery ExactQuery(const TemporalRelation& rel,
                    const ItaSpec& spec = ProjAvgSpec()) {
  return PtaQuery::Over(rel).Spec(spec).Engine(Engine::kExactDp);
}

PtaQuery GreedyQuery(const TemporalRelation& rel,
                     const ItaSpec& spec = ProjAvgSpec()) {
  return PtaQuery::Over(rel).Spec(spec).Engine(Engine::kGreedy);
}

TEST(PtaApiTest, SizeBoundedRunsTheFullPipeline) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = ExactQuery(proj).Budget(Budget::Size(4)).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ita_size, 7u);
  EXPECT_EQ(result->relation.size(), 4u);
  EXPECT_NEAR(result->error, 49166.67, 0.01);

  // The result converts back to displayable tuples (Fig. 1(d)).
  const Schema group_schema({{"Proj", ValueType::kString}});
  auto displayed = result->relation.ToTemporalRelation(group_schema);
  ASSERT_TRUE(displayed.ok());
  ASSERT_EQ(displayed->size(), 4u);
  EXPECT_EQ(displayed->tuple(0).value(0).AsString(), "A");
  EXPECT_NEAR(displayed->tuple(0).value(1).AsDoubleExact(), 733.33, 0.01);
  EXPECT_EQ(displayed->tuple(0).interval(), Interval(1, 3));
}

TEST(PtaApiTest, ErrorBoundedReturnsMaximalReduction) {
  const TemporalRelation proj = MakeProjRelation();
  auto all = ExactQuery(proj).Budget(Budget::RelativeError(1.0)).Run();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->relation.size(), 3u);  // cmin

  auto some = ExactQuery(proj).Budget(Budget::RelativeError(0.2)).Run();
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->relation.size(), 4u);
}

TEST(PtaApiTest, GreedySizeBoundedMatchesGmsOnExample) {
  const TemporalRelation proj = MakeProjRelation();
  PtaRunStats stats;
  GreedyPtaOptions options;
  options.delta = 1;
  auto result = GreedyQuery(proj)
                    .Budget(Budget::Size(3))
                    .Greedy(options)
                    .Run(&stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ita_size, 7u);
  ASSERT_EQ(result->relation.size(), 3u);
  EXPECT_EQ(stats.greedy.max_heap_size, 5u);  // Example 21
  // Group keys attached to the result.
  ASSERT_EQ(result->relation.group_keys().size(), 2u);
  EXPECT_EQ(result->relation.group_keys()[0][0].AsString(), "A");
}

TEST(PtaApiTest, GreedyErrorBoundedEstimatesAndReduces) {
  const TemporalRelation proj = MakeProjRelation();
  GreedyPtaOptions options;
  options.sample_fraction = 1.0;  // sample everything: exact Êmax
  auto result = GreedyQuery(proj)
                    .Budget(Budget::RelativeError(1.0))
                    .Greedy(options)
                    .Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.size(), 3u);

  // Manual overrides are honored.
  GreedyPtaOptions manual;
  manual.estimated_max_error = 269285.71;
  manual.estimated_n = 7;
  auto result2 = GreedyQuery(proj)
                     .Budget(Budget::RelativeError(1.0))
                     .Greedy(manual)
                     .Run();
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->relation.size(), 3u);
}

TEST(PtaApiTest, ExactAndGreedyAgreeOnEasyReductions) {
  // When the bound is loose both evaluations return the same relation.
  const TemporalRelation proj = MakeProjRelation();
  auto exact = ExactQuery(proj).Budget(Budget::Size(6)).Run();
  auto greedy = GreedyQuery(proj).Budget(Budget::Size(6)).Run();
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(exact->relation.ApproxEquals(greedy->relation, 1e-7));
}

TEST(PtaApiTest, PropagatesSpecErrors) {
  const TemporalRelation proj = MakeProjRelation();
  EXPECT_FALSE(ExactQuery(proj, {{"Nope"}, {Avg("Sal", "A")}})
                   .Budget(Budget::Size(4))
                   .Run()
                   .ok());
  EXPECT_FALSE(ExactQuery(proj, {{"Proj"}, {}})
                   .Budget(Budget::RelativeError(0.5))
                   .Run()
                   .ok());
  EXPECT_FALSE(GreedyQuery(proj, {{"Proj"}, {Avg("Bad", "A")}})
                   .Budget(Budget::Size(4))
                   .Run()
                   .ok());
  EXPECT_FALSE(GreedyQuery(proj).Budget(Budget::RelativeError(2.0)).Run().ok());
  // c below cmin.
  EXPECT_FALSE(ExactQuery(proj).Budget(Budget::Size(2)).Run().ok());
  // Invalid sampling fraction.
  GreedyPtaOptions bad;
  bad.sample_fraction = 0.0;
  EXPECT_FALSE(GreedyQuery(proj)
                   .Budget(Budget::RelativeError(0.5))
                   .Greedy(bad)
                   .Run()
                   .ok());
}

// --- Degenerate inputs: every public entry point must return a Result<>
// --- error (or a well-defined identity) instead of crashing.

TemporalRelation MakeEmptyRelation() {
  return TemporalRelation{Schema({{"Empl", ValueType::kString},
                                  {"Proj", ValueType::kString},
                                  {"Sal", ValueType::kDouble}})};
}

TemporalRelation MakeSingleTupleRelation() {
  TemporalRelation rel = MakeEmptyRelation();
  PTA_CHECK(rel.Insert({"John", "A", 800.0}, Interval(1, 4)).ok());
  return rel;
}

TEST(PtaApiDegenerateTest, EmptyRelationYieldsEmptyResult) {
  const TemporalRelation empty = MakeEmptyRelation();
  auto by_size = ExactQuery(empty).Budget(Budget::Size(1)).Run();
  ASSERT_TRUE(by_size.ok());
  EXPECT_EQ(by_size->relation.size(), 0u);
  EXPECT_EQ(by_size->ita_size, 0u);
  EXPECT_DOUBLE_EQ(by_size->error, 0.0);

  auto by_error = ExactQuery(empty).Budget(Budget::RelativeError(0.5)).Run();
  ASSERT_TRUE(by_error.ok());
  EXPECT_EQ(by_error->relation.size(), 0u);

  auto greedy_size = GreedyQuery(empty).Budget(Budget::Size(1)).Run();
  ASSERT_TRUE(greedy_size.ok());
  EXPECT_EQ(greedy_size->relation.size(), 0u);

  auto greedy_error =
      GreedyQuery(empty).Budget(Budget::RelativeError(0.5)).Run();
  ASSERT_TRUE(greedy_error.ok());
  EXPECT_EQ(greedy_error->relation.size(), 0u);
}

TEST(PtaApiDegenerateTest, SingleTupleIsItsOwnReduction) {
  const TemporalRelation one = MakeSingleTupleRelation();
  auto exact = ExactQuery(one).Budget(Budget::Size(1)).Run();
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->relation.size(), 1u);
  EXPECT_EQ(exact->ita_size, 1u);
  EXPECT_DOUBLE_EQ(exact->error, 0.0);

  auto greedy = GreedyQuery(one).Budget(Budget::Size(1)).Run();
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->relation.size(), 1u);
  EXPECT_EQ(greedy->ita_size, 1u);
  EXPECT_DOUBLE_EQ(greedy->error, 0.0);

  auto by_error = ExactQuery(one).Budget(Budget::RelativeError(0.0)).Run();
  ASSERT_TRUE(by_error.ok());
  EXPECT_EQ(by_error->relation.size(), 1u);
}

TEST(PtaApiDegenerateTest, ZeroSizeBoundIsRejected) {
  const TemporalRelation proj = MakeProjRelation();
  auto exact = ExactQuery(proj).Budget(Budget::Size(0)).Run();
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);

  auto greedy = GreedyQuery(proj).Budget(Budget::Size(0)).Run();
  ASSERT_FALSE(greedy.ok());
  EXPECT_EQ(greedy.status().code(), StatusCode::kInvalidArgument);

  // Rejected even when the input itself is empty.
  const TemporalRelation empty = MakeEmptyRelation();
  EXPECT_FALSE(ExactQuery(empty).Budget(Budget::Size(0)).Run().ok());
  EXPECT_FALSE(GreedyQuery(empty).Budget(Budget::Size(0)).Run().ok());
}

TEST(PtaApiDegenerateTest, SizeBoundAtOrAboveItaIsIdentity) {
  const TemporalRelation proj = MakeProjRelation();
  for (const size_t c : {size_t{7}, size_t{100}}) {
    auto exact = ExactQuery(proj).Budget(Budget::Size(c)).Run();
    ASSERT_TRUE(exact.ok()) << "c = " << c;
    EXPECT_EQ(exact->relation.size(), 7u);
    EXPECT_DOUBLE_EQ(exact->error, 0.0);

    auto greedy = GreedyQuery(proj).Budget(Budget::Size(c)).Run();
    ASSERT_TRUE(greedy.ok()) << "c = " << c;
    EXPECT_EQ(greedy->relation.size(), 7u);
    EXPECT_DOUBLE_EQ(greedy->error, 0.0);
  }
}

TEST(PtaApiDegenerateTest, ZeroEpsilonKeepsEverything) {
  const TemporalRelation proj = MakeProjRelation();
  auto exact = ExactQuery(proj).Budget(Budget::RelativeError(0.0)).Run();
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->relation.size(), 7u);
  EXPECT_DOUBLE_EQ(exact->error, 0.0);

  GreedyPtaOptions options;
  options.sample_fraction = 1.0;
  auto greedy = GreedyQuery(proj)
                    .Budget(Budget::RelativeError(0.0))
                    .Greedy(options)
                    .Run();
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->relation.size(), 7u);
}

TEST(PtaApiDegenerateTest, FullEpsilonReachesCmin) {
  const TemporalRelation proj = MakeProjRelation();
  auto exact = ExactQuery(proj).Budget(Budget::RelativeError(1.0)).Run();
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->relation.size(), 3u);

  GreedyPtaOptions options;
  options.sample_fraction = 1.0;
  auto greedy = GreedyQuery(proj)
                    .Budget(Budget::RelativeError(1.0))
                    .Greedy(options)
                    .Run();
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->relation.size(), 3u);
}

TEST(PtaApiDegenerateTest, OutOfRangeEpsilonIsRejected) {
  const TemporalRelation proj = MakeProjRelation();
  for (const double eps : {-0.1, 1.5}) {
    auto exact = ExactQuery(proj).Budget(Budget::RelativeError(eps)).Run();
    ASSERT_FALSE(exact.ok()) << "eps = " << eps;
    EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);

    GreedyPtaOptions options;
    options.estimated_max_error = 100.0;  // skip sampling: eps must fail
    auto greedy = GreedyQuery(proj)
                      .Budget(Budget::RelativeError(eps))
                      .Greedy(options)
                      .Run();
    ASSERT_FALSE(greedy.ok()) << "eps = " << eps;
    EXPECT_EQ(greedy.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PtaApiTest, WeightedQueriesFlowThrough) {
  const TemporalRelation proj = MakeProjRelation();
  DpOptions options;
  options.weights = {2.0};
  auto result = ExactQuery(proj).Budget(Budget::Size(4)).Exact(options).Run();
  ASSERT_TRUE(result.ok());
  // Same optimal partition, error scaled by w^2 = 4.
  EXPECT_NEAR(result->error, 4.0 * 49166.67, 0.05);
}

}  // namespace
}  // namespace pta
