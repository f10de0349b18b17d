// End-to-end pipelines over the dataset generators: base relation -> ITA ->
// every reducer, with cross-checked invariants at realistic (small) scale.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/atc.h"
#include "core/sta.h"
#include "datasets/csv.h"
#include "datasets/etds.h"
#include "datasets/incumbents.h"
#include "datasets/timeseries.h"
#include "pta/pta.h"
#include "test_util.h"

namespace pta {
namespace {

TEST(IntegrationTest, EtdsPipelineSizeBounded) {
  EtdsOptions options;
  options.num_employees = 40;
  options.num_months = 96;
  const TemporalRelation rel = GenerateEtds(options);

  auto ita = Ita(rel, EtdsQueryE1());
  ASSERT_TRUE(ita.ok());
  const size_t c = std::max<size_t>(ita->CMin(), ita->size() / 10);

  const PtaQuery query =
      PtaQuery::Over(rel).Spec(EtdsQueryE1()).Budget(Budget::Size(c));
  auto exact = PtaQuery(query).Engine(Engine::kExactDp).Run();
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->relation.size(), c);
  EXPECT_EQ(exact->ita_size, ita->size());

  PtaRunStats stats;
  auto greedy = PtaQuery(query).Engine(Engine::kGreedy).Run(&stats);
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->relation.size(), c);
  EXPECT_GE(greedy->error + 1e-9, exact->error);
  // Streaming keeps the heap far below the ITA size on long single-group
  // histories reduced aggressively.
  EXPECT_LE(stats.greedy.max_heap_size, ita->size());
}

TEST(IntegrationTest, IncumbentsPipelineErrorBounded) {
  IncumbentsOptions options;
  options.num_departments = 3;
  options.projects_per_department = 3;
  options.num_months = 96;
  const TemporalRelation rel = GenerateIncumbents(options);

  auto ita = Ita(rel, IncumbentsQueryI1());
  ASSERT_TRUE(ita.ok());
  const ErrorContext ctx(*ita);

  for (double eps : {0.05, 0.3}) {
    const PtaQuery query = PtaQuery::Over(rel)
                               .Spec(IncumbentsQueryI1())
                               .Budget(Budget::RelativeError(eps));
    auto exact = PtaQuery(query).Engine(Engine::kExactDp).Run();
    ASSERT_TRUE(exact.ok());
    EXPECT_LE(exact->error, eps * ctx.MaxError() + 1e-9);

    GreedyPtaOptions greedy_options;
    greedy_options.sample_fraction = 0.5;
    auto greedy =
        PtaQuery(query).Engine(Engine::kGreedy).Greedy(greedy_options).Run();
    ASSERT_TRUE(greedy.ok());
    EXPECT_LE(greedy->error, eps * ctx.MaxError() + 1e-9);
    // The exact evaluator needs at most as many tuples as the greedy one.
    EXPECT_LE(exact->relation.size(), greedy->relation.size());
  }
}

TEST(IntegrationTest, PtaRevealsChangesThatStaMisses) {
  // The paper's Fig. 1 argument: STA with fixed spans reports flat values
  // where PTA with the same budget adapts to the data.
  const TemporalRelation proj = testing::MakeProjRelation();

  StaSpec sta_spec{{"Proj"}, {Avg("Sal", "AvgSal")}, MakeSpans(1, 4, 2)};
  auto sta = Sta(proj, sta_spec);
  ASSERT_TRUE(sta.ok());
  ASSERT_EQ(sta->size(), 4u);

  auto pta = PtaQuery::Over(proj)
                 .GroupBy("Proj")
                 .Aggregate(Avg("Sal", "AvgSal"))
                 .Budget(Budget::Size(4))
                 .Engine(Engine::kExactDp)
                 .Run();
  ASSERT_TRUE(pta.ok());

  // Compare against ITA with Def. 5: PTA's 4 tuples carry less error than
  // STA's 4 tuples.
  auto ita = Ita(proj, {{"Proj"}, {Avg("Sal", "AvgSal")}});
  ASSERT_TRUE(ita.ok());
  // Build a step function from the STA result restricted to ITA coverage.
  SequentialRelation sta_steps(1);
  auto add = [&sta_steps](int32_t g, Chronon b, Chronon e, double v) {
    sta_steps.Append(g, Interval(b, e), &v);
  };
  add(0, 1, 4, 500.0);
  add(0, 5, 8, 350.0);
  add(1, 1, 4, 500.0);
  add(1, 5, 8, 500.0);
  auto sta_sse = StepFunctionSse(*ita, sta_steps);
  ASSERT_TRUE(sta_sse.ok());
  EXPECT_LT(pta->error, *sta_sse);
}

TEST(IntegrationTest, WindRelationReducesUnderAllAlgorithms) {
  const SequentialRelation wind = WindRelation(400, 6, 19, 5);
  const size_t c = 60;
  ASSERT_GE(c, wind.CMin());

  auto dp = ReduceToSizeDp(wind, c);
  ASSERT_TRUE(dp.ok());
  auto gms = GmsReduceToSize(wind, c);
  ASSERT_TRUE(gms.ok());
  auto atc_sweep = AtcSweep(wind, 60);
  const double atc_best = BestAtcErrorForSize(atc_sweep, c);

  EXPECT_LE(dp->error, gms->error + 1e-9);
  if (atc_best >= 0.0) {
    EXPECT_LE(dp->error, atc_best + 1e-9);
  }
}

TEST(IntegrationTest, CsvRoundTripThenAggregate) {
  // Export the running example, re-import, aggregate: identical results.
  const TemporalRelation proj = testing::MakeProjRelation();
  const std::string path = ::testing::TempDir() + "/pta_integration.csv";
  ASSERT_TRUE(WriteCsvFile(proj, path).ok());
  auto loaded = ReadCsvFile(path, proj.schema());
  ASSERT_TRUE(loaded.ok());

  const auto by_size_4 = [](const TemporalRelation& rel) {
    return PtaQuery::Over(rel)
        .GroupBy("Proj")
        .Aggregate(Avg("Sal", "AvgSal"))
        .Budget(Budget::Size(4))
        .Engine(Engine::kExactDp)
        .Run();
  };
  auto a = by_size_4(proj);
  auto b = by_size_4(*loaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->relation.ApproxEquals(b->relation));
}

TEST(IntegrationTest, HighReductionKeepsErrorModestOnSmoothData) {
  // Fig. 14's qualitative claim: smooth real-world-like data reduced by 90%
  // keeps well under half the maximal error.
  const std::vector<double> series = Tide(1000);
  const SequentialRelation rel = FromTimeSeries({series});
  const ErrorContext ctx(rel);
  auto red = ReduceToSizeDp(rel, rel.size() / 10);
  ASSERT_TRUE(red.ok());
  EXPECT_LT(red->error, 0.5 * ctx.MaxError());
}

}  // namespace
}  // namespace pta
