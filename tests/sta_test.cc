#include "core/sta.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjRelation;

TEST(StaTest, RunningExampleMatchesFig1b) {
  // "For each project, the average monthly salary in each trimester."
  const TemporalRelation proj = MakeProjRelation();
  StaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}, MakeSpans(1, 4, 2)};
  auto result = Sta(proj, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 4u);

  // s1 = (A, 500, [1,4]): overlapping tuples 800, 400, 300.
  EXPECT_EQ(result->tuple(0).value(0).AsString(), "A");
  EXPECT_DOUBLE_EQ(result->tuple(0).value(1).AsDoubleExact(), 500.0);
  EXPECT_EQ(result->tuple(0).interval(), Interval(1, 4));
  // s2 = (A, 350, [5,8]).
  EXPECT_DOUBLE_EQ(result->tuple(1).value(1).AsDoubleExact(), 350.0);
  EXPECT_EQ(result->tuple(1).interval(), Interval(5, 8));
  // s3, s4 = (B, 500, ...).
  EXPECT_EQ(result->tuple(2).value(0).AsString(), "B");
  EXPECT_DOUBLE_EQ(result->tuple(2).value(1).AsDoubleExact(), 500.0);
  EXPECT_DOUBLE_EQ(result->tuple(3).value(1).AsDoubleExact(), 500.0);
}

TEST(StaTest, MakeSpansBuildsConsecutiveWindows) {
  const std::vector<Interval> spans = MakeSpans(1, 4, 2);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], Interval(1, 4));
  EXPECT_EQ(spans[1], Interval(5, 8));
}

TEST(StaTest, SpansWithoutOverlapProduceNoTuple) {
  const TemporalRelation proj = MakeProjRelation();
  StaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}, {Interval(100, 120)}};
  auto result = Sta(proj, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(StaTest, ResultSizeIsGroupsTimesSpansAtMost) {
  const TemporalRelation proj = MakeProjRelation();
  StaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}, MakeSpans(1, 2, 4)};
  auto result = Sta(proj, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 2u * 4u);  // predictable result size (Sec. 1)
}

TEST(StaTest, MultipleAggregates) {
  const TemporalRelation proj = MakeProjRelation();
  StaSpec spec{{"Proj"},
               {Min("Sal", "MinSal"), Max("Sal", "MaxSal"), Count("N")},
               {Interval(1, 8)}};
  auto result = Sta(proj, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  // Project A: min 300, max 800, 3 tuples.
  EXPECT_DOUBLE_EQ(result->tuple(0).value(1).AsDoubleExact(), 300.0);
  EXPECT_DOUBLE_EQ(result->tuple(0).value(2).AsDoubleExact(), 800.0);
  EXPECT_DOUBLE_EQ(result->tuple(0).value(3).AsDoubleExact(), 3.0);
}

TEST(StaTest, RejectsInvalidSpecs) {
  const TemporalRelation proj = MakeProjRelation();
  // Overlapping spans.
  EXPECT_FALSE(
      Sta(proj, {{"Proj"}, {Avg("Sal", "A")}, {Interval(1, 4), Interval(4, 8)}})
          .ok());
  // No spans.
  EXPECT_FALSE(Sta(proj, {{"Proj"}, {Avg("Sal", "A")}, {}}).ok());
  // No aggregates.
  EXPECT_FALSE(Sta(proj, {{"Proj"}, {}, {Interval(1, 4)}}).ok());
  // Unknown attribute.
  EXPECT_FALSE(
      Sta(proj, {{"Proj"}, {Avg("Nope", "A")}, {Interval(1, 4)}}).ok());
  // Non-numeric aggregate attribute.
  EXPECT_FALSE(
      Sta(proj, {{"Proj"}, {Avg("Empl", "A")}, {Interval(1, 4)}}).ok());
}

TEST(StaTest, RejectsNaNGroupingValues) {
  // A NaN key has no place in the bucket order; STA names the offending
  // tuple exactly as ITA does instead of corrupting the group map.
  TemporalRelation rel{Schema({{"G", ValueType::kDouble},
                               {"V", ValueType::kInt64}})};
  ASSERT_TRUE(rel.Insert({Value(1.0), Value(1)}, Interval(0, 4)).ok());
  ASSERT_TRUE(rel.Insert({Value(2.0), Value(2)}, Interval(1, 3)).ok());
  ASSERT_TRUE(
      rel.Insert({Value(std::nan("")), Value(3)}, Interval(2, 6)).ok());
  for (const AggregateSpec& agg : {Sum("V", "S"), Count("N")}) {
    auto result = Sta(rel, {{"G"}, {agg}, {Interval(0, 3), Interval(4, 7)}});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(),
              "grouping attribute 'G' of tuple 2 is NaN");
  }
  // Without the NaN tuple the same spec is fine.
  TemporalRelation clean{rel.schema()};
  ASSERT_TRUE(clean.Insert({Value(1.0), Value(1)}, Interval(0, 4)).ok());
  auto ok = Sta(clean, {{"G"}, {Sum("V", "S")}, {Interval(0, 3)}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 1u);
}

}  // namespace
}  // namespace pta
