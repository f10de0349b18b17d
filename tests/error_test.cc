#include "pta/error.h"

#include <cmath>

#include <gtest/gtest.h>

#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/index.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;

Segment MakeSeg(int32_t g, Chronon b, Chronon e, std::vector<double> vals) {
  return Segment{g, Interval(b, e), std::move(vals)};
}

TEST(MergeTest, Example3MergesS1S2) {
  // s1 = (A, 800, [1,2]) ⊕ s2 = (A, 600, [3,3]) = (A, 733.33, [1,3]).
  const Segment z =
      MergeSegments(MakeSeg(0, 1, 2, {800.0}), MakeSeg(0, 3, 3, {600.0}));
  EXPECT_EQ(z.t, Interval(1, 3));
  EXPECT_NEAR(z.values[0], 733.33, 0.01);
}

TEST(MergeTest, PreservesLengthWeightedMean) {
  const Segment a = MakeSeg(0, 0, 4, {10.0, -2.0});
  const Segment b = MakeSeg(0, 5, 6, {3.0, 8.0});
  const Segment z = MergeSegments(a, b);
  // total mass per dimension is invariant under merging.
  for (size_t d = 0; d < 2; ++d) {
    const double before =
        5.0 * a.values[d] + 2.0 * b.values[d];
    const double after = 7.0 * z.values[d];
    EXPECT_NEAR(before, after, 1e-9);
  }
}

TEST(DsimTest, Example5MergeError) {
  // Merging s1, s2 introduces SSE 26 666.67 (Example 5).
  const double w = 1.0;
  const double va = 800.0, vb = 600.0;
  EXPECT_NEAR(Dsim(2, &va, 1, &vb, 1, &w), 26666.67, 0.01);
}

TEST(DsimTest, MatchesSseOfMergedPair) {
  // Prop. 2: dsim(a, b) == SSE({a, b}, {a ⊕ b}) computed naively.
  const std::vector<double> w = {1.0, 2.0};
  const Segment a = MakeSeg(0, 0, 2, {4.0, 1.0});
  const Segment b = MakeSeg(0, 3, 3, {7.0, -1.0});
  const Segment z = MergeSegments(a, b);
  double naive = 0.0;
  for (size_t d = 0; d < 2; ++d) {
    naive += w[d] * w[d] *
             (3.0 * std::pow(a.values[d] - z.values[d], 2) +
              1.0 * std::pow(b.values[d] - z.values[d], 2));
  }
  EXPECT_NEAR(Dsim(3, a.values.data(), 1, b.values.data(), 2, w.data()),
              naive, 1e-9);
}

TEST(DsimTest, ZeroForEqualValues) {
  const double w = 1.0;
  const double v = 500.0;
  EXPECT_DOUBLE_EQ(Dsim(2, &v, 2, &v, 1, &w), 0.0);
}

TEST(ErrorContextTest, Example12PrefixSums) {
  // S = <1600, 2200, 2700, 3400, ...>, SS = <1280000, 1640000, 1890000,
  // 2135000, ...>, L = <2, 3, 4, 6, ...>.
  const SequentialRelation ita = MakeProjIta();
  const ErrorContext ctx(ita);
  // Via RunMergedValue/RunLength we can recover S and L: S_i = mean * L.
  EXPECT_EQ(ctx.RunLength(0, 0), 2);
  EXPECT_EQ(ctx.RunLength(0, 1), 3);
  EXPECT_EQ(ctx.RunLength(0, 2), 4);
  EXPECT_EQ(ctx.RunLength(0, 3), 6);
  EXPECT_NEAR(ctx.RunMergedValue(0, 0, 0) * 2, 1600.0, 1e-9);
  EXPECT_NEAR(ctx.RunMergedValue(0, 1, 0) * 3, 2200.0, 1e-9);
  EXPECT_NEAR(ctx.RunMergedValue(0, 2, 0) * 4, 2700.0, 1e-9);
  EXPECT_NEAR(ctx.RunMergedValue(0, 3, 0) * 6, 3400.0, 1e-9);
  // SSE({s2, s3}) = 1890000 - 1280000 - (2700-1600)^2 / (4-2) = 5000.
  EXPECT_NEAR(ctx.RunSse(1, 2), 5000.0, 1e-9);
}

TEST(ErrorContextTest, RunSseMatchesNaiveComputation) {
  const SequentialRelation rel = testing::RandomSequential(
      /*n=*/40, /*p=*/3, /*num_groups=*/1, /*gap_probability=*/0.0, 11);
  const ErrorContext ctx(rel);
  for (size_t i = 0; i < rel.size(); i += 3) {
    for (size_t j = i; j < rel.size(); j += 5) {
      const double naive = testing::NaivePartitionSse(rel, {{i, j}});
      EXPECT_NEAR(ctx.RunSse(i, j), naive, 1e-6 * (1.0 + naive));
    }
  }
}

TEST(ErrorContextTest, WeightsScaleQuadratically) {
  const SequentialRelation rel = testing::RandomSequential(20, 1, 1, 0.0, 3);
  const ErrorContext unit(rel);
  const ErrorContext doubled(rel, {2.0});
  EXPECT_NEAR(doubled.RunSse(0, rel.size() - 1),
              4.0 * unit.RunSse(0, rel.size() - 1), 1e-6);
}

TEST(ErrorContextTest, GapVectorMatchesExample13) {
  // G = <5, 6> in the paper's 1-based convention; 0-based: {4, 5}.
  const ErrorContext ctx(MakeProjIta());
  EXPECT_EQ(ctx.gaps(), (std::vector<size_t>{4, 5}));
  EXPECT_EQ(ctx.cmin(), 3u);
  EXPECT_TRUE(ctx.HasGapInside(0, 5));
  EXPECT_TRUE(ctx.HasGapInside(4, 5));
  EXPECT_FALSE(ctx.HasGapInside(0, 4));
  EXPECT_FALSE(ctx.HasGapInside(5, 5));
}

TEST(ErrorContextTest, MaxErrorIsSumOfRunCollapses) {
  // Emax of the running example = 269285.71 (run A) + 0 + 0 (runs B).
  const ErrorContext ctx(MakeProjIta());
  EXPECT_NEAR(ctx.MaxError(), 269285.71, 0.5);
}

TEST(ErrorContextTest, LengthPrefixMaySumPastInt64MaxAcrossGroups) {
  // Validate bounds each group's total length, not the relation's: three
  // groups of 2^62 chronons sum past INT64_MAX. Runs never cross groups,
  // so every run length, merged value and error stays exact.
  constexpr Chronon kLen = Chronon{1} << 62;
  SequentialRelation rel(1);
  for (int32_t g = 0; g < 3; ++g) {
    rel.Append(MakeSeg(g, 0, kLen - 1, {1.0 + g}));
  }
  ASSERT_TRUE(rel.Validate().ok());
  const ErrorContext ctx(rel);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ctx.RunLength(i, i), kLen);
    EXPECT_EQ(ctx.RunMergedValue(i, i, 0), 1.0 + static_cast<double>(i));
    EXPECT_EQ(ctx.RunSse(i, i), 0.0);
  }
  EXPECT_EQ(ctx.MaxError(), 0.0);

  auto by_size = ReduceToSizeDp(rel, 3);
  ASSERT_TRUE(by_size.ok()) << by_size.status().ToString();
  EXPECT_EQ(by_size->relation.size(), 3u);
  auto by_error = ReduceToErrorDp(rel, 0.5);
  ASSERT_TRUE(by_error.ok()) << by_error.status().ToString();
  EXPECT_EQ(by_error->relation.size(), 3u);
  EXPECT_EQ(by_error->error, 0.0);
  auto gms = GmsReduceToError(rel, 0.5);
  ASSERT_TRUE(gms.ok()) << gms.status().ToString();
  EXPECT_EQ(gms->relation.size(), 3u);
  auto index = PtaIndex::Build(rel);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->max_error(), 0.0);
  auto cut = index->CutToError(0.5);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(cut->relation.size(), 3u);
}

TEST(StepFunctionSseTest, ZeroForIdenticalRelations) {
  const SequentialRelation ita = MakeProjIta();
  auto sse = StepFunctionSse(ita, ita);
  ASSERT_TRUE(sse.ok());
  EXPECT_DOUBLE_EQ(*sse, 0.0);
}

TEST(StepFunctionSseTest, MatchesPaperFig1dError) {
  // The optimal size-4 reduction has error 49 166.67 (Example 6).
  const SequentialRelation ita = MakeProjIta();
  SequentialRelation z(1);
  auto add = [&z](int32_t g, Chronon b, Chronon e, double v) {
    z.Append(g, Interval(b, e), &v);
  };
  add(0, 1, 3, 2200.0 / 3.0);  // z1 = (A, 733.33, [1,3])
  add(0, 4, 7, 375.0);         // z2 = (A, 375, [4,7])
  add(1, 4, 5, 500.0);
  add(1, 7, 8, 500.0);
  auto sse = StepFunctionSse(ita, z);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, 49166.67, 0.01);
}

TEST(StepFunctionSseTest, HandlesUnalignedBoundaries) {
  // z splits s's segment in half with different values on each side.
  SequentialRelation s(1);
  const double v = 10.0;
  s.Append(0, Interval(0, 3), &v);
  SequentialRelation z(1);
  const double a = 9.0, b = 12.0;
  z.Append(0, Interval(0, 1), &a);
  z.Append(0, Interval(2, 3), &b);
  auto sse = StepFunctionSse(s, z);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, 2 * 1.0 + 2 * 4.0, 1e-9);
}

TEST(StepFunctionSseTest, FailsWhenApproximationHasHoles) {
  SequentialRelation s(1);
  const double v = 10.0;
  s.Append(0, Interval(0, 3), &v);
  SequentialRelation z(1);
  z.Append(0, Interval(0, 1), &v);  // chronons 2, 3 uncovered
  EXPECT_FALSE(StepFunctionSse(s, z).ok());
}

TEST(WeightsTest, DefaultsAndValidation) {
  EXPECT_EQ(WeightsOrOnes(3, {}), (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(WeightsOrOnes(2, {0.5, 2.0}), (std::vector<double>{0.5, 2.0}));
}

}  // namespace
}  // namespace pta
