// Tests of the gap-tolerant merging extension (the paper's Sec. 8 future
// work, DESIGN.md §4.10): with merge_across_gaps enabled, same-group tuples
// separated by temporal gaps may merge; the merged timestamp is the hull
// and values/errors weigh each side by its covered chronons.

#include <gtest/gtest.h>

#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/merge_heap.h"
#include "pta/pta.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;
using testing::MakeProjRelation;
using testing::RandomSequential;

DpOptions GapDp() {
  DpOptions options;
  options.merge_across_gaps = true;
  return options;
}

GreedyOptions GapGreedy() {
  GreedyOptions options;
  options.merge_across_gaps = true;
  return options;
}

TEST(GapMergeTest, CMinDropsToGroupCount) {
  const SequentialRelation ita = MakeProjIta();
  const ErrorContext strict(ita);
  const ErrorContext relaxed(ita, {}, /*merge_across_gaps=*/true);
  EXPECT_EQ(strict.cmin(), 3u);   // runs: A, B, B
  EXPECT_EQ(relaxed.cmin(), 2u);  // groups: A, B
  // Gap vector shrinks to the group boundary.
  EXPECT_EQ(relaxed.gaps(), (std::vector<size_t>{4}));
}

TEST(GapMergeTest, RunningExampleMergesProjectBAcrossTheGap) {
  // Project B holds 500 on [4,5] and [7,8]; merging across the gap costs
  // zero error, so a 2-tuple reduction becomes possible and cheap on the B
  // side.
  const SequentialRelation ita = MakeProjIta();
  auto red = ReduceToSizeDp(ita, 2, GapDp());
  ASSERT_TRUE(red.ok());
  const SequentialRelation& z = red->relation;
  ASSERT_EQ(z.size(), 2u);
  EXPECT_EQ(z.group(1), 1);
  EXPECT_EQ(z.interval(1), Interval(4, 8));  // hull across the gap
  EXPECT_DOUBLE_EQ(z.value(1, 0), 500.0);
  // Total error = collapsing the whole A run: 269 285.71.
  EXPECT_NEAR(red->error, 269285.71, 0.5);
}

TEST(GapMergeTest, HeapMergesAcrossGapWithCoveredWeights) {
  MergeHeap heap(1, {}, /*merge_across_gaps=*/true);
  const int32_t head =  // 2 chronons of 10
      heap.Insert(Segment{0, Interval(0, 1), {10.0}}, MergeHeap::kNoNode);
  heap.Insert(Segment{0, Interval(10, 10), {40.0}}, head);  // 1 chronon of 40
  ASSERT_EQ(heap.size(), 2u);
  const MergeHeap::TopInfo top = heap.Peek();
  // dsim weighted by covered lengths: 2*1/3 * (10-40)^2 = 600.
  EXPECT_NEAR(top.key, 600.0, 1e-9);
  heap.MergeTop();
  const SequentialRelation segs = heap.ExtractRelation(head);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs.interval(0), Interval(0, 10));  // hull
  // Covered-weighted mean: (2*10 + 1*40) / 3 = 20.
  EXPECT_NEAR(segs.value(0, 0), 20.0, 1e-9);
}

TEST(GapMergeTest, WeightedGapMergeKeysUseCoveredChronons) {
  // The PR 5 audit case: with non-uniform per-dimension weights, the
  // gap-merged key must still weigh each side by its *covered* chronons —
  // never by the hull length the merged timestamp will span. Two
  // two-dimensional rows, 2 and 1 covered chronons, hull of 11:
  //   dsim = (2*1/3) * (w0^2 * 30^2 + w1^2 * 5^2)
  //        = (2/3) * (9 * 900 + 0.25 * 25) = 5404.1666...
  // A hull-weighted key would use 9*2/11 and 2 covered -> far larger.
  const std::vector<double> weights = {3.0, 0.5};
  MergeHeap heap(2, weights, /*merge_across_gaps=*/true);
  const int32_t head = heap.Insert(Segment{0, Interval(0, 1), {10.0, 1.0}},
                                   MergeHeap::kNoNode);
  heap.Insert(Segment{0, Interval(10, 10), {40.0, 6.0}}, head);
  const double expected =
      (2.0 * 1.0 / 3.0) * (9.0 * 900.0 + 0.25 * 25.0);
  EXPECT_DOUBLE_EQ(heap.Peek().key, expected);
  heap.MergeTop();
  const SequentialRelation segs = heap.ExtractRelation(head);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs.interval(0), Interval(0, 10));
  // Values are covered-weighted per dimension, independent of the weights.
  EXPECT_DOUBLE_EQ(segs.value(0, 0), (2.0 * 10.0 + 1.0 * 40.0) / 3.0);
  EXPECT_DOUBLE_EQ(segs.value(0, 1), (2.0 * 1.0 + 1.0 * 6.0) / 3.0);

  // After a gap merge, further keys keep using accumulated covered
  // chronons (3 here), not the hull length (11).
  heap.Insert(Segment{0, Interval(20, 21), {20.0, 2.0}}, head);
  const double diff1 = (2.0 * 1.0 + 1.0 * 6.0) / 3.0 - 2.0;
  const double follow_up =
      (3.0 * 2.0 / 5.0) * (9.0 * 0.0 + 0.25 * diff1 * diff1);
  EXPECT_DOUBLE_EQ(heap.Peek().key, follow_up);
}

TEST(GapMergeTest, WeightedGapMergeAgreesWithTheErrorContext) {
  // End to end: the greedy gap-merged reduction's reported error equals
  // the covered-weighted SSE the error machinery computes for the same
  // output — with non-uniform weights. RunSse weighs each segment by its
  // own covered length, so any hull-weighting in the heap would break
  // this equality.
  const SequentialRelation rel = RandomSequential(40, 2, 2, 0.35, 97);
  GreedyOptions options;
  options.merge_across_gaps = true;
  options.weights = {2.5, 0.75};
  const size_t c = 2;  // gap merging can reach one tuple per group
  auto red = GmsReduceToSize(rel, c, options);
  ASSERT_TRUE(red.ok());
  ASSERT_EQ(red->relation.size(), c);
  const ErrorContext ctx(rel, options.weights, /*merge_across_gaps=*/true);
  EXPECT_NEAR(red->error, ctx.MaxError(), 1e-9 * (1.0 + ctx.MaxError()));
}

TEST(GapMergeTest, GroupBoundariesStillSeparate) {
  MergeHeap heap(1, {}, /*merge_across_gaps=*/true);
  const int32_t head =
      heap.Insert(Segment{0, Interval(0, 1), {10.0}}, MergeHeap::kNoNode);
  heap.Insert(Segment{1, Interval(2, 3), {10.0}}, head);
  EXPECT_TRUE(std::isinf(heap.Peek().key));
}

TEST(GapMergeTest, DpAndGmsAgreeOnErrorOrdering) {
  for (uint64_t seed = 300; seed < 306; ++seed) {
    const SequentialRelation rel = RandomSequential(40, 2, 2, 0.3, seed);
    const ErrorContext relaxed(rel, {}, true);
    for (size_t c = relaxed.cmin(); c <= rel.size(); c += 7) {
      auto dp = ReduceToSizeDp(rel, c, GapDp());
      auto gms = GmsReduceToSize(rel, c, GapGreedy());
      ASSERT_TRUE(dp.ok());
      ASSERT_TRUE(gms.ok());
      EXPECT_GE(gms->error + 1e-9 + 1e-9 * dp->error, dp->error);
      EXPECT_TRUE(dp->relation.Validate().ok());
      EXPECT_TRUE(gms->relation.Validate().ok());
    }
  }
}

TEST(GapMergeTest, RelaxationNeverHurtsAtEqualSize) {
  // Allowing more merge candidates can only improve (or match) the optimum.
  const SequentialRelation rel = RandomSequential(50, 1, 2, 0.25, 42);
  const ErrorContext strict(rel);
  for (size_t c = strict.cmin(); c <= rel.size(); c += 5) {
    auto strict_red = ReduceToSizeDp(rel, c);
    auto relaxed_red = ReduceToSizeDp(rel, c, GapDp());
    ASSERT_TRUE(strict_red.ok());
    ASSERT_TRUE(relaxed_red.ok());
    EXPECT_LE(relaxed_red->error, strict_red->error + 1e-9);
  }
}

TEST(GapMergeTest, StreamingGreedySupportsGapMerging) {
  const SequentialRelation rel = RandomSequential(60, 2, 3, 0.3, 7);
  const ErrorContext relaxed(rel, {}, true);
  RelationSegmentSource src(rel);
  auto red = GreedyReduceToSize(src, relaxed.cmin(), GapGreedy());
  ASSERT_TRUE(red.ok());
  EXPECT_EQ(red->relation.size(), relaxed.cmin());
  EXPECT_TRUE(red->relation.Validate().ok());
}

TEST(GapMergeTest, ErrorBoundedVariantsHonorBudget) {
  const SequentialRelation rel = RandomSequential(60, 1, 2, 0.3, 11);
  const ErrorContext relaxed(rel, {}, true);
  const double emax = relaxed.MaxError();
  for (double eps : {0.05, 0.3}) {
    auto dp = ReduceToErrorDp(rel, eps, GapDp());
    ASSERT_TRUE(dp.ok());
    EXPECT_LE(dp->error, eps * emax + 1e-9);

    auto gms = GmsReduceToError(rel, eps, GapGreedy());
    ASSERT_TRUE(gms.ok());
    EXPECT_LE(gms->error, eps * emax + 1e-9);

    GreedyErrorEstimates estimates{emax, rel.size()};
    RelationSegmentSource src(rel);
    auto gpta = GreedyReduceToError(src, eps, estimates, GapGreedy());
    ASSERT_TRUE(gpta.ok());
    EXPECT_LE(gpta->error, eps * emax + 1e-9);
  }
}

TEST(GapMergeTest, PublicApiExposesTheOption) {
  const TemporalRelation proj = MakeProjRelation();
  const PtaQuery query = PtaQuery::Over(proj)
                             .GroupBy("Proj")
                             .Aggregate(Avg("Sal", "AvgSal"))
                             .Budget(Budget::Size(2));
  DpOptions options;
  options.merge_across_gaps = true;
  auto result = PtaQuery(query).Engine(Engine::kExactDp).Exact(options).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relation.size(), 2u);

  GreedyPtaOptions greedy_options;
  greedy_options.merge_across_gaps = true;
  auto greedy =
      PtaQuery(query).Engine(Engine::kGreedy).Greedy(greedy_options).Run();
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy->relation.size(), 2u);
}

TEST(GapMergeTest, DefaultBehaviourUnchanged) {
  // The flag defaults to off: reducing the running example below cmin = 3
  // still fails.
  const SequentialRelation ita = MakeProjIta();
  EXPECT_FALSE(ReduceToSizeDp(ita, 2).ok());
  EXPECT_FALSE(GmsReduceToSize(ita, 2).ok());
}

}  // namespace
}  // namespace pta
