// The PtaIndex merge-tree (pta/index.h):
//  * the core contract — for *every* budget, CutToSize / CutToError are
//    byte-identical (segments, values, and the accumulated error double)
//    to GmsReduceToSize / GmsReduceToError on the same input;
//  * the streaming coincidence — on gap-free input (the Fig. 18(a) S1
//    workload) the cuts also equal GreedyReduceToSize/-ToError with
//    delta = infinity, budget by budget;
//  * MultiBudgetCut as one refinement walk equal to individual cuts;
//  * build determinism across thread counts and chunkings, including
//    single groups split at their temporal gaps, pinned by SerializeIndex
//    digests on inputs large enough for many cache-sized chunks;
//  * boundary behaviour matching the reducers (c = 0, c < cmin, c >= n,
//    empty input, eps range).

#include "pta/index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "datasets/synthetic.h"
#include "pta/greedy.h"
#include "pta/index_io.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;
using testing::RandomSequential;

PtaIndex BuildOrDie(const SequentialRelation& rel,
                    const PtaIndexOptions& options = {},
                    PtaIndexBuildStats* stats = nullptr) {
  auto index = PtaIndex::Build(rel, options, stats);
  PTA_CHECK_MSG(index.ok(), index.status().ToString().c_str());
  return std::move(*index);
}

// ---- the core regression gate: every budget, byte for byte -------------

TEST(PtaIndexTest, SizeCutsMatchGmsForEveryBudget) {
  const SequentialRelation rel = RandomSequential(
      /*n=*/120, /*p=*/2, /*num_groups=*/4, /*gap_probability=*/0.15, 7);
  const PtaIndex index = BuildOrDie(rel);
  EXPECT_EQ(index.input_size(), rel.size());
  EXPECT_EQ(index.cmin(), rel.CMin());
  for (size_t c = rel.CMin(); c <= rel.size(); ++c) {
    auto cut = index.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c);
    ASSERT_TRUE(cut.ok()) << "c=" << c;
    ASSERT_TRUE(gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(cut->error, gms->error) << "c=" << c;
    EXPECT_EQ(cut->relation.group_keys().size(), rel.group_keys().size());
  }
}

TEST(PtaIndexTest, ErrorCutsMatchGmsAcrossTheEpsGrid) {
  const SequentialRelation rel = RandomSequential(100, 3, 3, 0.2, 11);
  const PtaIndex index = BuildOrDie(rel);
  const ErrorContext ctx(rel);
  EXPECT_EQ(index.max_error(), ctx.MaxError());
  for (const double eps : {0.0, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5,
                           0.75, 0.9, 0.999, 1.0}) {
    auto cut = index.CutToError(eps);
    auto gms = GmsReduceToError(rel, eps);
    ASSERT_TRUE(cut.ok()) << "eps=" << eps;
    ASSERT_TRUE(gms.ok()) << "eps=" << eps;
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(cut->error, gms->error) << "eps=" << eps;
  }
}

TEST(PtaIndexTest, WeightedAndGapMergedBuildsMatchGms) {
  const SequentialRelation rel = RandomSequential(80, 2, 3, 0.25, 23);
  PtaIndexOptions options;
  options.weights = {0.5, 3.0};
  options.merge_across_gaps = true;
  const PtaIndex index = BuildOrDie(rel, options);
  GreedyOptions greedy;
  greedy.weights = options.weights;
  greedy.merge_across_gaps = true;
  // Gap merging collapses cmin to the group count.
  EXPECT_EQ(index.cmin(), 3u);
  for (size_t c = index.cmin(); c <= rel.size(); c += 3) {
    auto cut = index.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c, greedy);
    ASSERT_TRUE(cut.ok()) << "c=" << c;
    ASSERT_TRUE(gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(cut->error, gms->error) << "c=" << c;
  }
  for (const double eps : {0.0, 0.05, 0.3, 0.8, 1.0}) {
    auto cut = index.CutToError(eps);
    auto gms = GmsReduceToError(rel, eps, greedy);
    ASSERT_TRUE(cut.ok());
    ASSERT_TRUE(gms.ok());
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(cut->error, gms->error) << "eps=" << eps;
  }
}

// ---- the Fig. 18 acceptance sweep: index vs the streaming reducers -----

TEST(PtaIndexTest, Fig18SizeSweepMatchesStreamingGreedy) {
  // Fig. 18(a)'s S1 subsets are gap-free, and on gap-free input gPTAc with
  // delta = infinity performs no early merges: it *is* GMS, so the indexed
  // cut must reproduce it bit for bit at every budget — including the
  // accumulated error double.
  const SequentialRelation rel = GenerateSyntheticSequential(
      /*num_groups=*/1, /*tuples_per_group=*/400, /*num_dims=*/4, 500);
  const PtaIndex index = BuildOrDie(rel);
  GreedyOptions greedy;
  greedy.delta = GreedyOptions::kDeltaInfinity;
  for (size_t c = 1; c <= rel.size(); ++c) {
    RelationSegmentSource source(rel);
    auto streamed = GreedyReduceToSize(source, c, greedy);
    auto cut = index.CutToSize(c);
    ASSERT_TRUE(streamed.ok()) << "c=" << c;
    ASSERT_TRUE(cut.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, streamed->relation);
    EXPECT_EQ(cut->error, streamed->error) << "c=" << c;
  }
}

TEST(PtaIndexTest, Fig18ErrorSweepMatchesStreamingGreedy) {
  const SequentialRelation rel =
      GenerateSyntheticSequential(1, 400, 4, 501);
  const PtaIndex index = BuildOrDie(rel);
  GreedyOptions greedy;
  greedy.delta = GreedyOptions::kDeltaInfinity;
  const GreedyErrorEstimates estimates{index.max_error(), rel.size()};
  for (const double eps :
       {0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    RelationSegmentSource source(rel);
    auto streamed = GreedyReduceToError(source, eps, estimates, greedy);
    auto cut = index.CutToError(eps);
    ASSERT_TRUE(streamed.ok()) << "eps=" << eps;
    ASSERT_TRUE(cut.ok()) << "eps=" << eps;
    ExpectByteIdentical(cut->relation, streamed->relation);
    EXPECT_EQ(cut->error, streamed->error) << "eps=" << eps;
  }
}

// ---- MultiBudgetCut ----------------------------------------------------

TEST(PtaIndexTest, MultiBudgetCutEqualsIndividualCuts) {
  const SequentialRelation rel = RandomSequential(150, 2, 5, 0.1, 31);
  const PtaIndex index = BuildOrDie(rel);
  const size_t cmin = index.cmin();
  std::vector<size_t> ladder;
  for (size_t c = cmin; c < rel.size(); c += 11) ladder.push_back(c);
  ladder.push_back(rel.size() + 5);  // beyond n: identity cut
  auto cuts = index.MultiBudgetCut(ladder);
  ASSERT_TRUE(cuts.ok()) << cuts.status().ToString();
  ASSERT_EQ(cuts->size(), ladder.size());
  for (size_t i = 0; i < ladder.size(); ++i) {
    auto single = index.CutToSize(ladder[i]);
    ASSERT_TRUE(single.ok());
    ExpectByteIdentical((*cuts)[i].relation, single->relation);
    EXPECT_EQ((*cuts)[i].error, single->error) << "level " << i;
  }
}

TEST(PtaIndexTest, MultiBudgetCutValidatesItsLadder) {
  const SequentialRelation rel = RandomSequential(30, 1, 2, 0.2, 41);
  const PtaIndex index = BuildOrDie(rel);
  EXPECT_TRUE(index.MultiBudgetCut({}).ok());
  // Unsorted and duplicate ladders produce structured diagnostics naming
  // the offending budgets, not just a generic rejection.
  auto unsorted = index.MultiBudgetCut({20, 10});
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unsorted.status().message().find("strictly ascending"),
            std::string::npos)
      << unsorted.status().message();
  EXPECT_NE(unsorted.status().message().find("10 after 20"),
            std::string::npos)
      << unsorted.status().message();
  auto dup = index.MultiBudgetCut({10, 10});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("10 twice"), std::string::npos)
      << dup.status().message();
  auto zero = index.MultiBudgetCut({0, 10});
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  if (index.cmin() > 1) {
    auto below = index.MultiBudgetCut({index.cmin() - 1, index.cmin()});
    ASSERT_FALSE(below.ok());
    EXPECT_EQ(below.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---- determinism and construction ---------------------------------------

// The same relation with every value floored to a multiple of 25: runs of
// equal values make zero-cost merges, so (key, id) ties are everywhere and
// the gather's tie-break decides the order.
SequentialRelation Quantized(const SequentialRelation& rel) {
  SequentialRelation out(rel.num_aggregates());
  std::vector<double> row(rel.num_aggregates());
  for (size_t i = 0; i < rel.size(); ++i) {
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = 25.0 * std::floor(rel.value(i, d) / 25.0);
    }
    out.Append(rel.group(i), rel.interval(i), row.data());
  }
  out.SetGroupKeys(rel.group_keys());
  return out;
}

TEST(PtaIndexTest, BuildIsDeterministicAcrossThreadCounts) {
  struct Case {
    const char* name;
    SequentialRelation rel;
    PtaIndexOptions options;
    // Whether the build splits the input into several chunks (chunking is
    // cache-sized, so a splittable input splits at every thread count).
    bool splits;
  };
  PtaIndexOptions gap_merging;
  gap_merging.merge_across_gaps = true;
  PtaIndexOptions weighted;
  weighted.weights = {0.5, 3.0};
  const SequentialRelation gapped = RandomSequential(400, 2, 1, 0.1, 59);
  std::vector<Case> cases;
  // Gaps are the only independent split points of a single group.
  cases.push_back({"single group with gaps", gapped, {}, true});
  cases.push_back({"tie-heavy single group with gaps", Quantized(gapped), {},
                   true});
  cases.push_back({"gap-free single group",
                   RandomSequential(400, 2, 1, 0.0, 61), {}, false});
  // Gap merging makes every same-group pair mergeable: no split point.
  cases.push_back({"single group, merge_across_gaps", gapped, gap_merging,
                   false});
  cases.push_back({"weighted multi-group",
                   RandomSequential(300, 2, 8, 0.1, 67), weighted, true});

  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    const SequentialRelation& rel = tc.rel;
    GreedyOptions greedy;
    greedy.weights = tc.options.weights;
    greedy.merge_across_gaps = tc.options.merge_across_gaps;
    PtaIndexOptions one = tc.options;
    one.num_threads = 1;
    const PtaIndex serial = BuildOrDie(rel, one);
    for (const size_t threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      PtaIndexOptions options = tc.options;
      options.num_threads = threads;
      PtaIndexBuildStats stats;
      const PtaIndex index = BuildOrDie(rel, options, &stats);
      EXPECT_EQ(stats.merges, serial.merges());
      if (tc.splits) {
        EXPECT_GT(stats.chunks, 1u);
      } else {
        EXPECT_EQ(stats.chunks, 1u);
      }
      for (size_t c = index.cmin(); c <= rel.size(); ++c) {
        auto cut = index.CutToSize(c);
        auto base = serial.CutToSize(c);
        auto gms = GmsReduceToSize(rel, c, greedy);
        ASSERT_TRUE(cut.ok() && base.ok() && gms.ok()) << "c=" << c;
        ExpectByteIdentical(cut->relation, gms->relation);
        ExpectByteIdentical(cut->relation, base->relation);
        EXPECT_EQ(cut->error, gms->error) << "c=" << c;
        EXPECT_EQ(cut->error, base->error) << "c=" << c;
      }
      for (const double eps : {0.0, 0.001, 0.05, 0.2, 0.5, 0.9, 1.0}) {
        auto cut = index.CutToError(eps);
        auto base = serial.CutToError(eps);
        auto gms = GmsReduceToError(rel, eps, greedy);
        ASSERT_TRUE(cut.ok() && base.ok() && gms.ok()) << "eps=" << eps;
        ExpectByteIdentical(cut->relation, gms->relation);
        ExpectByteIdentical(cut->relation, base->relation);
        EXPECT_EQ(cut->error, gms->error) << "eps=" << eps;
        EXPECT_EQ(cut->error, base->error) << "eps=" << eps;
      }
      EXPECT_EQ(index.max_error(), serial.max_error());
    }
  }
}

// 64-bit FNV-1a over a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(PtaIndexTest, ManyChunkBuildsKeepTheirSerializedDigest) {
  // Inputs large enough for many cache-sized chunks, so the rank merge and
  // the per-chunk writes see far more runs than threads. The digests were
  // recorded from the serial k-way gather the parallel one replaced: the
  // serialized index must not change by a single byte at any thread count.
  struct Case {
    const char* name;
    SequentialRelation rel;
    uint64_t digest;
  };
  std::vector<Case> cases;
  // One group split only at its temporal gaps; quantized values make
  // zero-cost merges in every chunk, so (key, id) ties cross chunk edges.
  cases.push_back({"tie-heavy gapped single group",
                   Quantized(RandomSequential(300000, 2, 1, 0.1, 83)),
                   0x1c5de56d90484edcull});
  cases.push_back({"many groups", RandomSequential(300000, 3, 2000, 0.05, 89),
                   0x31cbc85ed932e3e2ull});
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    for (const size_t threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      PtaIndexOptions options;
      options.num_threads = threads;
      PtaIndexBuildStats stats;
      const PtaIndex index = BuildOrDie(tc.rel, options, &stats);
      EXPECT_GT(stats.chunks, 4 * threads);
      EXPECT_EQ(Fnv1a(SerializeIndex(index)), tc.digest);
      if (threads != 1) continue;
      for (const size_t c : {index.cmin(), index.cmin() + 997,
                             tc.rel.size() / 2, tc.rel.size() - 1}) {
        auto cut = index.CutToSize(c);
        auto gms = GmsReduceToSize(tc.rel, c);
        ASSERT_TRUE(cut.ok() && gms.ok()) << "c=" << c;
        ExpectByteIdentical(cut->relation, gms->relation);
        EXPECT_EQ(cut->error, gms->error) << "c=" << c;
      }
    }
  }
}

TEST(PtaIndexTest, CumulativeCurveIsMonotoneAndComplete) {
  const SequentialRelation rel = RandomSequential(64, 1, 2, 0.2, 67);
  const PtaIndex index = BuildOrDie(rel);
  EXPECT_EQ(index.merges(), rel.size() - rel.CMin());
  EXPECT_EQ(index.cumulative_error(0), 0.0);
  for (size_t m = 1; m <= index.merges(); ++m) {
    EXPECT_GE(index.cumulative_error(m), index.cumulative_error(m - 1));
  }
  // The full curve's endpoint is the cmin reduction's error.
  auto at_cmin = GmsReduceToSize(rel, rel.CMin());
  ASSERT_TRUE(at_cmin.ok());
  EXPECT_EQ(index.cumulative_error(index.merges()), at_cmin->error);
}

// ---- the error-curve accessors (ErrorForSize / SizeForError) -----------

TEST(PtaIndexTest, ErrorForSizeReadsTheRecordedCurveKnots) {
  const SequentialRelation rel = RandomSequential(90, 2, 3, 0.2, 73);
  const PtaIndex index = BuildOrDie(rel);
  // Every feasible size reads the cumulative curve at n - c, bitwise.
  for (size_t c = index.cmin(); c <= rel.size(); ++c) {
    auto err = index.ErrorForSize(c);
    ASSERT_TRUE(err.ok()) << "c=" << c;
    EXPECT_EQ(*err, index.cumulative_error(rel.size() - c)) << "c=" << c;
    // And it must agree with the error of the materialized cut.
    auto cut = index.CutToSize(c);
    ASSERT_TRUE(cut.ok());
    EXPECT_EQ(*err, cut->error) << "c=" << c;
  }
  // Oversized budgets are the identity cut: zero error.
  auto identity = index.ErrorForSize(rel.size() + 7);
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(*identity, 0.0);
  // c = 0 and c < cmin are rejected like CutToSize.
  EXPECT_FALSE(index.ErrorForSize(0).ok());
  if (index.cmin() > 1) {
    auto below = index.ErrorForSize(index.cmin() - 1);
    ASSERT_FALSE(below.ok());
    EXPECT_EQ(below.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PtaIndexTest, SizeForErrorMatchesCutToErrorSelection) {
  const SequentialRelation rel = RandomSequential(110, 2, 4, 0.15, 79);
  const PtaIndex index = BuildOrDie(rel);

  // Boundaries: eps = 0 keeps every segment the curve can keep; eps = 1
  // admits an error budget of Emax — like CutToError(1.0), that lands on
  // the coarsest knot whose SSE fits (Emax is the upper-bound estimate,
  // not bitwise the curve's endpoint, so this can sit just above cmin).
  auto finest = index.SizeForError(0.0);
  ASSERT_TRUE(finest.ok());
  auto coarsest = index.SizeForError(1.0);
  ASSERT_TRUE(coarsest.ok());
  EXPECT_GE(*coarsest, index.cmin());
  EXPECT_GE(*finest, *coarsest);
  auto coarsest_cut = index.CutToError(1.0);
  ASSERT_TRUE(coarsest_cut.ok());
  EXPECT_EQ(*coarsest, coarsest_cut->relation.size());

  // On every curve knot and a dense grid between them, the selected size
  // must be exactly the row count CutToError materializes — the two share
  // one binary search, so drift here is a refactoring bug.
  std::vector<double> grid = {0.0, 1e-9, 0.001, 0.01, 0.05, 0.1,  0.2,
                              0.3, 0.5,  0.7,   0.9,  0.99, 0.999, 1.0};
  const double emax = index.max_error();
  if (emax > 0) {
    for (size_t m = 1; m <= index.merges(); m += 3) {
      grid.push_back(index.cumulative_error(m) / emax);  // exact knots
    }
  }
  for (const double eps : grid) {
    if (eps < 0.0 || eps > 1.0) continue;
    auto size = index.SizeForError(eps);
    auto cut = index.CutToError(eps);
    ASSERT_TRUE(size.ok()) << "eps=" << eps;
    ASSERT_TRUE(cut.ok()) << "eps=" << eps;
    EXPECT_EQ(*size, cut->relation.size()) << "eps=" << eps;
    // The reported curve error at that size is the cut's accumulated
    // error, bitwise.
    auto err = index.ErrorForSize(*size);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(*err, cut->error) << "eps=" << eps;
  }

  // Out-of-range eps is rejected without touching the curve.
  EXPECT_FALSE(index.SizeForError(-0.25).ok());
  EXPECT_FALSE(index.SizeForError(1.25).ok());

  // Empty input: the accessors mirror the degenerate cut contract.
  const PtaIndex empty = BuildOrDie(SequentialRelation(1));
  auto empty_size = empty.SizeForError(0.5);
  ASSERT_TRUE(empty_size.ok());
  EXPECT_EQ(*empty_size, 0u);
}

// ---- boundaries, matching the reducers' contracts ----------------------

TEST(PtaIndexTest, BoundaryBudgetsMatchReducerContracts) {
  const SequentialRelation rel = RandomSequential(40, 1, 3, 0.3, 71);
  const PtaIndex index = BuildOrDie(rel);

  auto zero = index.CutToSize(0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  if (index.cmin() > 1) {
    auto below = index.CutToSize(index.cmin() - 1);
    ASSERT_FALSE(below.ok());
    EXPECT_EQ(below.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(below.status().message().find("below cmin"), std::string::npos);
  }

  // c >= n returns the input unchanged with zero error.
  auto identity = index.CutToSize(rel.size() + 100);
  ASSERT_TRUE(identity.ok());
  ExpectByteIdentical(identity->relation, rel);
  EXPECT_EQ(identity->error, 0.0);

  auto bad_eps = index.CutToError(1.5);
  ASSERT_FALSE(bad_eps.ok());
  EXPECT_EQ(bad_eps.status().code(), StatusCode::kInvalidArgument);
  auto neg_eps = index.CutToError(-0.1);
  ASSERT_FALSE(neg_eps.ok());
}

TEST(PtaIndexTest, DegenerateInputs) {
  const PtaIndex empty = BuildOrDie(SequentialRelation(2));
  EXPECT_EQ(empty.input_size(), 0u);
  EXPECT_EQ(empty.cmin(), 0u);
  auto cut = empty.CutToSize(5);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->relation.empty());
  EXPECT_EQ(cut->error, 0.0);
  auto err = empty.CutToError(0.5);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->relation.empty());

  SequentialRelation single(1);
  const double v = 42.0;
  single.Append(0, Interval(0, 9), &v);
  const PtaIndex one = BuildOrDie(single);
  EXPECT_EQ(one.cmin(), 1u);
  EXPECT_EQ(one.merges(), 0u);
  auto c1 = one.CutToSize(1);
  ASSERT_TRUE(c1.ok());
  ExpectByteIdentical(c1->relation, single);

  auto bad_weights = PtaIndex::Build(single, {{1.0, 2.0}, false, 0});
  ASSERT_FALSE(bad_weights.ok());
  EXPECT_EQ(bad_weights.status().code(), StatusCode::kInvalidArgument);
}

// ---- the fixed Prop. 3 boundary, pinned ---------------------------------

TEST(PtaIndexTest, StrictPropThreeBoundaryKeepsStreamingOnTheGmsSchedule) {
  // Regression for the budget-boundary bug the index sweep exposed: with
  // the lax `before_gap >= c` condition, gPTAc early-merged the pre-gap
  // region down to c - 1 before the stream proved the last step forced;
  // the merge's re-keying exposed a cheaper pair to the final drain and
  // the result diverged from GMS (and hence from every index cut). The
  // strict bound keeps this two-group input on the GMS schedule.
  SequentialRelation rel(1);
  const double g0[] = {70.2922, 39.1329, 7.10452, 55.171,
                       93.2773, 89.0542, 4.58202, 49.6474};
  const Interval t0[] = {{0, 1}, {2, 4},   {7, 8},   {9, 11},
                         {12, 14}, {15, 15}, {16, 16}, {17, 18}};
  for (size_t i = 0; i < 8; ++i) rel.Append(0, t0[i], &g0[i]);
  const double g1[] = {34.9766, 38.7495, 98.2246, 42.7959,
                       23.5827, 38.4058, 1.88568, 30.8979};
  const Interval t1[] = {{0, 1}, {2, 4}, {5, 5},   {6, 7},
                         {8, 8}, {9, 10}, {13, 14}, {15, 16}};
  for (size_t i = 0; i < 8; ++i) rel.Append(1, t1[i], &g1[i]);

  const PtaIndex index = BuildOrDie(rel);
  GreedyOptions greedy;
  greedy.delta = GreedyOptions::kDeltaInfinity;
  for (size_t c = rel.CMin(); c <= rel.size(); ++c) {
    auto gms = GmsReduceToSize(rel, c);
    RelationSegmentSource source(rel);
    auto streamed = GreedyReduceToSize(source, c, greedy);
    auto cut = index.CutToSize(c);
    ASSERT_TRUE(gms.ok());
    ASSERT_TRUE(streamed.ok());
    ASSERT_TRUE(cut.ok());
    ExpectByteIdentical(cut->relation, gms->relation);
    // c = 7 was the diverging budget before the fix.
    ExpectByteIdentical(streamed->relation, gms->relation);
  }
}

}  // namespace
}  // namespace pta
