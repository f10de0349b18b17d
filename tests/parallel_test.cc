// The parallel group-sharded engine: shard-map stability, partitioning,
// budget allocation, determinism across runs and thread counts, exact
// equivalence to the single-threaded greedy reducers at one shard, and a
// many-small-groups stress case (run under TSan by scripts/ci.sh --tsan).

#include "pta/parallel.h"

#include <gtest/gtest.h>

#include "core/ita.h"
#include "datasets/synthetic.h"
#include "pta/pta.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjRelation;
using testing::RandomSequential;

// Byte-level equality: same shape and bitwise-identical doubles. The
// acceptance bar for num_threads = 1 is "identical", not "close".
void ExpectExactlyEqual(const SequentialRelation& a,
                        const SequentialRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.group(i), b.group(i)) << "segment " << i;
    EXPECT_EQ(a.interval(i), b.interval(i)) << "segment " << i;
    for (size_t d = 0; d < a.num_aggregates(); ++d) {
      EXPECT_EQ(a.value(i, d), b.value(i, d))
          << "segment " << i << " dim " << d;
    }
  }
}

Result<ShardedSegmentSource> ShardRelation(const SequentialRelation& rel,
                                           size_t num_shards) {
  std::vector<std::string> group_by;
  if (!rel.group_keys().empty() && !rel.group_keys()[0].empty()) {
    for (size_t i = 0; i < rel.group_keys()[0].size(); ++i) {
      group_by.push_back("G" + std::to_string(i));
    }
  }
  auto map = GroupShardMap(rel.group_keys(), group_by, {}, num_shards);
  if (!map.ok()) return map.status();
  RelationSegmentSource src(rel);
  return ShardedSegmentSource::Partition(src, num_shards, *map);
}

// ---------------------------------------------------------------- shard map

TEST(GroupShardMapTest, IsStableAcrossCalls) {
  const std::vector<GroupKey> keys = {{Value("A")}, {Value("B")},
                                      {Value("C")}, {Value(42)}};
  auto a = GroupShardMap(keys, {"G"}, {}, 7);
  auto b = GroupShardMap(keys, {"G"}, {}, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  for (uint32_t s : *a) EXPECT_LT(s, 7u);
}

TEST(GroupShardMapTest, ShardBySubsetKeepsCoarseGroupsTogether) {
  // Keys over (Empl, Proj); sharding by Proj alone must send every key
  // with the same project to the same shard.
  const std::vector<GroupKey> keys = {{Value("John"), Value("A")},
                                      {Value("Ann"), Value("A")},
                                      {Value("Tom"), Value("B")},
                                      {Value("Eve"), Value("B")}};
  auto map = GroupShardMap(keys, {"Empl", "Proj"}, {"Proj"}, 64);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ((*map)[0], (*map)[1]);
  EXPECT_EQ((*map)[2], (*map)[3]);
}

TEST(GroupShardMapTest, RejectsBadArguments) {
  const std::vector<GroupKey> keys = {{Value("A")}};
  EXPECT_FALSE(GroupShardMap(keys, {"G"}, {"NotAnAttr"}, 4).ok());
  EXPECT_FALSE(GroupShardMap(keys, {"G"}, {}, 0).ok());
  // Key arity must match group_by.
  EXPECT_FALSE(GroupShardMap({{Value("A"), Value(1)}}, {"G"}, {}, 4).ok());
}

TEST(PartitionByGroupHashTest, ShardsPreserveTuplesAndGroups) {
  const TemporalRelation proj = MakeProjRelation();
  auto shards = PartitionByGroupHash(proj, {"Proj"}, 4);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 4u);
  size_t total = 0;
  TemporalRelation merged(proj.schema());
  for (const TemporalRelation& shard : *shards) {
    total += shard.size();
    for (const Tuple& t : shard.tuples()) merged.InsertUnchecked(t);
  }
  EXPECT_EQ(total, proj.size());
  EXPECT_TRUE(merged.SameTuples(proj));
  // All tuples of one project land in one shard.
  auto one = PartitionByGroupHash(proj, {"Proj"}, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)[0].size(), proj.size());
  EXPECT_FALSE(PartitionByGroupHash(proj, {"NoSuchAttr"}, 4).ok());
  EXPECT_FALSE(PartitionByGroupHash(proj, {"Proj"}, 0).ok());
}

// ------------------------------------------------------------- partitioning

TEST(ShardedSegmentSourceTest, SplitsGroupsIntoValidShards) {
  const SequentialRelation rel = RandomSequential(200, 2, 4, 0.1, 11);
  RelationSegmentSource src(rel);
  const std::vector<uint32_t> map = {0, 1, 0, 1};
  auto sharded = ShardedSegmentSource::Partition(src, 2, map);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 2u);
  EXPECT_EQ(sharded->total_size(), rel.size());
  EXPECT_EQ(sharded->num_groups(), 4u);
  EXPECT_EQ(sharded->shard(0).size() + sharded->shard(1).size(), rel.size());
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(sharded->shard(s).Validate().ok());
  }
  // Shard 0 holds exactly the groups mapped to it.
  for (size_t i = 0; i < sharded->shard(0).size(); ++i) {
    EXPECT_EQ(map[sharded->shard(0).group(i)], 0u);
  }
}

TEST(ShardedSegmentSourceTest, RejectsBadShardMaps) {
  const SequentialRelation rel = RandomSequential(20, 1, 2, 0.0, 3);
  {
    RelationSegmentSource src(rel);
    EXPECT_FALSE(ShardedSegmentSource::Partition(src, 2, {0, 5}).ok());
  }
  {
    // Group id 1 has no map entry.
    RelationSegmentSource src(rel);
    EXPECT_FALSE(ShardedSegmentSource::Partition(src, 2, {0}).ok());
  }
}

TEST(ShardedSegmentSourceTest, EmptySourceYieldsEmptyShards) {
  const SequentialRelation rel(1);
  RelationSegmentSource src(rel);
  auto sharded = ShardedSegmentSource::Partition(src, 3, {});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->total_size(), 0u);
  EXPECT_EQ(sharded->num_groups(), 0u);
}

TEST(ShardedSegmentSourceTest, ShardsWithoutAnyGroupStayEmptyButUsable) {
  // Two groups, both mapped to shard 1 of 3: shards 0 and 2 must come out
  // as empty-but-valid relations and reductions must tolerate them.
  const SequentialRelation rel = RandomSequential(60, 2, 2, 0.0, 19);
  RelationSegmentSource src(rel);
  auto sharded = ShardedSegmentSource::Partition(src, 3, {1, 1});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 3u);
  EXPECT_TRUE(sharded->shard(0).empty());
  EXPECT_TRUE(sharded->shard(2).empty());
  EXPECT_EQ(sharded->shard(1).size(), rel.size());
  EXPECT_TRUE(sharded->shard(0).Validate().ok());
  auto red = ParallelReduceToSize(*sharded, rel.CMin() + 10);
  ASSERT_TRUE(red.ok());
  EXPECT_TRUE(red->relation.Validate().ok());
}

TEST(ShardedSegmentSourceTest, SingleGroupInputLandsOnOneShard) {
  const SequentialRelation rel = RandomSequential(80, 1, 1, 0.05, 23);
  RelationSegmentSource src(rel);
  auto sharded = ShardedSegmentSource::Partition(src, 4, {2});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_groups(), 1u);
  EXPECT_EQ(sharded->shard(2).size(), rel.size());
  for (size_t s : {0u, 1u, 3u}) EXPECT_TRUE(sharded->shard(s).empty());
  // The lone shard carries the whole reduction: equivalent to unsharded.
  auto par = ParallelReduceToSize(*sharded, rel.CMin() + 5);
  RelationSegmentSource again(rel);
  auto seq = GreedyReduceToSize(again, rel.CMin() + 5);
  ASSERT_TRUE(par.ok() && seq.ok());
  ExpectExactlyEqual(par->relation, seq->relation);
}

TEST(ShardedSegmentSourceTest, MoreShardsThanGroupsIsFine) {
  // 16 shards over 3 groups: GroupShardMap may leave most shards empty;
  // partitioning, budget allocation, and the reduction must all cope.
  const SequentialRelation rel = RandomSequential(90, 2, 3, 0.1, 29);
  auto map = GroupShardMap(rel.group_keys(),
                           {"G0"}, {}, 16);
  ASSERT_TRUE(map.ok());
  RelationSegmentSource src(rel);
  auto sharded = ShardedSegmentSource::Partition(src, 16, *map);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 16u);
  EXPECT_EQ(sharded->total_size(), rel.size());
  size_t non_empty = 0;
  for (size_t s = 0; s < 16; ++s) {
    if (!sharded->shard(s).empty()) ++non_empty;
  }
  EXPECT_LE(non_empty, 3u);
  ParallelStats stats;
  auto red = ParallelReduceToSize(*sharded, rel.CMin() + 12, {}, &stats);
  ASSERT_TRUE(red.ok());
  EXPECT_TRUE(red->relation.Validate().ok());
  EXPECT_EQ(stats.num_shards, 16u);
  size_t budget_sum = 0;
  for (size_t b : stats.shard_budgets) budget_sum += b;
  EXPECT_EQ(budget_sum, rel.CMin() + 12);
}

// --------------------------------------------------------- budget allocator

TEST(AllocateSizeBudgetsTest, SplitsProportionallyToError) {
  auto b = AllocateSizeBudgets({10, 10}, {1, 1}, {3.0, 1.0}, 6);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<size_t>{4, 2}));
}

TEST(AllocateSizeBudgetsTest, CapsAtShardSizeAndReflows) {
  // Shard 0 wants nearly everything but only has headroom 3; the rest
  // flows to shard 1.
  auto b = AllocateSizeBudgets({4, 10}, {1, 1}, {100.0, 1.0}, 10);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<size_t>{4, 6}));
}

TEST(AllocateSizeBudgetsTest, ZeroErrorsFallBackToHeadroom) {
  auto b = AllocateSizeBudgets({10, 6}, {2, 2}, {0.0, 0.0}, 8);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<size_t>{5, 3}));
}

TEST(AllocateSizeBudgetsTest, BoundaryCases) {
  // Exactly the cmins.
  auto at_cmin = AllocateSizeBudgets({5, 5}, {2, 3}, {1.0, 1.0}, 5);
  ASSERT_TRUE(at_cmin.ok());
  EXPECT_EQ(*at_cmin, (std::vector<size_t>{2, 3}));
  // Below the global cmin is infeasible.
  EXPECT_FALSE(AllocateSizeBudgets({5, 5}, {2, 3}, {1.0, 1.0}, 4).ok());
  // At or above the total size nothing needs merging.
  auto all = AllocateSizeBudgets({5, 5}, {2, 3}, {1.0, 1.0}, 12);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<size_t>{5, 5}));
  // Mismatched arities, zero shards, and negative weights are rejected.
  EXPECT_FALSE(AllocateSizeBudgets({5}, {1, 1}, {1.0, 1.0}, 4).ok());
  EXPECT_FALSE(AllocateSizeBudgets({}, {}, {}, 4).ok());
  EXPECT_FALSE(AllocateSizeBudgets({5, 5}, {1, 1}, {-1.0, 1.0}, 4).ok());
  // cmin above size is inconsistent.
  EXPECT_FALSE(AllocateSizeBudgets({2, 5}, {3, 1}, {1.0, 1.0}, 6).ok());
}

TEST(AllocateSizeBudgetsTest, AdversarialBoundaryAudit) {
  // Regression lattice for the documented boundary contracts (the PR 5
  // audit): saturated shards never siphon budget, ties stay deterministic
  // toward lower indices, and an all-zero Êmax shard neither starves below
  // its cmin nor crowds out error-carrying shards.

  // A shard whose cmin already consumes its whole size (zero headroom) must
  // receive exactly its cmin, no matter how large its Êmax weight is; the
  // remainder flows to the other shards.
  auto saturated =
      AllocateSizeBudgets({5, 10, 10}, {5, 1, 1}, {1e12, 1.0, 1.0}, 9);
  ASSERT_TRUE(saturated.ok());
  EXPECT_EQ(*saturated, (std::vector<size_t>{5, 2, 2}));

  // An all-zero Êmax shard keeps its cmin and only receives remainder that
  // the error-carrying shards cannot hold.
  auto zero_emax =
      AllocateSizeBudgets({10, 10, 10}, {1, 1, 1}, {0.0, 5.0, 5.0}, 15);
  ASSERT_TRUE(zero_emax.ok());
  EXPECT_EQ(*zero_emax, (std::vector<size_t>{1, 7, 7}));
  // ...but once those saturate, the leftover re-flows to it rather than
  // being dropped.
  auto reflow =
      AllocateSizeBudgets({10, 3, 3}, {1, 1, 1}, {0.0, 5.0, 5.0}, 9);
  ASSERT_TRUE(reflow.ok());
  EXPECT_EQ(*reflow, (std::vector<size_t>{3, 3, 3}));

  // Êmax ties break toward lower shard indices, at every remainder count.
  auto ties3 = AllocateSizeBudgets({10, 10, 10}, {1, 1, 1}, {2.0, 2.0, 2.0}, 8);
  ASSERT_TRUE(ties3.ok());
  EXPECT_EQ(*ties3, (std::vector<size_t>{3, 3, 2}));
  auto ties2 = AllocateSizeBudgets({10, 10}, {1, 1}, {2.0, 2.0}, 5);
  ASSERT_TRUE(ties2.ok());
  EXPECT_EQ(*ties2, (std::vector<size_t>{3, 2}));

  // Positive-weight shards with zero headroom cap instantly; the whole
  // remainder lands on the zero-weight shard that actually has room.
  auto only_room =
      AllocateSizeBudgets({3, 3, 10}, {3, 3, 1}, {5.0, 5.0, 0.0}, 10);
  ASSERT_TRUE(only_room.ok());
  EXPECT_EQ(*only_room, (std::vector<size_t>{3, 3, 4}));

  // Empty shards (size 0, cmin 0, Êmax 0) ride along untouched.
  auto with_empty =
      AllocateSizeBudgets({0, 8, 0, 8}, {0, 2, 0, 2}, {0.0, 1.0, 0.0, 1.0}, 10);
  ASSERT_TRUE(with_empty.ok());
  EXPECT_EQ(*with_empty, (std::vector<size_t>{0, 5, 0, 5}));

  // Determinism: adversarial vectors allocate identically on every call.
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again =
        AllocateSizeBudgets({5, 10, 10}, {5, 1, 1}, {1e12, 1.0, 1.0}, 9);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *saturated);
  }
}

TEST(AllocateSizeBudgetsTest, SumsToCOnRandomInstances) {
  Random rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t num_shards = static_cast<size_t>(rng.UniformInt(1, 12));
    std::vector<size_t> sizes(num_shards), cmins(num_shards);
    std::vector<double> errors(num_shards);
    size_t total = 0, total_cmin = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      sizes[s] = static_cast<size_t>(rng.UniformInt(1, 50));
      cmins[s] = static_cast<size_t>(rng.UniformInt(1, sizes[s]));
      errors[s] = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 100.0);
      total += sizes[s];
      total_cmin += cmins[s];
    }
    const size_t c = total_cmin + static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(total - total_cmin)));
    auto b = AllocateSizeBudgets(sizes, cmins, errors, c);
    ASSERT_TRUE(b.ok());
    size_t sum = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_GE((*b)[s], cmins[s]);
      EXPECT_LE((*b)[s], sizes[s]);
      sum += (*b)[s];
    }
    EXPECT_EQ(sum, c) << "iteration " << iter;
  }
}

// --------------------------------------------------------------- reductions

TEST(ParallelReduceTest, OneShardIsByteIdenticalToGreedy) {
  const SequentialRelation rel = RandomSequential(400, 3, 5, 0.08, 21);
  auto sharded = ShardRelation(rel, 1);
  ASSERT_TRUE(sharded.ok());
  const size_t cmin = rel.CMin();
  for (size_t c : {cmin, cmin + 40, rel.size() / 2, rel.size()}) {
    auto par = ParallelReduceToSize(*sharded, c);
    RelationSegmentSource src(rel);
    auto seq = GreedyReduceToSize(src, c);
    ASSERT_TRUE(par.ok() && seq.ok());
    ExpectExactlyEqual(par->relation, seq->relation);
    EXPECT_EQ(par->error, seq->error);
  }
}

TEST(ParallelReduceTest, OneShardErrorBoundedMatchesGreedy) {
  const SequentialRelation rel = RandomSequential(300, 2, 3, 0.05, 33);
  auto sharded = ShardRelation(rel, 1);
  ASSERT_TRUE(sharded.ok());
  const ErrorContext ctx(rel);
  for (double eps : {0.0, 0.1, 0.5, 1.0}) {
    auto par = ParallelReduceToError(*sharded, eps);
    GreedyErrorEstimates estimates{ctx.MaxError(), rel.size()};
    RelationSegmentSource src(rel);
    auto seq = GreedyReduceToError(src, eps, estimates);
    ASSERT_TRUE(par.ok() && seq.ok());
    ExpectExactlyEqual(par->relation, seq->relation);
    EXPECT_EQ(par->error, seq->error);
  }
}

TEST(ParallelReduceTest, ResultIndependentOfThreadCount) {
  const SequentialRelation rel = RandomSequential(600, 2, 16, 0.1, 5);
  auto sharded = ShardRelation(rel, 8);
  ASSERT_TRUE(sharded.ok());
  const size_t c = rel.CMin() + 50;
  ParallelReduceOptions base;
  base.num_threads = 1;
  auto reference = ParallelReduceToSize(*sharded, c, base);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    ParallelReduceOptions options;
    options.num_threads = threads;
    auto red = ParallelReduceToSize(*sharded, c, options);
    ASSERT_TRUE(red.ok());
    ExpectExactlyEqual(red->relation, reference->relation);
    EXPECT_EQ(red->error, reference->error);
  }
}

TEST(ParallelReduceTest, RepeatedRunsAreDeterministic) {
  const SequentialRelation rel = RandomSequential(500, 2, 10, 0.1, 77);
  auto sharded = ShardRelation(rel, 4);
  ASSERT_TRUE(sharded.ok());
  ParallelReduceOptions options;
  options.num_threads = 4;
  options.budget_sample_fraction = 0.5;  // the sampler must be seeded too
  const size_t c = rel.CMin() + 30;
  auto first = ParallelReduceToSize(*sharded, c, options);
  ASSERT_TRUE(first.ok());
  for (int run = 0; run < 3; ++run) {
    auto again = ParallelReduceToSize(*sharded, c, options);
    ASSERT_TRUE(again.ok());
    ExpectExactlyEqual(again->relation, first->relation);
    EXPECT_EQ(again->error, first->error);
  }
}

TEST(ParallelReduceTest, OutputIsValidAndBudgetIsMet) {
  const SequentialRelation rel = RandomSequential(800, 2, 12, 0.15, 13);
  auto sharded = ShardRelation(rel, 6);
  ASSERT_TRUE(sharded.ok());
  ParallelStats stats;
  ParallelReduceOptions options;
  options.num_threads = 3;
  const size_t c = rel.CMin() + 60;
  auto red = ParallelReduceToSize(*sharded, c, options, &stats);
  ASSERT_TRUE(red.ok());
  EXPECT_TRUE(red->relation.Validate().ok());
  EXPECT_LE(red->relation.size(), c);
  EXPECT_EQ(stats.num_shards, 6u);
  EXPECT_EQ(stats.threads_used, 3u);
  EXPECT_EQ(stats.total_segments, rel.size());
  size_t budget_sum = 0;
  for (size_t b : stats.shard_budgets) budget_sum += b;
  EXPECT_EQ(budget_sum, c);
  // The merged SSE matches the Def. 5 distance to the input.
  auto sse = StepFunctionSse(rel, red->relation);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, red->error, 1e-6 * (1.0 + red->error));
}

TEST(ParallelReduceTest, ErrorBoundedRespectsGlobalBudget) {
  const SequentialRelation rel = RandomSequential(600, 2, 8, 0.1, 29);
  auto sharded = ShardRelation(rel, 4);
  ASSERT_TRUE(sharded.ok());
  const ErrorContext ctx(rel);
  const double emax = ctx.MaxError();
  for (double eps : {0.0, 0.2, 0.8, 1.0}) {
    ParallelReduceOptions options;
    options.num_threads = 2;
    auto red = ParallelReduceToError(*sharded, eps, options);
    ASSERT_TRUE(red.ok());
    EXPECT_TRUE(red->relation.Validate().ok());
    // Per-shard budgets eps * Emax_s sum to the global eps * Emax.
    EXPECT_LE(red->error, eps * emax + 1e-9);
    // pta-lint: allow(float-equality) -- eps is an exact loop literal
    if (eps == 0.0) ExpectExactlyEqual(red->relation, rel);
  }
}

TEST(ParallelReduceTest, RejectsBadSampleFractionEvenWhenEstimationSkips) {
  const SequentialRelation rel = RandomSequential(50, 1, 2, 0.0, 9);
  // One shard skips the estimation pass; the contract must hold anyway.
  auto sharded = ShardRelation(rel, 1);
  ASSERT_TRUE(sharded.ok());
  for (double fraction : {-1.0, 0.0, 5.0}) {
    ParallelReduceOptions options;
    options.budget_sample_fraction = fraction;
    EXPECT_FALSE(ParallelReduceToSize(*sharded, rel.size(), options).ok());
    EXPECT_FALSE(ParallelReduceToError(*sharded, 0.5, options).ok());
  }
}

TEST(ParallelReduceTest, EmptyInputProducesEmptyOutput) {
  const SequentialRelation rel(2);
  RelationSegmentSource src(rel);
  auto sharded = ShardedSegmentSource::Partition(src, 4, {});
  ASSERT_TRUE(sharded.ok());
  auto red = ParallelReduceToSize(*sharded, 10);
  ASSERT_TRUE(red.ok());
  EXPECT_TRUE(red->relation.empty());
  EXPECT_EQ(red->error, 0.0);
}

TEST(ParallelReduceTest, InfeasibleBudgetReportsGlobalCmin) {
  const SequentialRelation rel = RandomSequential(100, 1, 10, 0.2, 17);
  auto sharded = ShardRelation(rel, 4);
  ASSERT_TRUE(sharded.ok());
  auto red = ParallelReduceToSize(*sharded, rel.CMin() - 1);
  EXPECT_FALSE(red.ok());
  EXPECT_EQ(red.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- the parallel engine

TEST(ParallelPtaTest, SingleThreadMatchesGreedyPtaExactly) {
  const TemporalRelation proj = MakeProjRelation();
  const ItaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}};
  ParallelOptions parallel;
  parallel.num_threads = 1;  // one shard; must match gPTAc byte for byte
  const PtaQuery query =
      PtaQuery::Over(proj).Spec(spec).Budget(Budget::Size(4));
  auto par = PtaQuery(query).Engine(Engine::kParallel).Parallel(parallel).Run();
  auto seq = PtaQuery(query).Engine(Engine::kGreedy).Run();
  ASSERT_TRUE(par.ok() && seq.ok());
  ExpectExactlyEqual(par->relation, seq->relation);
  EXPECT_EQ(par->error, seq->error);
  EXPECT_EQ(par->ita_size, seq->ita_size);
  EXPECT_EQ(par->relation.group_keys(), seq->relation.group_keys());
  EXPECT_EQ(par->relation.value_names(), seq->relation.value_names());
}

TEST(ParallelPtaTest, ShardedRunKeepsGroupsIntactAndDisplayable) {
  const TemporalRelation proj = MakeProjRelation();
  const ItaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}};
  ParallelOptions parallel;
  parallel.num_threads = 2;
  parallel.num_shards = 4;
  PtaRunStats stats;
  auto par = PtaQuery::Over(proj)
                 .Spec(spec)
                 .Budget(Budget::Size(4))
                 .Engine(Engine::kParallel)
                 .Parallel(parallel)
                 .Run(&stats);
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(par->relation.Validate().ok());
  EXPECT_LE(par->relation.size(), 4u);
  EXPECT_EQ(stats.parallel.num_shards, 4u);
  const Schema group_schema({{"Proj", ValueType::kString}});
  auto displayable = par->relation.ToTemporalRelation(group_schema);
  ASSERT_TRUE(displayable.ok());
}

TEST(ParallelPtaTest, ShardByMustNameAGroupingAttribute) {
  const TemporalRelation proj = MakeProjRelation();
  const ItaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}};
  ParallelOptions parallel;
  parallel.shard_by = {"Sal"};  // an aggregate, not a grouping attribute
  EXPECT_FALSE(PtaQuery::Over(proj)
                   .Spec(spec)
                   .Budget(Budget::Size(4))
                   .Engine(Engine::kParallel)
                   .Parallel(parallel)
                   .Run()
                   .ok());
}

TEST(ParallelPtaTest, ErrorBoundedRunTracksSequentialQuality) {
  SyntheticOptions synth;
  synth.num_tuples = 400;
  synth.num_dims = 2;
  synth.num_groups = 6;
  const TemporalRelation rel = GenerateSyntheticRelation(synth);
  const ItaSpec spec{{"G"}, {Avg("A1", "AvgA1"), Avg("A2", "AvgA2")}};
  ParallelOptions parallel;
  parallel.num_threads = 2;
  parallel.num_shards = 3;
  auto par = PtaQuery::Over(rel)
                 .Spec(spec)
                 .Budget(Budget::RelativeError(0.3))
                 .Engine(Engine::kParallel)
                 .Parallel(parallel)
                 .Run();
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(par->relation.Validate().ok());
  auto ita = Ita(rel, spec);
  ASSERT_TRUE(ita.ok());
  const ErrorContext ctx(*ita);
  EXPECT_LE(par->error, 0.3 * ctx.MaxError() + 1e-9);
  EXPECT_EQ(par->ita_size, ita->size());
}

// ------------------------------------------------------------------- stress

TEST(ParallelStressTest, ManySmallGroupsStaysDeterministic) {
  // 500 tiny groups over 8 shards and 4 threads: the TSan target. Two
  // back-to-back runs must agree exactly with each other and with the
  // single-threaded execution of the same sharding.
  const SequentialRelation rel = RandomSequential(4000, 2, 500, 0.05, 123);
  auto sharded = ShardRelation(rel, 8);
  ASSERT_TRUE(sharded.ok());
  ParallelReduceOptions single;
  single.num_threads = 1;
  auto reference = ParallelReduceToSize(*sharded, 1200, single);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(reference->relation.Validate().ok());
  for (int run = 0; run < 2; ++run) {
    ParallelReduceOptions options;
    options.num_threads = 4;
    auto red = ParallelReduceToSize(*sharded, 1200, options);
    ASSERT_TRUE(red.ok());
    ExpectExactlyEqual(red->relation, reference->relation);
    EXPECT_EQ(red->error, reference->error);
  }
  ParallelReduceOptions options;
  options.num_threads = 4;
  auto by_error = ParallelReduceToError(*sharded, 0.5, options);
  ASSERT_TRUE(by_error.ok());
  EXPECT_TRUE(by_error->relation.Validate().ok());
}

}  // namespace
}  // namespace pta
