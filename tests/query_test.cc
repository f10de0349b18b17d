// The unified query surface (pta/query.h + pta/plan.h + pta/stream_api.h):
//  * engine oracles — each batch engine's PtaQuery output is byte-identical
//    to the raw building blocks it lowers to (Ita + the exact DP, gPTAc /
//    gPTAε over a RelationSegmentSource, the sharded reducers over a
//    ShardedSegmentSource) and to a streaming replay;
//  * binding equivalence — Over(rel) equals OverSequential(Ita(rel));
//  * the pinned engine x binding digest matrix;
//  * planner validation — budget range, spec/schema mismatches, and the
//    uniform weights check, one regression test per engine;
//  * engine resolution (kAuto) and the plan/execute split.

#include "pta/query.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datasets/synthetic.h"
#include "pta/pta.h"
#include "pta/stream_api.h"
#include "test_util.h"
#include "util/random.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;
using testing::MakeProjRelation;

ItaSpec ProjAvgSpec() { return {{"Proj"}, {Avg("Sal", "AvgSal")}}; }

// A multi-group, two-dimensional relation big enough that greedy/parallel
// runs do real merging work.
TemporalRelation MakeFleet() {
  SyntheticOptions options;
  options.num_tuples = 1500;
  options.num_dims = 2;
  options.num_groups = 12;
  options.max_duration = 20;
  options.time_span = 400;
  options.seed = 99;
  return GenerateSyntheticRelation(options);
}

ItaSpec FleetSpec() {
  return {{"G"}, {Avg("A1", "Avg1"), Avg("A2", "Avg2")}};
}

void ExpectSameReduction(const Result<PtaResult>& built,
                         const Result<Reduction>& direct, size_t ita_size) {
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ExpectByteIdentical(built->relation, direct->relation);
  EXPECT_EQ(built->error, direct->error);
  EXPECT_EQ(built->ita_size, ita_size);
}

// The fleet's ITA result cut into `num_shards` shards the way the parallel
// engine cuts it: by the stable hash of the grouping values.
ShardedSegmentSource ShardFleetIta(const SequentialRelation& ita,
                                   size_t num_shards) {
  auto map = GroupShardMap(ita.group_keys(), FleetSpec().group_by, {},
                           num_shards);
  PTA_CHECK(map.ok());
  RelationSegmentSource source(ita);
  auto shards = ShardedSegmentSource::Partition(source, num_shards, *map);
  PTA_CHECK(shards.ok());
  return std::move(*shards);
}

// ---- each engine against the building blocks it lowers to --------------

TEST(QueryEquivalenceTest, ExactDpMatchesItaThenDp) {
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  const PtaQuery query =
      PtaQuery::Over(fleet).Spec(FleetSpec()).Engine(Engine::kExactDp);
  ExpectSameReduction(query.WithBudget(Budget::Size(64)).Run(),
                      ReduceToSizeDp(*ita, 64), ita->size());
  ExpectSameReduction(query.WithBudget(Budget::RelativeError(0.1)).Run(),
                      ReduceToErrorDp(*ita, 0.1), ita->size());
}

TEST(QueryEquivalenceTest, GreedyBySizeMatchesGptacOverTheIta) {
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  PtaRunStats run_stats;
  const auto built = PtaQuery::Over(fleet)
                         .Spec(FleetSpec())
                         .Budget(Budget::Size(64))
                         .Engine(Engine::kGreedy)
                         .Run(&run_stats);
  RelationSegmentSource source(*ita);
  GreedyStats direct_stats;
  ExpectSameReduction(built,
                      GreedyReduceToSize(source, 64, {}, &direct_stats),
                      ita->size());
  // The unified stats carry the reducer's counters.
  EXPECT_EQ(run_stats.engine, Engine::kGreedy);
  EXPECT_EQ(run_stats.greedy.merges, direct_stats.merges);
  EXPECT_EQ(run_stats.greedy.max_heap_size, direct_stats.max_heap_size);
  EXPECT_EQ(run_stats.greedy.early_merges, direct_stats.early_merges);
}

TEST(QueryEquivalenceTest, GreedyByErrorMatchesGptaeWithSampledEstimates) {
  // Over a base relation gPTAε takes n̂ = 2|r| - 1 and samples Êmax from a
  // Bernoulli sample of the base tuples (Sec. 6.3): ITA of the sample, its
  // maximal error scaled by the inverse sampling rate.
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  GreedyPtaOptions tuning;
  tuning.sample_fraction = 0.5;
  const auto built = PtaQuery::Over(fleet)
                         .Spec(FleetSpec())
                         .Budget(Budget::RelativeError(0.2))
                         .Engine(Engine::kGreedy)
                         .Greedy(tuning)
                         .Run();

  TemporalRelation sample(fleet.schema());
  Random rng(tuning.sample_seed);
  for (const Tuple& t : fleet.tuples()) {
    if (rng.Bernoulli(tuning.sample_fraction)) sample.InsertUnchecked(t);
  }
  auto sample_ita = Ita(sample, FleetSpec());
  ASSERT_TRUE(sample_ita.ok());
  GreedyErrorEstimates estimates;
  estimates.estimated_n = 2 * fleet.size() - 1;
  estimates.estimated_max_error =
      ErrorContext(*sample_ita).MaxError() / tuning.sample_fraction;
  RelationSegmentSource source(*ita);
  ExpectSameReduction(built, GreedyReduceToError(source, 0.2, estimates),
                      ita->size());
}

TEST(QueryEquivalenceTest, ParallelMatchesShardedReducers) {
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  ParallelOptions parallel;
  parallel.num_shards = 4;  // pinned: deterministic on any host
  parallel.num_threads = 2;
  const PtaQuery query = PtaQuery::Over(fleet)
                             .Spec(FleetSpec())
                             .Engine(Engine::kParallel)
                             .Parallel(parallel);
  ParallelReduceOptions reduce;
  reduce.num_threads = parallel.num_threads;
  const ShardedSegmentSource shards = ShardFleetIta(*ita, 4);

  PtaRunStats run_stats;
  ParallelStats direct_stats;
  ExpectSameReduction(
      query.WithBudget(Budget::Size(64)).Run(&run_stats),
      ParallelReduceToSize(shards, 64, reduce, &direct_stats), ita->size());
  EXPECT_EQ(run_stats.engine, Engine::kParallel);
  EXPECT_EQ(run_stats.parallel.num_shards, direct_stats.num_shards);
  EXPECT_EQ(run_stats.parallel.shard_budgets, direct_stats.shard_budgets);

  ExpectSameReduction(query.WithBudget(Budget::RelativeError(0.2)).Run(),
                      ParallelReduceToError(shards, 0.2, reduce),
                      ita->size());
}

TEST(QueryEquivalenceTest, StreamingReplayMatchesGreedyBySize) {
  // Replaying the materialized ITA result (group-then-time order, watermark
  // off) through the streaming binding is byte-identical to batch gPTAc.
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());

  auto replay = PtaQuery::Stream(/*num_aggregates=*/2)
                    .Budget(Budget::Size(64))
                    .Start();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_TRUE(replay->IngestChunk(*ita).ok());
  auto streamed = replay->Finalize();
  ASSERT_TRUE(streamed.ok());

  const auto greedy = PtaQuery::Over(fleet)
                          .Spec(FleetSpec())
                          .Budget(Budget::Size(64))
                          .Engine(Engine::kGreedy)
                          .Run();
  ASSERT_TRUE(greedy.ok());
  ExpectByteIdentical(*streamed, greedy->relation);
  EXPECT_EQ(replay->total_error(), greedy->error);
}

TEST(QueryEquivalenceTest, ShardedStreamingReplayIsDeterministic) {
  // With Parallel() tuning Start() binds one engine per group shard; for a
  // pinned shard count the replay equals the single-engine replay of each
  // group and is independent of the thread count.
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());

  SequentialRelation reference;
  for (const size_t threads : {1u, 3u}) {
    ParallelOptions parallel;
    parallel.num_shards = 3;
    parallel.num_threads = threads;
    auto replay = PtaQuery::Stream(2)
                      .Budget(Budget::Size(64))
                      .Parallel(parallel)
                      .Start();
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->num_shards(), 3u);
    ASSERT_TRUE(replay->IngestChunk(*ita).ok());
    auto streamed = replay->Finalize();
    ASSERT_TRUE(streamed.ok());
    if (threads == 1u) {
      reference = std::move(*streamed);
    } else {
      ExpectByteIdentical(*streamed, reference);
    }
  }
}

TEST(QueryEquivalenceTest, OverSequentialMatchesDirectReducers) {
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());

  const auto exact = PtaQuery::OverSequential(*ita)
                         .Budget(Budget::Size(64))
                         .Engine(Engine::kExactDp)
                         .Run();
  ExpectSameReduction(exact, ReduceToSizeDp(*ita, 64), ita->size());

  const auto greedy = PtaQuery::OverSequential(*ita)
                          .Budget(Budget::Size(64))
                          .Engine(Engine::kGreedy)
                          .Run();
  RelationSegmentSource source(*ita);
  ExpectSameReduction(greedy, GreedyReduceToSize(source, 64), ita->size());
}

TEST(QueryEquivalenceTest, BothBindingsAgreeBitForBit) {
  // Binding a base relation runs ITA first; binding its ITA result skips
  // it. Every engine whose policy does not look at the binding answers the
  // two identically, metadata included. Greedy by error is not here: over
  // a base relation it takes n̂ = 2|r| - 1 and samples Êmax from base
  // tuples, over a sequential input n is exact and Êmax is sampled from
  // segments, so the early-merge budgets differ.
  PtaIndexCacheClear();
  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  ParallelOptions one_shard;
  one_shard.num_shards = 1;
  one_shard.num_threads = 2;
  for (const Engine engine : {Engine::kExactDp, Engine::kGreedy,
                              Engine::kParallel, Engine::kIndexed}) {
    const auto over = PtaQuery::Over(fleet)
                          .Spec(FleetSpec())
                          .Budget(Budget::Size(64))
                          .Engine(engine)
                          .Parallel(one_shard)
                          .Run();
    const auto sequential = PtaQuery::OverSequential(*ita)
                                .Budget(Budget::Size(64))
                                .Engine(engine)
                                .Parallel(one_shard)
                                .Run();
    ASSERT_TRUE(over.ok()) << EngineName(engine);
    ASSERT_TRUE(sequential.ok()) << EngineName(engine);
    EXPECT_TRUE(over->relation.BitwiseEquals(sequential->relation))
        << EngineName(engine);
    EXPECT_EQ(over->relation.group_keys(), sequential->relation.group_keys())
        << EngineName(engine);
    EXPECT_EQ(over->relation.value_names(),
              sequential->relation.value_names())
        << EngineName(engine);
    EXPECT_EQ(over->error, sequential->error) << EngineName(engine);
    EXPECT_EQ(over->ita_size, sequential->ita_size) << EngineName(engine);
  }
  PtaIndexCacheClear();
}

// ---- the pinned engine x binding matrix --------------------------------

// FNV-1a over everything a batch run returns: the status code, and on
// success the relation (group keys, value names, every row's group,
// interval and value bits), the error bits and ita_size.
class RunDigest {
 public:
  void Mix(const Result<PtaResult>& run) {
    U64(static_cast<uint64_t>(run.ok() ? StatusCode::kOk
                                       : run.status().code()));
    if (!run.ok()) return;
    const SequentialRelation& rel = run->relation;
    U64(rel.group_keys().size());
    for (const GroupKey& key : rel.group_keys()) Str(GroupKeyToString(key));
    U64(rel.value_names().size());
    for (const std::string& name : rel.value_names()) Str(name);
    U64(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) {
      U64(static_cast<uint64_t>(static_cast<int64_t>(rel.group(i))));
      U64(static_cast<uint64_t>(rel.interval(i).begin));
      U64(static_cast<uint64_t>(rel.interval(i).end));
      for (size_t d = 0; d < rel.num_aggregates(); ++d) F64(rel.value(i, d));
    }
    F64(run->error);
    U64(run->ita_size);
  }
  uint64_t value() const { return hash_; }

 private:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct PinnedEngine {
  const char* name;
  Engine engine;
  bool eager;
  size_t num_shards;  // kParallel only
};

TEST(QueryPinTest, EveryEngineAndBindingKeepsItsBytes) {
  // One digest per (engine, binding) cell, folded over both budget kinds,
  // a sampled and an overridden Êmax, 1 and 4 threads, and an empty input
  // of the same binding. The values were captured before the executors
  // were unified; any byte or status the lowering moves changes them.
  SyntheticOptions options;
  options.num_tuples = 400;
  options.num_dims = 2;
  options.num_groups = 6;
  options.max_duration = 20;
  options.time_span = 100;
  options.seed = 5;
  const TemporalRelation rel = GenerateSyntheticRelation(options);
  const TemporalRelation empty_rel(rel.schema());
  auto ita = Ita(rel, FleetSpec());
  auto empty_ita = Ita(empty_rel, FleetSpec());
  ASSERT_TRUE(ita.ok());
  ASSERT_TRUE(empty_ita.ok());

  const PinnedEngine engines[] = {
      {"exact_dp", Engine::kExactDp, true, 0},
      {"greedy_eager", Engine::kGreedy, true, 0},
      {"greedy_deferred", Engine::kGreedy, false, 0},
      {"parallel_1", Engine::kParallel, true, 1},
      {"parallel_4", Engine::kParallel, true, 4},
      {"indexed", Engine::kIndexed, true, 0},
  };
  const pta::Budget budgets[] = {pta::Budget::Size(60),
                                 pta::Budget::RelativeError(0.15)};
  // Ordered as engines x {Over, OverSequential}.
  const uint64_t expected[] = {
      16509069160086706181ULL, 16509069160086706181ULL,  // exact_dp
      2087690291904156321ULL,  4991878407895898129ULL,   // greedy_eager
      8507344137648995953ULL,  7773897423144625249ULL,   // greedy_deferred
      3476718584390969305ULL,  3875988893825099621ULL,   // parallel_1
      5571934402894322449ULL,  9995784589973449901ULL,   // parallel_4
      8507344137648995953ULL,  8507344137648995953ULL,   // indexed
  };

  PtaIndexCacheClear();
  size_t cell = 0;
  for (const PinnedEngine& pinned : engines) {
    for (const bool sequential : {false, true}) {
      RunDigest digest;
      const auto query = [&](bool empty) {
        return sequential
                   ? PtaQuery::OverSequential(empty ? *empty_ita : *ita)
                   : PtaQuery::Over(empty ? empty_rel : rel).Spec(FleetSpec());
      };
      for (const pta::Budget& budget : budgets) {
        for (const bool override_emax : {false, true}) {
          GreedyPtaOptions greedy;
          greedy.eager = pinned.eager;
          if (override_emax) greedy.estimated_max_error = 2.5e6;
          for (const bool empty : {false, true}) {
            uint64_t by_threads[2] = {0, 0};
            for (const size_t threads : {1u, 4u}) {
              ParallelOptions parallel;
              parallel.num_threads = threads;
              parallel.num_shards = pinned.num_shards;
              const auto run = query(empty)
                                   .Budget(budget)
                                   .Engine(pinned.engine)
                                   .Greedy(greedy)
                                   .Parallel(parallel)
                                   .Run();
              RunDigest one;
              one.Mix(run);
              by_threads[threads == 1u ? 0 : 1] = one.value();
              if (threads == 1u) digest.Mix(run);
            }
            EXPECT_EQ(by_threads[0], by_threads[1])
                << pinned.name << (sequential ? " sequential" : " relation")
                << " moved with the thread count";
          }
        }
      }
      EXPECT_EQ(digest.value(), expected[cell])
          << pinned.name << (sequential ? " OverSequential" : " Over");
      ++cell;
    }
  }
  PtaIndexCacheClear();
}

// ---- planner: engine resolution and the plan/execute split -------------

TEST(QueryPlanTest, AutoPicksExactDpForSmallInputs) {
  const TemporalRelation proj = MakeProjRelation();
  auto plan =
      PtaQuery::Over(proj).Spec(ProjAvgSpec()).Budget(Budget::Size(4)).Plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->engine, Engine::kExactDp);
  auto ita = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(ita.ok());
  ExpectSameReduction(plan->Execute(), ReduceToSizeDp(*ita, 4), ita->size());
}

TEST(QueryPlanTest, AutoPicksParallelWhenTuned) {
  const TemporalRelation proj = MakeProjRelation();
  ParallelOptions parallel;
  parallel.num_shards = 1;
  auto plan = PtaQuery::Over(proj)
                  .Spec(ProjAvgSpec())
                  .Budget(Budget::Size(4))
                  .Parallel(parallel)
                  .Plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->engine, Engine::kParallel);
}

TEST(QueryPlanTest, AutoPicksGreedyBeyondTheDpThreshold) {
  SyntheticOptions options;
  options.num_tuples = kAutoExactDpMaxInput + 1;
  options.num_groups = 4;
  options.seed = 3;
  const TemporalRelation big = GenerateSyntheticRelation(options);
  auto plan = PtaQuery::Over(big)
                  .GroupBy("G")
                  .Aggregate(Avg("A1", "Avg1"))
                  .Budget(Budget::Size(100))
                  .Plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->engine, Engine::kGreedy);
}

TEST(QueryPlanTest, StreamSourceResolvesToStreamingEngine) {
  auto plan = PtaQuery::Stream(2).Budget(Budget::Size(16)).Plan();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->engine, Engine::kStreaming);
  EXPECT_EQ(plan->num_aggregates(), 2u);
  EXPECT_EQ(plan->streaming.size_budget, 16u);
  // A streaming plan has no batch execution...
  auto run = plan->Execute();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // ...and a batch plan has no streaming binding.
  const TemporalRelation proj = MakeProjRelation();
  auto start = PtaQuery::Over(proj)
                   .Spec(ProjAvgSpec())
                   .Budget(Budget::Size(4))
                   .Engine(Engine::kGreedy)
                   .Start();
  ASSERT_FALSE(start.ok());
  EXPECT_EQ(start.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryPlanTest, StreamingEngineRejectsPreBoundInputs) {
  // A streaming engine never ingests a bound relation; accepting the
  // combination would silently discard the data behind an OK handle.
  const TemporalRelation proj = MakeProjRelation();
  auto plan = PtaQuery::Over(proj)
                  .Spec(ProjAvgSpec())
                  .Budget(Budget::Size(4))
                  .Engine(Engine::kStreaming)
                  .Plan();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);

  auto ita = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(ita.ok());
  auto start = PtaQuery::OverSequential(*ita)
                   .Budget(Budget::Size(4))
                   .Engine(Engine::kStreaming)
                   .Start();
  ASSERT_FALSE(start.ok());
  EXPECT_EQ(start.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryPlanTest, ValidatesBudgetAndSpec) {
  const TemporalRelation proj = MakeProjRelation();
  const auto invalid = [](const Result<PtaPlan>& plan) {
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  };
  // No budget.
  invalid(PtaQuery::Over(proj).Spec(ProjAvgSpec()).Plan());
  // Zero size / out-of-range eps.
  invalid(PtaQuery::Over(proj).Spec(ProjAvgSpec()).Budget(Budget::Size(0))
              .Plan());
  invalid(PtaQuery::Over(proj)
              .Spec(ProjAvgSpec())
              .Budget(Budget::RelativeError(1.5))
              .Plan());
  // Schema mismatches, one consistent code.
  invalid(PtaQuery::Over(proj)
              .GroupBy("Nope")
              .Aggregate(Avg("Sal", "A"))
              .Budget(Budget::Size(4))
              .Plan());
  invalid(PtaQuery::Over(proj)
              .GroupBy("Proj")
              .Aggregate(Avg("Nope", "A"))
              .Budget(Budget::Size(4))
              .Plan());
  invalid(PtaQuery::Over(proj)
              .GroupBy("Proj")
              .Aggregate(Avg("Empl", "A"))  // non-numeric
              .Budget(Budget::Size(4))
              .Plan());
  invalid(PtaQuery::Over(proj).GroupBy("Proj").Budget(Budget::Size(4))
              .Plan());  // no aggregates
  // The streaming engine is size-bounded.
  invalid(PtaQuery::Stream(1).Budget(Budget::RelativeError(0.5)).Plan());
  invalid(PtaQuery::Stream(0).Budget(Budget::Size(4)).Plan());
}

TEST(QueryPlanTest, UnboundStreamingQueryFailsGracefully) {
  StreamingQuery unbound;
  EXPECT_FALSE(unbound.started());
  Segment seg;
  seg.values = {1.0};
  EXPECT_EQ(unbound.Ingest(seg).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(unbound.Finalize().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(unbound.live_rows(), 0u);
}

// ---- the uniform weights contract: one regression test per engine ------

TEST(QueryWeightsValidationTest, ExactDpRejectsBadWeightsAsStatus) {
  const TemporalRelation proj = MakeProjRelation();
  const PtaQuery query = PtaQuery::Over(proj)
                             .Spec(ProjAvgSpec())
                             .Budget(Budget::Size(4))
                             .Engine(Engine::kExactDp);
  DpOptions options;
  options.weights = {1.0, 2.0};  // arity 2, spec has 1 aggregate
  auto tuned = PtaQuery(query).Exact(options).Run();
  ASSERT_FALSE(tuned.ok());
  EXPECT_EQ(tuned.status().code(), StatusCode::kInvalidArgument);

  auto weighted = PtaQuery(query).Weights({1.0, 2.0}).Run();
  ASSERT_FALSE(weighted.ok());
  EXPECT_EQ(weighted.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryWeightsValidationTest, GreedyRejectsBadWeightsAsStatus) {
  const TemporalRelation proj = MakeProjRelation();
  GreedyPtaOptions options;
  options.weights = {1.0, 2.0};
  const PtaQuery query = PtaQuery::Over(proj)
                             .Spec(ProjAvgSpec())
                             .Engine(Engine::kGreedy)
                             .Greedy(options);
  auto by_size = query.WithBudget(Budget::Size(4)).Run();
  ASSERT_FALSE(by_size.ok());
  EXPECT_EQ(by_size.status().code(), StatusCode::kInvalidArgument);
  auto by_error = query.WithBudget(Budget::RelativeError(0.5)).Run();
  ASSERT_FALSE(by_error.ok());
  EXPECT_EQ(by_error.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryWeightsValidationTest, ParallelRejectsBadWeightsAsStatus) {
  const TemporalRelation proj = MakeProjRelation();
  GreedyPtaOptions options;
  options.weights = {1.0, 2.0};
  auto result = PtaQuery::Over(proj)
                    .Spec(ProjAvgSpec())
                    .Budget(Budget::Size(4))
                    .Engine(Engine::kParallel)
                    .Greedy(options)
                    .Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryWeightsValidationTest, StreamingRejectsBadWeightsAsStatus) {
  auto started = PtaQuery::Stream(1)
                     .Budget(Budget::Size(16))
                     .Weights({1.0, 2.0})
                     .Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryWeightsValidationTest, NonPositiveWeightsRejectedEverywhere) {
  const TemporalRelation proj = MakeProjRelation();
  for (const Engine engine :
       {Engine::kExactDp, Engine::kGreedy, Engine::kParallel}) {
    auto result = PtaQuery::Over(proj)
                      .Spec(ProjAvgSpec())
                      .Budget(Budget::Size(4))
                      .Engine(engine)
                      .Weights({0.0})
                      .Run();
    ASSERT_FALSE(result.ok()) << EngineName(engine);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << EngineName(engine);
  }
}

// ---- Engine::kIndexed, WithBudget, and the re-budgeting fast path ------

TEST(QueryIndexedTest, IndexedCutsMatchGmsOverTheSameIta) {
  PtaIndexCacheClear();
  const auto shared = std::make_shared<const TemporalRelation>(MakeFleet());
  const TemporalRelation& fleet = *shared;
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  PtaRunStats stats;
  const auto indexed = PtaQuery::Over(shared)
                           .Spec(FleetSpec())
                           .Budget(Budget::Size(64))
                           .Engine(Engine::kIndexed)
                           .Run(&stats);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  auto gms = GmsReduceToSize(*ita, 64);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(indexed->relation, gms->relation);
  EXPECT_EQ(indexed->error, gms->error);
  EXPECT_EQ(indexed->ita_size, ita->size());
  EXPECT_EQ(stats.engine, Engine::kIndexed);
  EXPECT_FALSE(stats.indexed.cache_hit);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
}

TEST(QueryIndexedTest, WithBudgetRebindHitsThePlanCache) {
  PtaIndexCacheClear();
  const auto shared = std::make_shared<const TemporalRelation>(MakeFleet());
  const TemporalRelation& fleet = *shared;
  const PtaQuery query = PtaQuery::Over(shared)
                             .Spec(FleetSpec())
                             .Budget(Budget::Size(64))
                             .Engine(Engine::kIndexed);
  // The budget-stripped fingerprint ignores the re-bound budget...
  auto plan_a = query.Plan();
  auto plan_b = query.WithBudget(Budget::Size(32)).Plan();
  auto plan_c = query.WithBudget(Budget::RelativeError(0.2)).Plan();
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  ASSERT_TRUE(plan_c.ok());
  EXPECT_EQ(PlanFingerprint(*plan_a), PlanFingerprint(*plan_b));
  EXPECT_EQ(PlanFingerprint(*plan_a), PlanFingerprint(*plan_c));

  // ...so the first run builds the index and every re-budget reuses it,
  // with cuts byte-identical to a fresh greedy-reference reduction.
  PtaRunStats first;
  ASSERT_TRUE(query.Run(&first).ok());
  EXPECT_FALSE(first.indexed.cache_hit);
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  const size_t cmin = ita->CMin();
  for (const size_t c : {cmin, cmin + 17, cmin + 60}) {
    PtaRunStats rerun;
    const auto result = query.WithBudget(Budget::Size(c)).Run(&rerun);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(rerun.indexed.cache_hit) << "c=" << c;
    auto gms = GmsReduceToSize(*ita, c);
    ASSERT_TRUE(gms.ok());
    ExpectByteIdentical(result->relation, gms->relation);
    EXPECT_EQ(result->error, gms->error);
  }
  PtaRunStats by_error;
  const auto err = query.WithBudget(Budget::RelativeError(0.1)).Run(&by_error);
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(by_error.indexed.cache_hit);
  auto gms_err = GmsReduceToError(*ita, 0.1);
  ASSERT_TRUE(gms_err.ok());
  ExpectByteIdentical(err->relation, gms_err->relation);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
}

TEST(QueryIndexedTest, WithBudgetIsAPlainCopyUnderAuto) {
  PtaIndexCacheClear();
  SyntheticOptions options;
  options.num_tuples = kAutoExactDpMaxInput + 64;
  options.num_groups = 6;
  options.max_duration = 30;
  options.time_span = 2000;  // dense coverage: cmin stays near the group count
  options.seed = 17;
  const auto big =
      std::make_shared<const TemporalRelation>(GenerateSyntheticRelation(options));
  const PtaQuery query = PtaQuery::Over(big)
                             .GroupBy("G")
                             .Aggregate(Avg("A1", "Avg1"))
                             .Budget(Budget::Size(200));
  PtaRunStats first;
  const auto first_result = query.Run(&first);
  ASSERT_TRUE(first_result.ok());
  EXPECT_EQ(first.engine, Engine::kGreedy);

  // Re-running the same query keeps its engine and its bytes.
  PtaRunStats rerun_stats;
  const auto rerun = query.Run(&rerun_stats);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun_stats.engine, Engine::kGreedy);
  ExpectByteIdentical(rerun->relation, first_result->relation);
  EXPECT_EQ(rerun->error, first_result->error);

  // A re-budgeted copy plans exactly like the query built with that budget.
  PtaRunStats rebound_stats;
  const auto rebound = query.WithBudget(Budget::Size(120)).Run(&rebound_stats);
  const auto direct = PtaQuery::Over(big)
                          .GroupBy("G")
                          .Aggregate(Avg("A1", "Avg1"))
                          .Budget(Budget::Size(120))
                          .Run();
  ASSERT_TRUE(rebound.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(rebound_stats.engine, Engine::kGreedy);
  ExpectByteIdentical(rebound->relation, direct->relation);
  EXPECT_EQ(rebound->error, direct->error);
  EXPECT_EQ(PtaIndexCacheSize(), 0u);

  // Small inputs stay on the exact DP across re-budgets.
  const TemporalRelation proj = MakeProjRelation();
  const PtaQuery small =
      PtaQuery::Over(proj).Spec(ProjAvgSpec()).Budget(Budget::Size(4));
  ASSERT_TRUE(small.Run().ok());
  auto small_again = small.WithBudget(Budget::Size(5)).Plan();
  ASSERT_TRUE(small_again.ok());
  EXPECT_EQ(small_again->engine, Engine::kExactDp);
  PtaIndexCacheClear();
}

// ---- budget extremes, byte-identical across engines (regression) -------

TEST(QueryBudgetExtremesTest, ExtremesAgreeAcrossGreedyParallelIndexed) {
  // Size(1), Size(n), and RelativeError(0) through the builder: the greedy,
  // parallel, and indexed engines must agree byte for byte. A single
  // gap-free group keeps Size(1) feasible; delta = infinity pins the
  // greedy engines to the GMS schedule the index records.
  PtaIndexCacheClear();
  SequentialRelation rel = GenerateSyntheticSequential(
      /*num_groups=*/1, /*tuples_per_group=*/300, /*num_dims=*/2, 911);
  rel.SetGroupKeys({GroupKey{Value(static_cast<int64_t>(0))}});
  GreedyPtaOptions greedy;
  greedy.delta = GreedyOptions::kDeltaInfinity;
  ParallelOptions parallel;
  parallel.num_shards = 2;
  parallel.num_threads = 2;

  const pta::Budget extremes[] = {pta::Budget::Size(1),
                                  pta::Budget::Size(rel.size()),
                                  pta::Budget::RelativeError(0.0)};
  for (const pta::Budget& budget : extremes) {
    const PtaQuery base =
        PtaQuery::OverSequential(rel).Budget(budget).Greedy(greedy);
    PtaQuery parallel_query = base;
    parallel_query.Parallel(parallel);
    const auto by_greedy = PtaQuery(base).Engine(Engine::kGreedy).Run();
    const auto by_parallel = parallel_query.Engine(Engine::kParallel).Run();
    const auto by_index = PtaQuery(base).Engine(Engine::kIndexed).Run();
    ASSERT_TRUE(by_greedy.ok()) << by_greedy.status().ToString();
    ASSERT_TRUE(by_parallel.ok()) << by_parallel.status().ToString();
    ASSERT_TRUE(by_index.ok()) << by_index.status().ToString();
    ExpectByteIdentical(by_greedy->relation, by_index->relation);
    ExpectByteIdentical(by_parallel->relation, by_index->relation);
    EXPECT_EQ(by_greedy->error, by_index->error);
    EXPECT_EQ(by_parallel->error, by_index->error);
    if (budget.is_size() && budget.size() == 1) {
      EXPECT_EQ(by_index->relation.size(), 1u);
    }
    if (!budget.is_size()) {
      EXPECT_EQ(by_index->error, 0.0);
    }
  }
  PtaIndexCacheClear();
}

TEST(QueryWeightsValidationTest, ValidWeightsStillFlowThrough) {
  // The planner's check must not break weighted evaluation: same optimal
  // partition, error scaled by w^2 = 4 (cf. PtaApiTest).
  const TemporalRelation proj = MakeProjRelation();
  auto result = PtaQuery::Over(proj)
                    .Spec(ProjAvgSpec())
                    .Budget(Budget::Size(4))
                    .Engine(Engine::kExactDp)
                    .Weights({2.0})
                    .Run();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->error, 4.0 * 49166.67, 0.05);
}

}  // namespace
}  // namespace pta
