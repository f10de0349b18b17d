// The process-wide PtaIndex plan cache (pta/plan.h):
//  * keyed by the input's owner — a reference-bound input is never cached,
//    so editing it in place cannot serve a stale index, and a shared input
//    released and followed by another never shares the first one's entry;
//  * thundering-herd coalescing — N concurrent misses on one key trigger
//    exactly one PtaIndex build, the rest join its shared future;
//  * capacity: entry/byte budgets, LRU order, pinning;
//  * concurrent CutToSize / CutToError / MultiBudgetCut on one shared
//    index (the lazily computed Emax path), run under TSan by
//    scripts/ci.sh --tsan via the `serve` label.

#include "pta/plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "pta/greedy.h"
#include "pta/index.h"
#include "pta/query.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;

// A deterministic single-group gap-free sequential relation whose values
// we control row by row.
SequentialRelation MakeRamp(size_t n, size_t mutated_row = SIZE_MAX,
                            double mutated_value = 0.0) {
  SequentialRelation rel(1, {"V"});
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>((i * 13) % 29);
    if (i == mutated_row) v = mutated_value;
    rel.Append(0, Interval(static_cast<Chronon>(i), static_cast<Chronon>(i)),
               &v);
  }
  rel.SetGroupKeys({GroupKey{Value(static_cast<int64_t>(0))}});
  return rel;
}

std::shared_ptr<const SequentialRelation> Share(SequentialRelation rel) {
  return std::make_shared<const SequentialRelation>(std::move(rel));
}

PtaQuery IndexedQuery(const SequentialRelation& rel, size_t c) {
  return PtaQuery::OverSequential(rel)
      .Budget(Budget::Size(c))
      .Engine(Engine::kIndexed);
}

PtaQuery IndexedQuery(std::shared_ptr<const SequentialRelation> rel,
                      size_t c) {
  return PtaQuery::OverSequential(std::move(rel))
      .Budget(Budget::Size(c))
      .Engine(Engine::kIndexed);
}

// ---- the cache key: the input's owner, never its address ---------------

TEST(PlanCacheStaleAliasTest, InPlaceEditOfAReferenceBoundInputIsServed) {
  PtaIndexCacheClear();
  // Row 30 of 64 lies between the rows an address-keyed cache once sampled
  // as a content guard (0, 9, 18, ..., 63), so only a cache that never
  // keys a reference-bound input by its address serves this edit.
  SequentialRelation rel = MakeRamp(64);
  const PtaQuery query = IndexedQuery(rel, 8);
  ASSERT_TRUE(query.Run().ok());

  // Same object (same address), new contents. The outlier reshapes the
  // greedy merge order, so a stale index would serve visibly wrong bytes.
  rel = MakeRamp(64, /*mutated_row=*/30, /*mutated_value=*/500.0);
  PtaRunStats stats;
  const auto result = query.Run(&stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.indexed.cache_hit);
  auto gms = GmsReduceToSize(rel, 8);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(result->relation, gms->relation);
  EXPECT_EQ(result->error, gms->error);
  PtaIndexCacheClear();
}

TEST(PlanCacheOwnerTest, ReferenceBindingBuildsOnceAndCachesNothing) {
  PtaIndexCacheClear();
  const SequentialRelation rel = MakeRamp(64);
  const auto before = PtaIndexCacheGetStats();
  PtaRunStats stats;
  ASSERT_TRUE(IndexedQuery(rel, 8).Run(&stats).ok());
  const auto after = PtaIndexCacheGetStats();
  EXPECT_FALSE(stats.indexed.cache_hit);
  EXPECT_GT(stats.indexed.build_seconds, 0.0);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(PtaIndexCacheSize(), 0u);
  EXPECT_EQ(PtaIndexCacheBytes(), 0u);
}

TEST(PlanCacheOwnerTest, ReleasedSharedInputNeverSharesAnEntry) {
  PtaIndexCacheClear();
  auto first = Share(MakeRamp(64));
  PtaRunStats first_stats;
  ASSERT_TRUE(IndexedQuery(first, 8).Run(&first_stats).ok());
  EXPECT_FALSE(first_stats.indexed.cache_hit);
  PtaRunStats again;
  ASSERT_TRUE(IndexedQuery(first, 16).Run(&again).ok());
  EXPECT_TRUE(again.indexed.cache_hit);
  ASSERT_EQ(PtaIndexCacheSize(), 1u);
  first.reset();

  // Same shape and fingerprint, other data, made after the first input was
  // released: it must miss, and the miss drops the released input's entry.
  const auto second = Share(MakeRamp(64, /*mutated_row=*/30, 500.0));
  PtaRunStats stats;
  const auto result = IndexedQuery(second, 8).Run(&stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(stats.indexed.cache_hit);
  EXPECT_FALSE(stats.indexed.coalesced);
  auto gms = GmsReduceToSize(*second, 8);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(result->relation, gms->relation);
  EXPECT_EQ(result->error, gms->error);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  auto index = PtaIndex::Build(*second);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(PtaIndexCacheBytes(), index->MemoryFootprint());
  PtaIndexCacheClear();
}

// ---- thundering-herd coalescing ------------------------------------------

TEST(PlanCacheCoalesceTest, ConcurrentMissesBuildExactlyOnce) {
  PtaIndexCacheClear();
  const auto rel =
      Share(testing::RandomSequential(400, 2, 4, /*gap_probability=*/0.0, 7));
  const PtaQuery query = IndexedQuery(rel, 32);

  // The build hook parks the one real builder until every other thread has
  // registered on the shared future, making the herd deterministic.
  std::atomic<int> hook_calls{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  internal::SetIndexCacheBuildHook([&hook_calls, gate](uint64_t) {
    hook_calls.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
  });

  const auto before = PtaIndexCacheGetStats();
  constexpr int kThreads = 8;
  std::vector<PtaRunStats> stats(kThreads);
  std::vector<std::optional<Result<PtaResult>>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[i].emplace(query.Run(&stats[i])); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (PtaIndexCacheGetStats().coalesced <
         before.coalesced + (kThreads - 1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "herd never coalesced";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  for (auto& t : threads) t.join();
  internal::SetIndexCacheBuildHook(nullptr);

  const auto after = PtaIndexCacheGetStats();
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.coalesced, before.coalesced + (kThreads - 1));

  auto gms = GmsReduceToSize(*rel, 32);
  ASSERT_TRUE(gms.ok());
  int owners = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].has_value());
    ASSERT_TRUE(results[i]->ok()) << (*results[i]).status().ToString();
    ExpectByteIdentical((**results[i]).relation, gms->relation);
    EXPECT_FALSE(stats[i].indexed.cache_hit) << "thread " << i;
    if (!stats[i].indexed.coalesced) ++owners;
    // Every participant paid (or waited out) the same shared build.
    EXPECT_GT(stats[i].indexed.build_seconds, 0.0) << "thread " << i;
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  PtaIndexCacheClear();
}

// ---- capacity: entry budget, byte budget, pinning ----------------------

TEST(PlanCacheCapacityTest, EntryBudgetEvictsLruButNeverPinned) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();
  PtaIndexCacheConfig config;
  config.max_entries = 2;
  PtaIndexCacheSetConfig(config);

  const auto a = Share(MakeRamp(64));
  const auto b = Share(MakeRamp(96));
  const auto c = Share(MakeRamp(128));
  PtaIndexCachePin(a, true);
  const auto before = PtaIndexCacheGetStats();
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  ASSERT_TRUE(IndexedQuery(b, 8).Run().ok());
  ASSERT_TRUE(IndexedQuery(c, 8).Run().ok());  // evicts b: a is pinned
  EXPECT_EQ(PtaIndexCacheSize(), 2u);
  EXPECT_EQ(PtaIndexCacheGetStats().evictions, before.evictions + 1);

  PtaRunStats on_a, on_b, on_c;
  ASSERT_TRUE(IndexedQuery(a, 8).Run(&on_a).ok());
  EXPECT_TRUE(on_a.indexed.cache_hit);
  ASSERT_TRUE(IndexedQuery(c, 8).Run(&on_c).ok());
  EXPECT_TRUE(on_c.indexed.cache_hit);
  ASSERT_TRUE(IndexedQuery(b, 8).Run(&on_b).ok());
  EXPECT_FALSE(on_b.indexed.cache_hit);  // b was the one evicted

  PtaIndexCachePin(a, false);
  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

TEST(PlanCacheCapacityTest, ByteBudgetEvictsButKeepsTheNewestEntry) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();

  const auto a = Share(MakeRamp(128));
  const auto b = Share(MakeRamp(128));  // same shape: equal footprints
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  const size_t one_index = PtaIndexCacheBytes();
  ASSERT_GT(one_index, 0u);

  // Room for one-and-a-half indexes: inserting the second must evict the
  // first — and must keep the just-inserted one even though it alone still
  // exceeds nothing (a budget below one working index must not thrash).
  PtaIndexCacheConfig config;
  config.max_entries = 0;
  config.max_bytes = one_index + one_index / 2;
  PtaIndexCacheSetConfig(config);
  ASSERT_TRUE(IndexedQuery(b, 8).Run().ok());
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  EXPECT_LE(PtaIndexCacheBytes(), config.max_bytes);
  PtaRunStats on_b;
  ASSERT_TRUE(IndexedQuery(b, 8).Run(&on_b).ok());
  EXPECT_TRUE(on_b.indexed.cache_hit);

  // A budget smaller than any single index still admits the newest entry.
  config.max_bytes = 1;
  PtaIndexCacheSetConfig(config);
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  EXPECT_EQ(PtaIndexCacheSize(), 1u);

  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

// ---- concurrent cuts on one shared index ---------------------------------

TEST(SharedIndexConcurrencyTest, MixedCutsRaceOnLazyEmaxAndStayIdentical) {
  const SequentialRelation rel =
      testing::RandomSequential(600, 2, 4, /*gap_probability=*/0.0, 21);
  auto built = PtaIndex::Build(rel);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PtaIndex& index = *built;

  const std::vector<size_t> ladder = {8, 32, 128};
  auto by_size = GmsReduceToSize(rel, 32);
  auto by_error = GmsReduceToError(rel, 0.25);
  ASSERT_TRUE(by_size.ok());
  ASSERT_TRUE(by_error.ok());
  std::vector<Result<Reduction>> ladder_ref;
  for (const size_t c : ladder) {
    ladder_ref.push_back(GmsReduceToSize(rel, c));
    ASSERT_TRUE(ladder_ref.back().ok());
  }

  // 4 threads per cut flavor, all started together: the error cuts race on
  // the first materialization of the lazily computed Emax.
  constexpr int kPerFlavor = 4;
  std::vector<std::optional<Result<Reduction>>> size_cuts(kPerFlavor);
  std::vector<std::optional<Result<Reduction>>> error_cuts(kPerFlavor);
  std::vector<std::optional<Result<std::vector<Reduction>>>> ladders(
      kPerFlavor);
  std::vector<std::thread> threads;
  for (int i = 0; i < kPerFlavor; ++i) {
    threads.emplace_back(
        [&, i] { size_cuts[i].emplace(index.CutToSize(32)); });
    threads.emplace_back(
        [&, i] { error_cuts[i].emplace(index.CutToError(0.25)); });
    threads.emplace_back(
        [&, i] { ladders[i].emplace(index.MultiBudgetCut(ladder)); });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kPerFlavor; ++i) {
    ASSERT_TRUE(size_cuts[i]->ok());
    ExpectByteIdentical((**size_cuts[i]).relation, by_size->relation);
    EXPECT_EQ((**size_cuts[i]).error, by_size->error);
    ASSERT_TRUE(error_cuts[i]->ok());
    ExpectByteIdentical((**error_cuts[i]).relation, by_error->relation);
    EXPECT_EQ((**error_cuts[i]).error, by_error->error);
    ASSERT_TRUE(ladders[i]->ok());
    ASSERT_EQ((**ladders[i]).size(), ladder.size());
    for (size_t s = 0; s < ladder.size(); ++s) {
      ExpectByteIdentical((**ladders[i])[s].relation,
                          ladder_ref[s]->relation);
      EXPECT_EQ((**ladders[i])[s].error, ladder_ref[s]->error);
    }
  }
}

}  // namespace
}  // namespace pta
