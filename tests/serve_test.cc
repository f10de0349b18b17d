// The serving layer (src/serve/): PtaServer dataset lifecycle, session
// requests (sync, async, zoom ladders), byte-identity of concurrently
// served cuts against the single-threaded GMS reducers, updates that
// replace a dataset's owner (and carry its pin) while requests on the old
// data finish on it, warm starts, and admission control / shedding.
// Runs under TSan via scripts/ci.sh --tsan (label `serve`); the tests named
// *WhileUpdat* also run 20 times over as serve_race_repeat_test.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "core/ita.h"
#include "datasets/synthetic.h"
#include "pta/greedy.h"
#include "pta/index.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;

TemporalRelation MakeFleet() {
  SyntheticOptions options;
  options.num_tuples = 1200;
  options.num_dims = 2;
  options.num_groups = 8;
  options.max_duration = 20;
  options.time_span = 400;
  options.seed = 77;
  return GenerateSyntheticRelation(options);
}

ItaSpec FleetSpec() {
  return {{"G"}, {Avg("A1", "Avg1"), Avg("A2", "Avg2")}};
}

SequentialRelation MakeSequential(uint64_t seed, double scale = 1.0) {
  SequentialRelation rel(1, {"V"});
  for (size_t i = 0; i < 200; ++i) {
    double v = scale * static_cast<double>((i * seed + 3) % 41);
    rel.Append(0, Interval(static_cast<Chronon>(i), static_cast<Chronon>(i)),
               &v);
  }
  rel.SetGroupKeys({GroupKey{Value(static_cast<int64_t>(0))}});
  return rel;
}

// ---- registry lifecycle ------------------------------------------------

TEST(PtaServerTest, RegistryLifecycle) {
  PtaIndexCacheClear();
  PtaServer server;
  EXPECT_EQ(server.AddDataset("", MakeSequential(1)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());
  EXPECT_EQ(server.AddDataset("fleet", MakeFleet()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.OpenSession("nope", FleetSpec()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.DropDataset("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.stats().datasets, 1u);
  ASSERT_TRUE(server.DropDataset("fleet").ok());
  EXPECT_EQ(server.stats().datasets, 0u);
  EXPECT_EQ(server.OpenSession("fleet", FleetSpec()).status().code(),
            StatusCode::kNotFound);
  // Kind mismatch on update is rejected before any swap happens.
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(1)).ok());
  EXPECT_EQ(server.UpdateDataset("seq", MakeFleet()).code(),
            StatusCode::kInvalidArgument);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, EmptySessionFailsPrecondition) {
  PtaSession session;
  EXPECT_EQ(session.Cut(Budget::Size(4)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.CutAsync(Budget::Size(4)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.ZoomLadder({4, 8}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Advise(advisor::AdvisorOptions::Knee()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.dataset(), "");
}

TEST(PtaServerTest, AdviseMatchesTheDirectAdvisorAndTheServedCut) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());
  auto session = server.OpenSession("fleet", FleetSpec());
  ASSERT_TRUE(session.ok());

  auto advice = session->Advise(advisor::AdvisorOptions::Knee());
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_GT(advice->budget, 0u);
  // Serving the advised budget is an ordinary cut of the shared index.
  auto cut = session->Cut(Budget::Size(advice->budget));
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_EQ(cut->relation.size(), advice->budget);
  EXPECT_EQ(cut->error, advice->sse);
  // Target-eps advice through the session is CutToError's selection.
  auto eps_advice =
      session->Advise(advisor::AdvisorOptions::TargetRelativeError(0.05));
  ASSERT_TRUE(eps_advice.ok());
  auto eps_cut = session->Cut(Budget::RelativeError(0.05));
  ASSERT_TRUE(eps_cut.ok());
  EXPECT_EQ(eps_cut->relation.size(), eps_advice->budget);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, OpenSessionValidatesSpecEagerly) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());
  // A group-by column the schema does not have fails at OpenSession, not
  // at the first admitted request.
  auto bad = server.OpenSession("fleet", {{"NoSuch"}, {Avg("A1", "Avg1")}});
  EXPECT_FALSE(bad.ok());
  PtaIndexCacheClear();
}

// ---- served cuts vs. the single-threaded reducers ----------------------

TEST(PtaServerTest, SyncCutMatchesGms) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());
  auto session = server.OpenSession("fleet", FleetSpec());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->dataset(), "fleet");

  PtaRunStats stats;
  const auto served = session->Cut(Budget::Size(64), &stats);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(stats.engine, Engine::kIndexed);

  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  auto gms = GmsReduceToSize(*ita, 64);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  EXPECT_EQ(served->error, gms->error);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, EightConcurrentSessionsShareOneBuildByteIdentically) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());

  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  const size_t budgets[] = {32, 48, 64, 96, 128, 64, 48, 32};
  std::vector<Result<Reduction>> refs;
  for (const size_t c : budgets) {
    refs.push_back(GmsReduceToSize(*ita, c));
    ASSERT_TRUE(refs.back().ok());
  }

  const auto before = PtaIndexCacheGetStats();
  constexpr int kSessions = 8;
  std::vector<std::optional<Result<PtaResult>>> results(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&server, &results, &budgets, i] {
      auto session = server.OpenSession("fleet", FleetSpec());
      if (!session.ok()) {
        results[i].emplace(session.status());
        return;
      }
      results[i].emplace(session->Cut(Budget::Size(budgets[i])));
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].has_value());
    ASSERT_TRUE(results[i]->ok()) << (*results[i]).status().ToString();
    ExpectByteIdentical((**results[i]).relation, refs[i]->relation);
    EXPECT_EQ((**results[i]).error, refs[i]->error);
  }
  // All eight sessions share one fingerprint: exactly one index build,
  // every other request either coalesced onto it or hit the cache.
  const auto after = PtaIndexCacheGetStats();
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, ZoomLadderMatchesPerBudgetCuts) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("fleet", MakeFleet()).ok());
  auto session = server.OpenSession("fleet", FleetSpec());
  ASSERT_TRUE(session.ok());

  const std::vector<size_t> sizes = {32, 64, 256};  // fleet cmin is 22
  auto ladder = session->ZoomLadder(sizes);
  ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
  ASSERT_EQ(ladder->size(), sizes.size());

  const TemporalRelation fleet = MakeFleet();
  auto ita = Ita(fleet, FleetSpec());
  ASSERT_TRUE(ita.ok());
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto gms = GmsReduceToSize(*ita, sizes[i]);
    ASSERT_TRUE(gms.ok());
    ExpectByteIdentical((*ladder)[i].relation, gms->relation);
    EXPECT_EQ((*ladder)[i].error, gms->error);
  }
  PtaIndexCacheClear();
}

// ---- async requests, admission control, counters -----------------------

TEST(PtaServerTest, CutAsyncCompletesAndCounts) {
  PtaIndexCacheClear();
  ServeOptions options;
  options.num_threads = 2;
  PtaServer server(options);
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(5)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto pending = session->CutAsync(Budget::Size(16));
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  auto result = pending->get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto gms = GmsReduceToSize(MakeSequential(5), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(result->relation, gms->relation);

  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, AdmissionShedsWhenQueueIsFull) {
  PtaIndexCacheClear();
  ServeOptions options;
  options.num_threads = 1;
  options.max_pending = 1;
  PtaServer server(options);
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(9)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());

  // Park the only worker inside the index build so the first request stays
  // in flight for as long as the test needs.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  internal::SetIndexCacheBuildHook([gate](uint64_t) { gate.wait(); });

  auto first = session->CutAsync(Budget::Size(16));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session->CutAsync(Budget::Size(32));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  release.set_value();
  auto result = first->get();
  internal::SetIndexCacheBuildHook(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  PtaIndexCacheClear();
}

// ---- mutation: updates replace the owner, drop semantics ---------------

TEST(PtaServerTest, UpdateDatasetServesFreshBytes) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Cut(Budget::Size(16)).ok());  // index over v1 cached

  // A new owner: the index over the old data cannot answer for it.
  ASSERT_TRUE(server.UpdateDataset("seq", MakeSequential(3, 7.5)).ok());
  PtaRunStats stats;
  const auto served = session->Cut(Budget::Size(16), &stats);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(stats.indexed.cache_hit);  // the old index is unreachable
  auto gms = GmsReduceToSize(MakeSequential(3, 7.5), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  EXPECT_EQ(served->error, gms->error);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, UpdateDatasetLeavesOnlyTheNewIndexCached) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Cut(Budget::Size(16)).ok());
  ASSERT_TRUE(server.UpdateDataset("seq", MakeSequential(3, 7.5)).ok());
  ASSERT_TRUE(session->Cut(Budget::Size(16)).ok());

  // The old data's entry went with the update; the cut cached the new one.
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  auto fresh = PtaIndex::Build(MakeSequential(3, 7.5));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(PtaIndexCacheBytes(), fresh->MemoryFootprint());
  PtaIndexCacheClear();
}

TEST(PtaServerTest, UpdateDatasetFreesTheReplacedIndex) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Cut(Budget::Size(16)).ok());
  ASSERT_EQ(PtaIndexCacheSize(), 1u);
  ASSERT_TRUE(server.UpdateDataset("seq", MakeSequential(3, 7.5)).ok());

  // No cut since the update: the old index went with the old data, not
  // with some later miss.
  EXPECT_EQ(PtaIndexCacheSize(), 0u);
  EXPECT_EQ(PtaIndexCacheBytes(), 0u);
  PtaIndexCacheClear();
}

// A cut that copied generation 0 parks inside its cold build; an update
// publishes generation 1 meanwhile. Requests that start after the swap
// must be served from generation 1 without waiting for the parked cut,
// and the update must not return while a cut on generation 0 still runs.
// Every wait is bounded, so a server that queues new cuts behind the
// update fails here instead of hanging.
TEST(PtaServerTest, NewDataIsServedWhileUpdateWaitsForAParkedCut) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  // A second shape over the same dataset: its builds never coalesce with
  // the parked one, so it can poll for the swap.
  auto probe = server.OpenSession("seq", ItaSpec{}, {2.0});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(probe.ok());
  GreedyOptions probe_options;
  probe_options.weights = {2.0};
  auto old_gms = GmsReduceToSize(MakeSequential(3), 16);
  auto new_gms = GmsReduceToSize(MakeSequential(3, 7.5), 16);
  auto new_probe_gms =
      GmsReduceToSize(MakeSequential(3, 7.5), 16, probe_options);
  ASSERT_TRUE(old_gms.ok());
  ASSERT_TRUE(new_gms.ok());
  ASSERT_TRUE(new_probe_gms.ok());

  constexpr auto kBound = std::chrono::seconds(30);
  std::atomic<int> builds{0};
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  internal::SetIndexCacheBuildHook([&builds, &parked, gate](uint64_t) {
    if (builds.fetch_add(1) != 0) return;
    parked.set_value();
    gate.wait();
  });

  auto parked_cut = std::async(std::launch::async,
                               [&] { return session->Cut(Budget::Size(16)); });
  const bool is_parked =
      parked.get_future().wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(is_parked);
  auto update = std::async(std::launch::async, [&] {
    return server.UpdateDataset("seq", MakeSequential(3, 7.5));
  });
  auto swapped = std::async(std::launch::async, [&] {
    while (true) {
      auto cut = probe->Cut(Budget::Size(16));
      if (!cut.ok()) return false;
      if (cut->relation.BitwiseEquals(new_probe_gms->relation)) return true;
    }
  });
  const bool probe_done =
      is_parked && swapped.wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(probe_done) << "no request saw the new data within 30 s";
  // No ASSERT before the release below: returning early would leave the
  // parked cut, and with it this test, waiting for ever.
  std::future<Result<PtaResult>> fresh;
  if (probe_done && swapped.get()) {
    fresh = std::async(std::launch::async,
                       [&] { return session->Cut(Budget::Size(16)); });
    const bool fresh_done =
        fresh.wait_for(kBound) == std::future_status::ready;
    EXPECT_TRUE(fresh_done) << "the cut of the new data waited 30 s";
    if (fresh_done) {
      const auto served = fresh.get();
      EXPECT_TRUE(served.ok()) << served.status().ToString();
      if (served.ok()) {
        ExpectByteIdentical(served->relation, new_gms->relation);
        EXPECT_EQ(served->error, new_gms->error);
      }
    }
    // The cut on generation 0 is still parked, so the update must wait.
    EXPECT_NE(parked_cut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_NE(update.wait_for(std::chrono::milliseconds(50)),
              std::future_status::ready);
  }

  release.set_value();
  const auto old_cut = parked_cut.get();
  ASSERT_TRUE(old_cut.ok()) << old_cut.status().ToString();
  ExpectByteIdentical(old_cut->relation, old_gms->relation);
  EXPECT_EQ(old_cut->error, old_gms->error);
  EXPECT_TRUE(update.get().ok());
  internal::SetIndexCacheBuildHook(nullptr);
  // Generation 0's indexes (the parked build's and the probe's) went with
  // it; the two shapes over generation 1 remain.
  EXPECT_EQ(PtaIndexCacheSize(), 2u);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, PinFollowsTheDatasetAcrossUpdates) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();
  ServeOptions options;
  PtaIndexCacheConfig cache;
  cache.max_entries = 1;
  options.cache_config = cache;
  PtaServer server(options);
  ASSERT_TRUE(server.AddDataset("hot", MakeSequential(13)).ok());
  ASSERT_TRUE(server.AddDataset("cold", MakeSequential(17)).ok());
  ASSERT_TRUE(server.PinDataset("hot", true).ok());
  auto hot = server.OpenSession("hot", ItaSpec{});
  auto cold = server.OpenSession("cold", ItaSpec{});
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(hot->Cut(Budget::Size(16)).ok());

  ASSERT_TRUE(server.UpdateDataset("hot", MakeSequential(13, 2.0)).ok());
  ASSERT_TRUE(hot->Cut(Budget::Size(16)).ok());  // builds the new index
  for (const size_t c : {16, 24, 32}) {
    // Each cut on the other dataset would evict, but the new index is
    // pinned.
    ASSERT_TRUE(cold->Cut(Budget::Size(c)).ok());
  }
  PtaRunStats stats;
  const auto served = hot->Cut(Budget::Size(32), &stats);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(stats.indexed.cache_hit);
  auto gms = GmsReduceToSize(MakeSequential(13, 2.0), 32);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);

  ASSERT_TRUE(server.PinDataset("hot", false).ok());
  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

// ---- warm start ----------------------------------------------------------

TEST(PtaServerTest, WarmStartServesTheSavedIndexWithoutABuild) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(19)).ok());
  const std::string path = ::testing::TempDir() + "serve_test_warm.ptaindex";
  ASSERT_TRUE(server.SaveDataset("seq", path).ok());

  const auto before = PtaIndexCacheGetStats();
  auto warm = server.WarmStart("warm", path);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  PtaRunStats stats;
  const auto served = warm->Cut(Budget::Size(16), &stats);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(stats.indexed.cache_hit);
  EXPECT_EQ(PtaIndexCacheGetStats().builds, before.builds);
  auto gms = GmsReduceToSize(MakeSequential(19), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  EXPECT_EQ(served->error, gms->error);
  std::remove(path.c_str());
  PtaIndexCacheClear();
}

TEST(PtaServerTest, WarmStartOnATakenNameFailsAndSeedsNothing) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(23)).ok());
  const std::string path = ::testing::TempDir() + "serve_test_taken.ptaindex";
  ASSERT_TRUE(server.SaveDataset("seq", path).ok());
  const size_t entries = PtaIndexCacheSize();

  auto warm = server.WarmStart("seq", path);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PtaIndexCacheSize(), entries);
  EXPECT_EQ(server.stats().datasets, 1u);
  std::remove(path.c_str());
  PtaIndexCacheClear();
}

// The temporal/sequential kind check of UpdateDataset reads the dataset's
// data pointers, which an update swaps. It runs under the dataset's mutex,
// in the same critical section as the swap it guards. This hammers the
// interleaving: one thread publishing new data, one probing with the
// WRONG input kind, readers cutting snapshots throughout. TSan
// (scripts/ci.sh --tsan, label `serve`) would flag an unguarded read; the
// assertions pin the kind-check semantics.
TEST(PtaServerTest, WrongKindUpdatesFailWhileUpdatesAndCutsRun) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());

  constexpr int kSwaps = 50;
  std::atomic<bool> stop{false};
  std::thread updater([&] {
    for (int i = 0; i < kSwaps; ++i) {
      auto st = server.UpdateDataset("seq", MakeSequential(3, 1.0 + i));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    stop = true;
  });
  std::thread wrong_kind([&] {
    while (!stop) {
      // Must always fail InvalidArgument — never succeed, never race the
      // swap above.
      auto st = server.UpdateDataset("seq", MakeFleet());
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    }
  });
  std::thread reader([&] {
    while (!stop) {
      auto cut = session->Cut(Budget::Size(16));
      EXPECT_TRUE(cut.ok()) << cut.status().ToString();
    }
  });
  updater.join();
  wrong_kind.join();
  reader.join();

  // The last swap's contents are what the session serves.
  auto served = session->Cut(Budget::Size(16));
  ASSERT_TRUE(served.ok());
  auto gms = GmsReduceToSize(MakeSequential(3, 1.0 + (kSwaps - 1)), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  PtaIndexCacheClear();
}

// Cut results share the served data's group keys (one reference-counted
// vector), so dropping a result on a reader thread releases a reference
// the writer's swap may be releasing at the same moment. Readers cut and
// discard results while one thread updates a dataset and another
// adds and drops a second one; TSan (label `serve`) checks the sharing and
// the snapshot swap, and the final bytes must be the last swap's.
TEST(PtaServerTest, CutsDropResultsWhileUpdatesAndDropsRun) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(3)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());

  constexpr int kRounds = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> dropped_cuts{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop) {
        auto cut = session->Cut(Budget::Size(16 + 8 * t));
        ASSERT_TRUE(cut.ok()) << cut.status().ToString();
        EXPECT_EQ(cut->relation.group_keys().size(), 1u);
        auto ladder = session->ZoomLadder({8, 32, 64});
        ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
        dropped_cuts.fetch_add(1);
      }
    });
  }
  std::thread updater([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(
          server.UpdateDataset("seq", MakeSequential(3, 1.0 + i)).ok());
    }
  });
  std::thread dropper([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(server.AddDataset("tmp", MakeSequential(5 + i)).ok());
      auto tmp = server.OpenSession("tmp", ItaSpec{});
      ASSERT_TRUE(tmp.ok());
      std::optional<PtaResult> kept;
      auto cut = tmp->Cut(Budget::Size(16));
      ASSERT_TRUE(cut.ok());
      kept = std::move(*cut);
      ASSERT_TRUE(server.DropDataset("tmp").ok());
      // The result outlives its dataset's registration; its keys too.
      EXPECT_EQ(kept->relation.group_keys().size(), 1u);
    }
  });
  updater.join();
  dropper.join();
  while (dropped_cuts.load() < 3) std::this_thread::yield();
  stop = true;
  for (std::thread& reader : readers) reader.join();

  auto served = session->Cut(Budget::Size(16));
  ASSERT_TRUE(served.ok());
  auto gms = GmsReduceToSize(MakeSequential(3, 1.0 + (kRounds - 1)), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  EXPECT_EQ(served->relation.group_keys(), gms->relation.group_keys());
  PtaIndexCacheClear();
}

TEST(PtaServerTest, OpenSessionsSurviveDrop) {
  PtaIndexCacheClear();
  PtaServer server;
  ASSERT_TRUE(server.AddDataset("seq", MakeSequential(11)).ok());
  auto session = server.OpenSession("seq", ItaSpec{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(server.DropDataset("seq").ok());
  // The session holds shared ownership of the data; its cuts still work.
  const auto served = session->Cut(Budget::Size(16));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto gms = GmsReduceToSize(MakeSequential(11), 16);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(served->relation, gms->relation);
  PtaIndexCacheClear();
}

TEST(PtaServerTest, PinDatasetSurvivesCapacityPressure) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();
  ServeOptions options;
  PtaIndexCacheConfig cache;
  cache.max_entries = 1;
  options.cache_config = cache;
  PtaServer server(options);
  ASSERT_TRUE(server.AddDataset("hot", MakeSequential(13)).ok());
  ASSERT_TRUE(server.AddDataset("cold", MakeSequential(17)).ok());
  ASSERT_TRUE(server.PinDataset("hot", true).ok());

  auto hot = server.OpenSession("hot", ItaSpec{});
  auto cold = server.OpenSession("cold", ItaSpec{});
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(hot->Cut(Budget::Size(16)).ok());
  ASSERT_TRUE(cold->Cut(Budget::Size(16)).ok());  // would evict, but hot is pinned
  PtaRunStats stats;
  ASSERT_TRUE(hot->Cut(Budget::Size(32), &stats).ok());
  EXPECT_TRUE(stats.indexed.cache_hit);

  ASSERT_TRUE(server.PinDataset("hot", false).ok());
  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

}  // namespace
}  // namespace pta
