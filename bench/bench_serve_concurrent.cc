// Concurrent serving throughput and latency of the src/serve/ layer.
//
// Not a paper figure — this benchmarks the PR 6 serving subsystem on the
// paper's dashboard workload: thousands of synthetic sessions against one
// shared dataset, every session re-budgeting the same query shape, all
// answered from one cached PtaIndex. Reported: p50/p99 per-cut latency
// under contention, aggregate QPS, and the one-time index build cost.
//
// Stdout is JSON Lines: one record per run and a summary. Invariants
// enforced (non-zero exit on violation):
//   * every concurrently served cut is byte-identical to a
//     single-threaded GmsReduceToSize run at the same budget — for both
//     dataset generations;
//   * exactly ONE index build per fingerprint per generation: the first
//     request builds, every other session coalesces or hits the cache,
//     and an UpdateDataset (a new owner) costs exactly one rebuild;
//   * the p50 served-cut latency beats one full greedy recompute — the
//     cache must make re-budgeting cheaper than the status quo even with
//     every worker hammering it at once;
//   * an UpdateDataset queued while every worker cuts back to back gets
//     in about as fast as an uncontended one (bound and slack below): the
//     dataset lock prefers writers, so readers cannot starve them.
//
// Usage: bench_serve_concurrent [--quick]   (also honors PTA_BENCH_SCALE)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datasets/synthetic.h"
#include "pta/greedy.h"
#include "serve/server.h"
#include "util/stopwatch.h"

namespace {

using namespace pta;

// Updates timed per phase; each phase reports its median. The loaded
// median must stay within kLoadedUpdateBound times the uncontended one plus
// kUpdateSlackSeconds. The slack covers the cuts already running when the
// writer queues and the wake-ups of 8+ threads on a shared host, so the
// gate separates a writer that gets in from a starved one, not fast from
// slow. On a 4-vCPU VM whose host took 40% of its CPU time, loaded medians
// measured 0.2 ms-0.25 s at --quick and 4-52 ms at the default scale, with
// uncontended updates of 2-14 us; a reader-preferring lock did not let one
// update in within 120 s.
constexpr int kUpdateReps = 7;
constexpr double kLoadedUpdateBound = 2.0;
constexpr double kUpdateSlackSeconds = 1.0;
constexpr double kLoadedTimeoutSeconds = 30.0;

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[idx < sorted.size() ? idx : sorted.size() - 1];
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      setenv("PTA_BENCH_SCALE", "0.05", /*overwrite=*/0);
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  const size_t groups = 50;
  const size_t per_group = bench::Scaled(20000, /*minimum=*/2000) / groups;
  const size_t num_sessions = bench::Scaled(4000, /*minimum=*/256);
  const size_t hw = std::thread::hardware_concurrency();
  const size_t num_threads = hw < 8 ? 8 : hw;  // always 8+ concurrent clients

  const SequentialRelation gen1 =
      GenerateSyntheticSequential(groups, per_group, 4, 1300 + per_group);
  const SequentialRelation gen2 =
      GenerateSyntheticSequential(groups, per_group, 4, 2600 + per_group);
  const size_t n = gen1.size();
  const size_t cmin = gen1.CMin();
  const std::vector<size_t> budgets = bench::SampleSizes(n, cmin, 8);

  // Single-threaded references: the byte-identity oracle per budget, and
  // the status-quo cost of answering one budget by full greedy recompute.
  std::vector<Reduction> refs;
  for (const size_t c : budgets) {
    auto gms = GmsReduceToSize(gen1, c);
    PTA_CHECK_MSG(gms.ok(), gms.status().message().c_str());
    refs.push_back(std::move(*gms));
  }
  Stopwatch greedy_watch;
  {
    auto gms = GmsReduceToSize(gen1, budgets[0]);
    PTA_CHECK(gms.ok());
  }
  const double greedy_recompute_seconds = greedy_watch.ElapsedSeconds();

  PtaIndexCacheClear();
  PtaServer server;
  PTA_CHECK(server.AddDataset("fleet", gen1).ok());
  PTA_CHECK(server.PinDataset("fleet", true).ok());

  std::vector<PtaSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    auto session = server.OpenSession("fleet", ItaSpec{});
    PTA_CHECK_MSG(session.ok(), session.status().message().c_str());
    sessions.push_back(std::move(*session));
  }

  // --- generation 1: first cut builds, everything after is a cut --------
  const auto before = PtaIndexCacheGetStats();
  PtaRunStats warm_stats;
  {
    auto warm = sessions[0].Cut(Budget::Size(budgets[0]), &warm_stats);
    PTA_CHECK_MSG(warm.ok(), warm.status().message().c_str());
  }
  const uint64_t builds_gen1 = PtaIndexCacheGetStats().builds - before.builds;
  const double build_seconds = warm_stats.indexed.build_seconds;

  std::atomic<size_t> next{0};
  std::atomic<bool> identical{true};
  std::vector<double> latencies(num_sessions, 0.0);
  std::vector<std::thread> workers;
  Stopwatch wall;
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= num_sessions) return;
        const size_t b = i % budgets.size();
        Stopwatch cut_watch;
        auto served = sessions[i].Cut(Budget::Size(budgets[b]));
        latencies[i] = cut_watch.ElapsedSeconds();
        if (!served.ok() ||
            !bench::ExactlyEqual(served->relation, refs[b].relation) ||
            served->error != refs[b].error) {
          identical.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_seconds = wall.ElapsedSeconds();
  const uint64_t builds_after_sweep =
      PtaIndexCacheGetStats().builds - before.builds;

  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(num_sessions) / wall_seconds
                         : 0.0;

  // --- generation 2: one update, exactly one rebuild --------------------
  PTA_CHECK(server.UpdateDataset("fleet", gen2).ok());
  const auto mid = PtaIndexCacheGetStats();
  bool gen2_identical = true;
  {
    auto served = sessions[0].Cut(Budget::Size(budgets[0]));
    auto gms = GmsReduceToSize(gen2, budgets[0]);
    PTA_CHECK(served.ok() && gms.ok());
    gen2_identical = bench::ExactlyEqual(served->relation, gms->relation) &&
                     served->error == gms->error;
    auto again = sessions[1].Cut(Budget::Size(budgets[1]));
    PTA_CHECK(again.ok());
  }
  const uint64_t builds_gen2 = PtaIndexCacheGetStats().builds - mid.builds;

  // --- an update under read load --------------------------------------
  // The same UpdateDataset, timed first with no reader and then while
  // every worker cuts back to back. Each update is followed by one cut
  // that waits out the rebuild, so no sample queues behind an index build.
  // A writer-preferring dataset lock lets the loaded update in after the
  // cuts already running; a reader-preferring one waits for a gap in the
  // stream of cuts.
  const auto time_updates = [&](size_t generation) {
    std::vector<double> seconds;
    for (int r = 0; r < kUpdateReps; ++r) {
      SequentialRelation next = (generation++ % 2 == 0) ? gen1 : gen2;
      Stopwatch update_watch;
      PTA_CHECK(server.UpdateDataset("fleet", std::move(next)).ok());
      seconds.push_back(update_watch.ElapsedSeconds());
      PTA_CHECK(sessions[0].Cut(Budget::Size(budgets[0])).ok());
    }
    std::sort(seconds.begin(), seconds.end());
    return Percentile(std::move(seconds), 0.5);
  };
  const double update_seconds = time_updates(0);
  std::atomic<bool> stop_load{false};
  std::atomic<size_t> loaded_cuts{0};
  workers.clear();
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; !stop_load.load(std::memory_order_relaxed);
           i += num_threads) {
        const size_t s = i % num_sessions;
        auto served = sessions[s].Cut(Budget::Size(budgets[s % budgets.size()]));
        if (!served.ok()) identical.store(false, std::memory_order_relaxed);
        loaded_cuts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (loaded_cuts.load() < 4 * num_threads) std::this_thread::yield();
  // A starved writer would wait for as long as the cuts go on: stop them
  // after a timeout and fail the gate instead of hanging.
  std::promise<double> loaded_done;
  std::future<double> loaded = loaded_done.get_future();
  std::thread writer(
      [&] { loaded_done.set_value(time_updates(kUpdateReps)); });
  const bool loaded_in_time =
      loaded.wait_for(std::chrono::duration<double>(kLoadedTimeoutSeconds)) ==
      std::future_status::ready;
  stop_load.store(true);
  for (auto& w : workers) w.join();
  writer.join();
  const double loaded_update_seconds =
      loaded_in_time ? loaded.get() : kLoadedTimeoutSeconds;

  const auto serve_stats = server.stats();
  const bool all_identical = identical.load() && gen2_identical;
  const bool builds_ok =
      builds_gen1 == 1 && builds_after_sweep == 1 && builds_gen2 == 1;
  const bool latency_ok = p50 <= greedy_recompute_seconds;
  const bool update_ok =
      loaded_update_seconds <=
      kLoadedUpdateBound * update_seconds + kUpdateSlackSeconds;

  std::printf(
      "{\"bench\": \"serve_concurrent\", \"n\": %zu, \"sessions\": %zu, "
      "\"threads\": %zu, \"budgets\": %zu, \"index_build_seconds\": %.6f, "
      "\"p50_cut_seconds\": %.6f, \"p99_cut_seconds\": %.6f, "
      "\"qps\": %.0f, \"greedy_recompute_seconds\": %.6f, "
      "\"update_seconds\": %.6f, \"loaded_update_seconds\": %.6f, "
      "\"builds_gen1\": %llu, \"builds_gen2\": %llu, \"shed\": %llu, "
      "\"identical\": %s}\n",
      n, num_sessions, num_threads, budgets.size(), build_seconds, p50, p99,
      qps, greedy_recompute_seconds, update_seconds, loaded_update_seconds,
      static_cast<unsigned long long>(builds_gen1),
      static_cast<unsigned long long>(builds_gen2),
      static_cast<unsigned long long>(serve_stats.shed),
      all_identical ? "true" : "false");
  std::printf(
      "{\"bench\": \"serve_concurrent\", \"summary\": true, "
      "\"identical\": %s, \"builds_ok\": %s, \"latency_ok\": %s, "
      "\"update_ok\": %s}\n",
      all_identical ? "true" : "false", builds_ok ? "true" : "false",
      latency_ok ? "true" : "false", update_ok ? "true" : "false");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: a concurrently served cut diverged from GMS\n");
    return 1;
  }
  if (!builds_ok) {
    std::fprintf(stderr,
                 "FAIL: expected exactly one build per generation "
                 "(gen1=%llu, after sweep=%llu, gen2=%llu)\n",
                 static_cast<unsigned long long>(builds_gen1),
                 static_cast<unsigned long long>(builds_after_sweep),
                 static_cast<unsigned long long>(builds_gen2));
    return 1;
  }
  if (!latency_ok) {
    std::fprintf(stderr,
                 "FAIL: p50 served cut %.6fs is slower than one greedy "
                 "recompute %.6fs\n",
                 p50, greedy_recompute_seconds);
    return 1;
  }
  if (!update_ok) {
    std::fprintf(stderr,
                 "FAIL: an update under read load took %.6fs, more than "
                 "%.0fx the uncontended %.6fs plus %.3fs\n",
                 loaded_update_seconds, kLoadedUpdateBound, update_seconds,
                 kUpdateSlackSeconds);
    return 1;
  }
  return 0;
}
