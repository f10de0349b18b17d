#include "serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "pta/plan.h"

namespace pipebench {
namespace {

using namespace pta;
using Clock = std::chrono::steady_clock;

// One op in kLadderEvery of a serving client is a zoom ladder.
constexpr size_t kLadderEvery = 8;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one client thread measured; merged after the join.
struct ClientLog {
  std::vector<double> warm_cut_s;
  std::vector<double> cold_cut_s;
  std::vector<double> ladder_s;
  std::vector<double> wait_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First served cut at each oracle budget, per generation; compared with
  /// the oracle after the window closes, outside the timed region.
  std::vector<std::optional<PtaResult>> kept[2];
};

}  // namespace

ServeOptions MakeServeOptions(size_t threads) {
  ServeOptions options;
  options.num_threads = threads;
  PtaIndexCacheConfig cache;
  cache.max_entries = 16;
  cache.max_bytes = 0;
  options.cache_config = cache;
  return options;
}

ServeOutcome RunServing(PtaServer& server, const PtaSession& session,
                        const Prepared& prep,
                        const TemporalRelation* const gens[2],
                        const ServeConfig& config) {
  const size_t update_every = prep.def().update_every;
  const std::vector<size_t>& oracle_budgets = prep.oracle_budgets();
  const size_t lo = prep.serve_lo();
  const size_t hi = std::max(prep.serve_hi(), lo);
  const size_t clients = server.options().num_threads;

  std::atomic<uint64_t> updates_started{0};
  std::atomic<uint64_t> updates_done{0};
  std::atomic<uint64_t> warm_total{0};
  std::atomic<bool> clients_done{false};

  const PtaIndexCacheStats cache_before = PtaIndexCacheGetStats();
  const uint64_t shed_before = server.stats().shed;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const Clock::time_point hard_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(3.0 * config.seconds));

  std::vector<ClientLog> logs(clients);
  for (ClientLog& log : logs) {
    log.kept[0].resize(oracle_budgets.size());
    log.kept[1].resize(oracle_budgets.size());
  }

  auto client = [&](size_t id) {
    ClientLog& log = logs[id];
    std::mt19937_64 rng(config.seed * 1000003ULL + id);
    std::uniform_int_distribution<size_t> budget_dist(lo, hi);
    size_t ops = 0;
    size_t cuts = 0;
    while (true) {
      const Clock::time_point now = Clock::now();
      if (now >= hard_deadline) break;
      if (now >= deadline && warm_total.load() >= config.min_warm_cuts) break;
      ++ops;
      ++log.attempted;
      if (ops % kLadderEvery == 0) {
        std::vector<size_t> sizes;
        while (sizes.size() < 5) {
          sizes.push_back(budget_dist(rng));
          std::sort(sizes.begin(), sizes.end());
          sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
        }
        const Clock::time_point t0 = Clock::now();
        auto ladder = session.ZoomLadder(sizes);
        const Clock::time_point t1 = Clock::now();
        bool ok = ladder.ok() && ladder->size() == sizes.size();
        for (size_t i = 0; ok && i < sizes.size(); ++i) {
          ok = (*ladder)[i].relation.size() <= sizes[i];
        }
        if (!ok) {
          ++log.failed;
          continue;
        }
        log.ladder_s.push_back(SecondsBetween(t0, t1));
        continue;
      }
      // Every 16th cut asks an oracle budget, so the served answers of each
      // generation can be checked bitwise afterwards.
      const bool sampled = cuts % 16 == 0;
      const size_t which = (cuts / 16) % oracle_budgets.size();
      const size_t b = sampled ? oracle_budgets[which] : budget_dist(rng);
      ++cuts;
      const uint64_t done_before = updates_done.load();
      PtaRunStats stats;
      const Clock::time_point t0 = Clock::now();
      auto cut = session.Cut(Budget::Size(b), &stats);
      const Clock::time_point t1 = Clock::now();
      const uint64_t started_after = updates_started.load();
      if (!cut.ok() || cut->relation.size() > b) {
        ++log.failed;
        continue;
      }
      const double latency = SecondsBetween(t0, t1);
      if (stats.indexed.cache_hit) {
        log.warm_cut_s.push_back(latency);
        warm_total.fetch_add(1);
      } else {
        log.cold_cut_s.push_back(latency);
      }
      log.wait_s.push_back(std::max(
          0.0, latency - stats.indexed.build_seconds - stats.indexed.cut_seconds));
      // No update overlapped this cut: it was served by generation
      // live + done_before.
      if (sampled && started_after == done_before) {
        const int g = static_cast<int>(
            (static_cast<uint64_t>(config.live_generation) + done_before) % 2);
        if (!log.kept[g][which].has_value()) log.kept[g][which] = std::move(*cut);
      }
    }
  };

  // The data pipeline: after every `update_every` warm cuts it queues an
  // UpdateDataset that alternates the generations, then reads the new
  // generation back with one cut. Its next copy is made while it waits.
  ServeOutcome out;
  auto writer = [&] {
    auto generation_after = [&](uint64_t updates) {
      return static_cast<int>(
          (static_cast<uint64_t>(config.live_generation) + updates) % 2);
    };
    TemporalRelation next = *gens[generation_after(1)];
    uint64_t threshold = update_every;
    while (!clients_done.load() && Clock::now() < deadline) {
      if (warm_total.load() < threshold) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      updates_started.fetch_add(1);
      const Status status = server.UpdateDataset("data", std::move(next));
      updates_done.fetch_add(1);
      ++out.attempted;
      if (!status.ok()) {
        ++out.failed;
        return;
      }
      ++out.updates;
      auto cut = session.Cut(Budget::Size(prep.c()));
      const Clock::time_point t1 = Clock::now();
      ++out.attempted;
      if (!cut.ok() || cut->relation.size() > prep.c()) {
        ++out.failed;
        return;
      }
      out.update_to_cut_s.push_back(SecondsBetween(t0, t1));
      threshold = warm_total.load() + update_every;
      next = *gens[generation_after(out.updates + 1)];
    }
  };

  std::optional<std::thread> writer_thread;
  if (update_every > 0) writer_thread.emplace(writer);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients; ++i) threads.emplace_back(client, i);
  for (std::thread& t : threads) t.join();
  out.wall_s = SecondsBetween(start, Clock::now());
  clients_done.store(true);
  if (writer_thread.has_value()) writer_thread->join();

  const PtaIndexCacheStats cache_after = PtaIndexCacheGetStats();
  out.builds = cache_after.builds - cache_before.builds;
  out.coalesced = cache_after.coalesced - cache_before.coalesced;
  out.hits = cache_after.hits - cache_before.hits;
  out.misses = cache_after.misses - cache_before.misses;
  out.shed = server.stats().shed - shed_before;
  out.final_generation = static_cast<int>(
      (static_cast<uint64_t>(config.live_generation) + out.updates) % 2);

  for (ClientLog& log : logs) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.warm_cut_s, log.warm_cut_s);
    append(out.cold_cut_s, log.cold_cut_s);
    append(out.ladder_s, log.ladder_s);
    append(out.wait_s, log.wait_s);
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (int g = 0; g < 2; ++g) {
      for (size_t i = 0; i < oracle_budgets.size(); ++i) {
        if (!log.kept[g][i].has_value()) continue;
        ++out.sampled;
        ++out.attempted;
        if (!BitwiseEqual(log.kept[g][i]->relation, log.kept[g][i]->error,
                          prep.oracle(g, i))) {
          ++out.failed;
        }
      }
    }
  }
  return out;
}

double MeasureStarvedUpdate(PtaServer& server, const PtaSession& session,
                            const Prepared& prep, TemporalRelation next,
                            double seconds) {
  std::atomic<bool> stop{false};
  auto client = [&](size_t id) {
    std::mt19937_64 rng(prep.seed() * 7919ULL + id);
    std::uniform_int_distribution<size_t> budget(prep.serve_lo(),
                                                 prep.serve_hi());
    while (!stop.load()) (void)session.Cut(Budget::Size(budget(rng)));
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < server.options().num_threads; ++i) {
    threads.emplace_back(client, i);
  }
  // Let the clients reach their steady state, then queue the writer.
  std::this_thread::sleep_for(std::chrono::duration<double>(0.1 * seconds));
  const Clock::time_point t0 = Clock::now();
  double waited = -1.0;
  std::thread writer([&] {
    if (server.UpdateDataset("data", std::move(next)).ok()) {
      waited = SecondsBetween(t0, Clock::now());
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(0.9 * seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  writer.join();
  return waited;
}

}  // namespace pipebench
