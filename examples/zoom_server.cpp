// zoom_server: a long-lived PtaServer answering many clients' zoom
// requests from one shared PtaIndex.
//
// The dashboard workload behind PR 5 and PR 6: chart widgets ask the same
// query again and again with only the budget changed (zooming in and out,
// or fitting different screen widths). This example runs the serving
// subsystem (src/serve/) end to end:
//
//   1. register a dataset once — the server owns the data as a shared
//      input, whose owner keys the index cache;
//   2. open sessions (one per widget) and cut at many budgets: the first
//      request builds the index, everything after is an O(k) cached cut —
//      including concurrent requests, which coalesce onto one build;
//   3. answer a whole zoom ladder with one MultiBudgetCut walk;
//   4. update the dataset: the server installs the data as a new owner,
//      so the next request rebuilds over the fresh data instead of
//      serving a stale dendrogram.

#include <cstdio>
#include <thread>
#include <vector>

#include "datasets/synthetic.h"
#include "serve/server.h"
#include "util/stopwatch.h"

using namespace pta;

namespace {

TemporalRelation MakeFleet(uint64_t seed) {
  // A synthetic fleet: 40k readings from 32 devices, two sensors each.
  SyntheticOptions synth;
  synth.num_tuples = 40000;
  synth.num_dims = 2;
  synth.num_groups = 32;
  synth.max_duration = 25;
  synth.time_span = 2000;  // dense coverage: cmin stays near the group count
  synth.seed = seed;
  return GenerateSyntheticRelation(synth);
}

}  // namespace

int main() {
  ServeOptions options;
  options.max_pending = 256;
  PtaServer server(options);
  PTA_CHECK(server.AddDataset("fleet", MakeFleet(7)).ok());
  PTA_CHECK(server.PinDataset("fleet", true).ok());  // hot set: never evict

  const ItaSpec spec{{"G"}, {Avg("A1", "Load"), Avg("A2", "Temp")}};
  auto session = server.OpenSession("fleet", spec);
  PTA_CHECK(session.ok());

  // First request: runs ITA, builds the merge tree, cuts.
  Stopwatch watch;
  auto first = session->Cut(Budget::Size(512));
  PTA_CHECK(first.ok());
  std::printf("first request  (builds the index): %7.2f ms -> %zu rows\n",
              1e3 * watch.ElapsedSeconds(), first->relation.size());

  // Zooming: every further budget is a cached O(k) cut — no ITA, no merge.
  for (const size_t budget : {2048u, 1024u, 256u, 128u, 64u}) {
    watch.Restart();
    PtaRunStats stats;
    auto zoomed = session->Cut(Budget::Size(budget), &stats);
    PTA_CHECK(zoomed.ok());
    std::printf("zoom to %5zu  (cache %s):          %7.2f ms -> %zu rows\n",
                budget, stats.indexed.cache_hit ? "hit " : "miss",
                1e3 * watch.ElapsedSeconds(), zoomed->relation.size());
  }
  // Error-bounded zoom rides the same index.
  auto coarse = session->Cut(Budget::RelativeError(0.05));
  PTA_CHECK(coarse.ok());
  std::printf("eps = 0.05 from the same index:            -> %zu rows\n\n",
              coarse->relation.size());

  // Eight concurrent widgets, each its own session: their misses coalesce
  // onto the one cached build, and async requests ride the worker pool.
  watch.Restart();
  std::vector<std::thread> widgets;
  for (int w = 0; w < 8; ++w) {
    widgets.emplace_back([&server, &spec, w] {
      auto widget = server.OpenSession("fleet", spec);
      PTA_CHECK(widget.ok());
      auto pending = widget->CutAsync(Budget::Size(128 << (w % 4)));
      PTA_CHECK(pending.ok());  // would be ResourceExhausted past max_pending
      PTA_CHECK(pending->get().ok());
    });
  }
  for (auto& w : widgets) w.join();
  const auto stats = server.stats();
  std::printf(
      "8 concurrent widgets:              %7.2f ms "
      "(admitted %llu, shed %llu)\n\n",
      1e3 * watch.ElapsedSeconds(),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.shed));

  // A whole zoom ladder in one walk, e.g. to prewarm a tile cache.
  watch.Restart();
  auto ladder = session->ZoomLadder({64, 128, 256, 512, 1024, 2048, 4096});
  PTA_CHECK(ladder.ok());
  std::printf("zoom ladder, 7 levels in one walk: %7.2f ms\n",
              1e3 * watch.ElapsedSeconds());
  for (const Reduction& level : *ladder) {
    std::printf("  %5zu rows, SSE %.4g\n", level.relation.size(), level.error);
  }

  // The fleet re-uploads: same name, new readings, a new owner — the old
  // index can never answer for it.
  PTA_CHECK(server.UpdateDataset("fleet", MakeFleet(8)).ok());
  watch.Restart();
  PtaRunStats fresh_stats;
  auto fresh = session->Cut(Budget::Size(512), &fresh_stats);
  PTA_CHECK(fresh.ok());
  std::printf("\nafter UpdateDataset (cache %s):    %7.2f ms -> %zu rows\n",
              fresh_stats.indexed.cache_hit ? "hit " : "miss",
              1e3 * watch.ElapsedSeconds(), fresh->relation.size());
  return 0;
}
