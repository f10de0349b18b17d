// The untraced run: what each of the three user kinds waits on.
//
//   analyst    setup_s, query_s, ql_s
//   dashboard  cold_cut_s, cut_p50_ms, cut_p99_ms, cut_qps, ladder_ms,
//              warm_start_s
//   live feed  ingest_rows_per_s
//   all        index_bytes_per_segment, peak_rss_mb, ok_rate
//
// The run is a sequence of rounds; each round sets the dataset up afresh
// (alternating the two generations), runs every phase once and serves for
// its share of --seconds. The host this benchmark was tuned on alternates
// between quiet and contended states for seconds at a time (one query
// measured 0.30 s quiet and 0.44 s contended, in streaks of 5-10 s), so a
// phase timed a few times in a row lands in either state. Each phase that
// runs once per round therefore reports its best round, the quiet-state
// cost, which repeats. The serving metrics and cold_cut_s have hundreds or
// dozens of samples spread over the run and report statistics over all of
// them: medians, the p99 and the overall throughput. Every correctness
// gate runs outside the timed regions.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "datasets/csv.h"
#include "modes.h"
#include "pta/query.h"
#include "ql/exec.h"
#include "serve/server.h"
#include "serving.h"
#include "stream/stream.h"
#include "util/stopwatch.h"

namespace pipebench {

using namespace pta;

namespace {

/// Returns the memory the preparation freed to the kernel and restarts the
/// process's peak resident set from the current one, so the peak covers
/// the measured phases rather than the oracles and the second ITA.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

/// The peak resident set since ResetPeakRss, in MB (VmHWM); 0 when
/// /proc/self/status has no such line.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Per-round values of the once-per-round phases, and every sample of the
/// serving windows and cold cuts.
struct Rounds {
  std::vector<double> setup_s;
  std::vector<double> query_s;
  std::vector<double> ql_s;  // median over the workload's texts
  std::vector<double> warm_start_s;
  std::vector<double> ingest_rows_per_s;
  std::vector<double> cold_cut_s;
  std::vector<double> warm_cut_s;
  std::vector<double> ladder_s;
  double serve_wall_s = 0.0;
};

}  // namespace

void RunEndToEnd(const WorkloadDef& def, const RunOptions& options,
                 Report& report) {
  PtaIndexCacheClear();
  Prepared prep(def, options.seed, options.scale);
  const bool churn = def.update_every > 0;
  const std::string stem = options.out_dir + "/" + def.name + "-" +
                           std::to_string(options.seed);

  // --- preparation (untimed): data, shape, oracles, files -----------------
  // rel0 serves the ad-hoc and PTA-QL queries; under churn the writer also
  // copies both generations from here.
  TemporalRelation rel0 = prep.Generate(0);
  TemporalRelation rel1;
  const std::string csv_path[2] = {stem + "-gen0.csv", stem + "-gen1.csv"};
  {
    TemporalRelation gen1 = prep.Generate(1);
    if (!prep.Analyze(rel0, gen1, report)) return;
    if (def.reads_csv) {
      if (!report.Ok(WriteCsvFile(rel0, csv_path[0]), "write CSV") ||
          !report.Ok(WriteCsvFile(gen1, csv_path[1]), "write CSV")) {
        return;
      }
    }
    if (churn) rel1 = std::move(gen1);
  }
  prep.GuardShape(report);
  const TemporalRelation* gens[2] = {&rel0, &rel1};
  report.Ok(ResetPeakRss(), "reset the peak resident set after preparation");
  const std::string index_path = stem + ".ptaindex";
  int saved_generation = -1;

  Rounds rounds;
  uint64_t query_digest = 0;
  std::map<size_t, uint64_t> ql_digest;
  for (size_t r = 0; r < def.rounds; ++r) {
    const int g = static_cast<int>(r % 2);

    // setup_s: load generation g, register it, open a session.
    std::unique_ptr<PtaServer> server;
    PtaSession session;
    {
      Stopwatch watch;
      Result<TemporalRelation> data =
          def.reads_csv ? ReadCsvFile(csv_path[g], prep.schema())
                        : Result<TemporalRelation>(prep.Generate(g));
      if (!report.Ok(data.status(), "load the data")) return;
      server = std::make_unique<PtaServer>(MakeServeOptions(options.threads));
      if (!report.Ok(server->AddDataset("data", std::move(*data)),
                     "AddDataset")) {
        return;
      }
      auto opened = server->OpenSession("data", def.spec);
      if (!report.Ok(opened.status(), "OpenSession")) return;
      session = *opened;
      rounds.setup_s.push_back(watch.ElapsedSeconds());
    }
    if (!report.Ok(server->PinDataset("data", true), "PinDataset")) return;

    // query_s: the ad-hoc PtaQuery over generation 0.
    {
      const PtaQuery query = prep.AdHocQuery(rel0);
      Stopwatch watch;
      auto result = query.Run();
      rounds.query_s.push_back(watch.ElapsedSeconds());
      if (report.Ok(result.status(), "ad-hoc query")) {
        const uint64_t digest = Digest(result->relation, result->error);
        if (r == 0) query_digest = digest;
        report.Ok(digest == query_digest && result->relation.size() <= prep.c(),
                  "ad-hoc query digest identical across repeats");
      }
    }

    // ql_s: every PTA-QL text once; the round's value is their median.
    {
      ql::Catalog catalog;
      catalog.Register("data", &rel0);
      std::vector<double> times;
      for (size_t t = 0; t < prep.ql_texts().size(); ++t) {
        const std::string& text = prep.ql_texts()[t];
        Stopwatch watch;
        auto result = ql::ParseAndExecute(text, catalog);
        times.push_back(watch.ElapsedSeconds());
        if (!report.Ok(result.status(), "PTA-QL: " + text)) continue;
        const uint64_t digest = Digest(result->relation, result->stats.error);
        if (r == 0) ql_digest[t] = digest;
        report.Ok(digest == ql_digest[t],
                  "PTA-QL digest identical across repeats: " + text);
      }
      rounds.ql_s.push_back(Median(times));
    }
    // PTA-QL's BUDGET AUTO leaves an index of its own in the process-wide
    // cache; drop it so the serving phases see only the served dataset.
    PtaIndexCacheClear();

    // cold_cut_s: the first cut after AddDataset builds the index; the
    // serving window adds one sample per UpdateDataset.
    {
      const PtaIndexCacheStats before = PtaIndexCacheGetStats();
      PtaRunStats stats;
      Stopwatch watch;
      auto cut = session.Cut(Budget::Size(prep.c()), &stats);
      rounds.cold_cut_s.push_back(watch.ElapsedSeconds());
      if (report.Ok(cut.status(), "cold cut")) {
        report.Ok(!stats.indexed.cache_hit, "cold cut missed the cache");
        report.Ok(BitwiseEqual(cut->relation, cut->error, prep.oracle(g, 0)),
                  "cold cut of generation " + std::to_string(g) +
                      " bitwise equal to GmsReduceToSize");
      }
      report.Ok(PtaIndexCacheGetStats().builds - before.builds == 1,
                "one index build for the new dataset");
      if (r == 0) {
        report.Ok(PtaIndexCacheSize() == 1,
                  "cache holds exactly the served index");
        report.Set("index_bytes_per_segment",
                   static_cast<double>(PtaIndexCacheBytes()) /
                       static_cast<double>(prep.ita().size()),
                   "B");
      }
    }

    // The serving window's share of this round.
    int live = g;
    {
      ServeConfig config;
      config.seconds = options.seconds / static_cast<double>(def.rounds);
      config.min_warm_cuts = (1000 + def.rounds - 1) / def.rounds;
      config.seed = options.seed * 131 + r;
      config.live_generation = g;
      const ServeOutcome out = RunServing(*server, session, prep, gens, config);
      report.AddCounts(out.attempted, out.failed, "serving operations");
      report.Ok(out.builds == out.updates,
                "serving: one build per dataset generation (" +
                    std::to_string(out.builds) + " builds, " +
                    std::to_string(out.updates) + " updates)");
      report.Ok(out.sampled > 0, "serving: sampled cuts were checked");
      auto append = [](std::vector<double>& to,
                       const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(rounds.warm_cut_s, out.warm_cut_s);
      append(rounds.ladder_s, out.ladder_s);
      append(rounds.cold_cut_s, out.update_to_cut_s);
      rounds.serve_wall_s += out.wall_s;
      live = out.final_generation;
    }

    // warm_start_s: WarmStart from the file SaveDataset wrote (in the
    // first round), plus the first cut.
    if (saved_generation < 0) {
      if (!report.Ok(server->SaveDataset("data", index_path, def.spec),
                     "SaveDataset")) {
        return;
      }
      saved_generation = live;
    }
    {
      const std::string name = "warm" + std::to_string(r);
      Stopwatch watch;
      auto warm = server->WarmStart(name, index_path);
      Result<PtaResult> cut = warm.ok() ? warm->Cut(Budget::Size(prep.c()))
                                        : Result<PtaResult>(warm.status());
      rounds.warm_start_s.push_back(watch.ElapsedSeconds());
      if (report.Ok(cut.status(), "WarmStart and first cut")) {
        // The saved index's own cut equals GMS on its generation (checked
        // by the cold cuts), so GMS stands in for it here.
        report.Ok(BitwiseEqual(cut->relation, cut->error,
                               prep.oracle(saved_generation, 0)),
                  "WarmStart cut bitwise equal to the saved index's cut");
      }
      if (warm.ok()) report.Ok(server->DropDataset(name), "DropDataset");
    }
    server.reset();

    // ingest_rows_per_s: the live feed through the online engine. The
    // chunks exist only for this phase.
    {
      const std::vector<SequentialRelation> chunks = prep.StreamChunks();
      Stopwatch watch;
      StreamingPtaEngine engine(prep.ita().num_aggregates(),
                                prep.StreamOptions());
      Status status = Status::Ok();
      size_t emitted = 0;
      for (const SequentialRelation& chunk : chunks) {
        status = engine.IngestChunk(chunk);
        if (!status.ok()) break;
        emitted += engine.TakeEmitted().size();
      }
      Result<SequentialRelation> final_rows =
          status.ok() ? engine.Finalize() : Result<SequentialRelation>(status);
      const double seconds = watch.ElapsedSeconds();
      if (report.Ok(final_rows.status(), "stream ingest")) {
        rounds.ingest_rows_per_s.push_back(
            static_cast<double>(prep.ita().size()) / seconds);
        report.Ok(engine.stats().max_live_rows <= prep.StreamLiveBound(),
                  "stream max_live_rows " +
                      std::to_string(engine.stats().max_live_rows) +
                      " <= budget + chunk + 1 = " +
                      std::to_string(prep.StreamLiveBound()));
        report.Ok(engine.stats().ingested == prep.ita().size() &&
                      emitted > 0 && engine.stats().merges > 0,
                  "stream ingested every row, merged, and emitted under the "
                  "watermark");
      }
    }
  }
  std::remove(index_path.c_str());
  if (def.reads_csv) {
    std::remove(csv_path[0].c_str());
    std::remove(csv_path[1].c_str());
  }

  const size_t n = def.rounds;
  const size_t warm = rounds.warm_cut_s.size();
  report.Ok(warm >= 1000, "serving: at least 1000 warm cuts (" +
                              std::to_string(warm) + ")");
  report.Set("setup_s", Min(rounds.setup_s), "s", n);
  report.Set("query_s", Min(rounds.query_s), "s", n);
  report.Set("ql_s", Min(rounds.ql_s), "s", n * prep.ql_texts().size());
  report.Set("cold_cut_s", Median(rounds.cold_cut_s), "s",
             rounds.cold_cut_s.size());
  report.Set("cut_p50_ms", 1e3 * Median(rounds.warm_cut_s), "ms", warm);
  report.Set("cut_p99_ms", 1e3 * Percentile(rounds.warm_cut_s, 0.99), "ms",
             warm);
  report.Set("cut_qps", static_cast<double>(warm) / rounds.serve_wall_s, "1/s",
             warm);
  report.Set("ladder_ms", 1e3 * Median(rounds.ladder_s), "ms",
             rounds.ladder_s.size());
  report.Set("warm_start_s", Min(rounds.warm_start_s), "s", n);
  report.Set("ingest_rows_per_s", Max(rounds.ingest_rows_per_s), "rows/s", n);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace pipebench
