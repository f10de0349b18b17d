// The traced run: every call into a layer's public functions is wrapped in
// a span from here, so each per-layer number is the self time (or a count)
// of the module doing that work. Spans inside src/ are a later change;
// until then a layer is timed by calling its own entry point directly —
// Ita() for the sweep, GmsReduceToSize() for the heap, PtaIndex::Build()
// for the index, and so on — on the same data the end-to-end run uses.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>

#include "advisor/advisor.h"
#include "datasets/csv.h"
#include "modes.h"
#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/index.h"
#include "pta/index_io.h"
#include "pta/parallel.h"
#include "pta/query.h"
#include "ql/exec.h"
#include "serve/server.h"
#include "serving.h"
#include "stream/stream.h"
#include "util/stopwatch.h"

namespace pipebench {

using namespace pta;

namespace {

/// Sets metric `layer.name_s` to the median self time of the spans of that
/// name, and returns it.
double SetSelf(Report& report, const Tracer& tracer, const std::string& layer,
               const std::string& name) {
  const std::vector<double> v = tracer.SelfSeconds(layer, name);
  const double s = Median(v);
  report.Set(layer + "." + name + "_s", s, "s", v.size());
  return s;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

}  // namespace

void RunLayers(const WorkloadDef& def, const RunOptions& options,
               Report& report, Tracer& tracer) {
  PtaIndexCacheClear();
  Prepared prep(def, options.seed, options.scale);
  const size_t reps = def.trace_reps;
  ScopedSpan run(tracer, "bench", def.name);
  const int64_t root = run.id();

  TemporalRelation rel0 = prep.Generate(0);
  if (!prep.Analyze(rel0, prep.Generate(1), report)) return;
  prep.GuardShape(report);
  const SequentialRelation& ita = prep.ita();
  const size_t c = prep.c();

  // --- datasets: CSV read (etds_churn's ingest path; a round trip of the
  // same relation on the synthetic workloads) --------------------------
  {
    const std::string path = options.out_dir + "/" + def.name + "-" +
                             std::to_string(options.seed) + "-trace.csv";
    if (!report.Ok(WriteCsvFile(rel0, path), "write CSV")) return;
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "datasets", "csv_read", root);
      auto read = ReadCsvFile(path, rel0.schema());
      span.Bytes(FileBytes(path));
      if (report.Ok(read.status(), "ReadCsvFile")) {
        span.Rows(0, read->size());
        report.Ok(read->size() == rel0.size(), "CSV round trip keeps rows");
      }
    }
    std::remove(path.c_str());
    const double s = SetSelf(report, tracer, "datasets", "csv_read");
    report.Set("datasets.csv_rows_per_s",
               static_cast<double>(rel0.size()) / s, "rows/s", reps);
  }

  // --- core: the ITA sweep ---------------------------------------------
  {
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "core", "ita", root);
      auto out = Ita(rel0, def.spec);
      span.Rows(rel0.size(), out.ok() ? out->size() : 0);
      if (report.Ok(out.status(), "Ita")) {
        report.Ok(out->size() == ita.size(), "ITA is deterministic");
      }
    }
    const double s = SetSelf(report, tracer, "core", "ita");
    report.Set("core.ita_tuples_per_s", static_cast<double>(rel0.size()) / s,
               "rows/s", reps);
    report.Set("core.ita_segments", static_cast<double>(ita.size()), "count");
    report.Set("core.ita_groups", static_cast<double>(prep.groups()), "count");
  }

  // --- pta hand-off and plan ------------------------------------------
  {
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "pta", "drain", root);
      auto stream = ItaStream::Create(rel0, def.spec);
      size_t rows = 0;
      if (report.Ok(stream.status(), "ItaStream::Create")) {
        Segment seg;
        while ((*stream)->Next(&seg)) ++rows;
      }
      span.Rows(rel0.size(), rows);
      report.Ok(rows == ita.size(), "ItaStream drain matches batch ITA");
    }
    SetSelf(report, tracer, "pta", "drain");
    const PtaQuery query = prep.AdHocQuery(rel0);
    for (size_t r = 0; r < 50; ++r) {
      ScopedSpan span(tracer, "pta", "plan", root);
      auto plan = query.Plan();
      if (r == 0) report.Ok(plan.status(), "PtaQuery::Plan");
    }
    SetSelf(report, tracer, "pta", "plan");
  }

  // --- pta reducers: greedy, GMS, DP, parallel -------------------------
  // GmsReduceToSize of generation 0 at c: what every index cut must equal.
  const Reduction& gms_ref = prep.oracle(0, 0);
  {
    GreedyStats stats;
    for (size_t r = 0; r < reps; ++r) {
      RelationSegmentSource source(ita);
      ScopedSpan span(tracer, "pta", "greedy", root);
      auto out = GreedyReduceToSize(source, c, GreedyOptions{}, &stats);
      span.Rows(ita.size(), out.ok() ? out->relation.size() : 0);
      report.Ok(out.status(), "GreedyReduceToSize");
    }
    SetSelf(report, tracer, "pta", "greedy");
    report.Set("pta.greedy_max_heap", static_cast<double>(stats.max_heap_size),
               "count");
    report.Set("pta.greedy_early_merge_ratio",
               stats.merges == 0 ? 0.0
                                 : static_cast<double>(stats.early_merges) /
                                       static_cast<double>(stats.merges),
               "fraction");

    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "pta", "gms", root);
      auto out = GmsReduceToSize(ita, c);
      span.Rows(ita.size(), out.ok() ? out->relation.size() : 0);
      report.Ok(out.status(), "GmsReduceToSize");
    }
    SetSelf(report, tracer, "pta", "gms");

    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "pta", "dp", root);
      auto out = ReduceToSizeDp(prep.drill(), prep.drill_c());
      span.Rows(prep.drill().size(), out.ok() ? out->relation.size() : 0);
      report.Ok(out.status(), "ReduceToSizeDp on the drill-down");
    }
    SetSelf(report, tracer, "pta", "dp");
    report.Set("pta.dp_input", static_cast<double>(prep.drill().size()),
               "count");

    auto shard_of = GroupShardMap(ita.group_keys(), def.spec.group_by, {},
                                  options.threads);
    if (!report.Ok(shard_of.status(), "GroupShardMap")) return;
    RelationSegmentSource source(ita);
    auto shards = ShardedSegmentSource::Partition(source, options.threads,
                                                  *shard_of);
    if (!report.Ok(shards.status(), "ShardedSegmentSource::Partition")) return;
    size_t nonempty = 0;
    for (size_t s = 0; s < shards->num_shards(); ++s) {
      nonempty += shards->shard(s).empty() ? 0 : 1;
    }
    ParallelReduceOptions parallel;
    parallel.num_threads = options.threads;
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "pta", "parallel", root);
      auto out = ParallelReduceToSize(*shards, c, parallel);
      span.Rows(ita.size(), out.ok() ? out->relation.size() : 0);
      report.Ok(out.status(), "ParallelReduceToSize");
    }
    SetSelf(report, tracer, "pta", "parallel");
    report.Set("pta.parallel_shards", static_cast<double>(nonempty), "count");
  }

  // --- pta index: build, cuts, advisor ---------------------------------
  std::unique_ptr<PtaIndex> index;
  {
    for (size_t r = 0; r < reps; ++r) {
      SequentialRelation copy = ita;
      PtaIndexOptions one;
      one.num_threads = 1;
      ScopedSpan span(tracer, "pta", "index_build_1t", root);
      auto built = PtaIndex::Build(std::move(copy), one);
      report.Ok(built.status(), "PtaIndex::Build, 1 thread");
    }
    SetSelf(report, tracer, "pta", "index_build_1t");
    PtaIndexBuildStats stats;
    for (size_t r = 0; r < reps; ++r) {
      SequentialRelation copy = ita;
      PtaIndexOptions many;
      many.num_threads = options.threads;
      ScopedSpan span(tracer, "pta", "index_build", root);
      auto built = PtaIndex::Build(std::move(copy), many, &stats);
      if (report.Ok(built.status(), "PtaIndex::Build")) {
        index = std::make_unique<PtaIndex>(std::move(*built));
      }
    }
    SetSelf(report, tracer, "pta", "index_build");
    report.Set("pta.index_chunks", static_cast<double>(stats.chunks), "count");
    report.Set("pta.index_merges", static_cast<double>(stats.merges), "count");
    if (index == nullptr) return;
    report.Set("pta.index_bytes", static_cast<double>(index->MemoryFootprint()),
               "B");

    const size_t cut_reps = 5 * reps;
    for (size_t r = 0; r < cut_reps; ++r) {
      ScopedSpan span(tracer, "pta", "cut", root);
      auto cut = index->CutToSize(c);
      span.Rows(index->input_size(), cut.ok() ? cut->relation.size() : 0);
      if (report.Ok(cut.status(), "CutToSize") && r == 0) {
        report.Ok(BitwiseEqual(cut->relation, cut->error, gms_ref),
                  "CutToSize bitwise equal to GmsReduceToSize");
      }
    }
    SetSelf(report, tracer, "pta", "cut");
    for (size_t r = 0; r < cut_reps; ++r) {
      ScopedSpan span(tracer, "pta", "cut_error", root);
      auto cut = index->CutToError(0.05);
      span.Rows(index->input_size(), cut.ok() ? cut->relation.size() : 0);
      report.Ok(cut.status(), "CutToError");
    }
    SetSelf(report, tracer, "pta", "cut_error");
    std::vector<size_t> ladder;
    for (size_t i = 1; i <= 5; ++i) {
      ladder.push_back(prep.cmin() + (prep.serve_hi() - prep.cmin()) * i / 5);
    }
    for (size_t r = 0; r < cut_reps; ++r) {
      ScopedSpan span(tracer, "pta", "multi_cut", root);
      auto cuts = index->MultiBudgetCut(ladder);
      report.Ok(cuts.status(), "MultiBudgetCut");
    }
    SetSelf(report, tracer, "pta", "multi_cut");

    for (size_t r = 0; r < cut_reps; ++r) {
      ScopedSpan span(tracer, "advisor", "advise", root);
      auto advice = advisor::Advise(*index, advisor::AdvisorOptions::Knee());
      report.Ok(advice.status(), "advisor::Advise (knee)");
    }
    SetSelf(report, tracer, "advisor", "advise");
  }

  // --- persist: the index file format ----------------------------------
  {
    const std::string path = options.out_dir + "/" + def.name + "-" +
                             std::to_string(options.seed) + "-trace.ptaindex";
    std::string bytes;
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "persist", "serialize", root);
      bytes = SerializeIndex(*index);
      span.Bytes(bytes.size());
    }
    SetSelf(report, tracer, "persist", "serialize");
    report.Set("persist.bytes", static_cast<double>(bytes.size()), "B");
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "persist", "deserialize", root);
      auto loaded = DeserializeIndex(bytes);
      span.Bytes(bytes.size());
      report.Ok(loaded.status(), "DeserializeIndex");
    }
    SetSelf(report, tracer, "persist", "deserialize");
    bytes.clear();
    bytes.shrink_to_fit();
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "persist", "save", root);
      report.Ok(SaveIndex(*index, path), "SaveIndex");
      span.Bytes(FileBytes(path));
    }
    SetSelf(report, tracer, "persist", "save");
    for (size_t r = 0; r < reps; ++r) {
      ScopedSpan span(tracer, "persist", "load", root);
      auto loaded = LoadIndex(path);
      span.Bytes(FileBytes(path));
      if (report.Ok(loaded.status(), "LoadIndex") && r == 0) {
        auto a = loaded->CutToSize(c);
        report.Ok(a.ok() && BitwiseEqual(a->relation, a->error, gms_ref),
                  "loaded index cuts bitwise equal to the saved one");
      }
    }
    SetSelf(report, tracer, "persist", "load");
    std::remove(path.c_str());
  }
  index.reset();

  // --- stream: the online engine ---------------------------------------
  {
    const std::vector<SequentialRelation> chunks = prep.StreamChunks();
    StreamingStats stats;
    size_t emitted = 0;
    for (size_t r = 0; r < reps; ++r) {
      StreamingPtaEngine engine(ita.num_aggregates(), prep.StreamOptions());
      Status status = Status::Ok();
      emitted = 0;
      {
        ScopedSpan span(tracer, "stream", "ingest", root);
        for (const SequentialRelation& chunk : chunks) {
          status = engine.IngestChunk(chunk);
          if (!status.ok()) break;
          emitted += engine.TakeEmitted().size();
        }
        span.Rows(ita.size(), emitted);
      }
      if (!report.Ok(status, "IngestChunk")) continue;
      ScopedSpan span(tracer, "stream", "finalize", root);
      auto final_rows = engine.Finalize();
      span.Rows(engine.live_rows(), final_rows.ok() ? final_rows->size() : 0);
      report.Ok(final_rows.status(), "StreamingPtaEngine::Finalize");
      stats = engine.stats();
      report.Ok(stats.max_live_rows <= prep.StreamLiveBound(),
                "stream max_live_rows within budget + chunk + 1");
    }
    SetSelf(report, tracer, "stream", "ingest");
    SetSelf(report, tracer, "stream", "finalize");
    report.Set("stream.merges", static_cast<double>(stats.merges), "count");
    report.Set("stream.max_live_rows", static_cast<double>(stats.max_live_rows),
               "count");
    report.Set("stream.emitted_rows", static_cast<double>(emitted), "count");
  }

  // --- ql: parse and execute -------------------------------------------
  {
    ql::Catalog catalog;
    catalog.Register("data", &rel0);
    for (size_t r = 0; r < reps; ++r) {
      for (const std::string& text : prep.ql_texts()) {
        Result<ql::Query> parsed = Status::InvalidArgument("not parsed");
        {
          ScopedSpan span(tracer, "ql", "parse", root);
          parsed = ql::ParseQuery(text);
        }
        if (!report.Ok(parsed.status(), "ql::ParseQuery: " + text)) continue;
        ScopedSpan span(tracer, "ql", "execute", root);
        auto result = ql::Execute(*parsed, catalog);
        span.Rows(rel0.size(), result.ok() ? result->relation.size() : 0);
        report.Ok(result.status(), "ql::Execute: " + text);
      }
    }
    SetSelf(report, tracer, "ql", "parse");
    SetSelf(report, tracer, "ql", "execute");
  }
  PtaIndexCacheClear();

  // --- serve: uncontended cut, the contended window, updates ------------
  {
    const bool churn = def.update_every > 0;
    PtaServer server(MakeServeOptions(options.threads));
    TemporalRelation held[2];
    held[0] = std::move(rel0);
    if (churn) held[1] = prep.Generate(1);
    // Without churn nothing re-reads generation 0, so the server takes it.
    if (!report.Ok(server.AddDataset("data", churn ? TemporalRelation(held[0])
                                                   : std::move(held[0])),
                   "AddDataset")) {
      return;
    }
    auto opened = server.OpenSession("data", def.spec);
    if (!report.Ok(opened.status(), "OpenSession")) return;
    const PtaSession session = *opened;
    report.Ok(server.PinDataset("data", true), "PinDataset");
    {
      ScopedSpan span(tracer, "serve", "cold_cut", root);
      report.Ok(session.Cut(Budget::Size(c)).status(), "first served cut");
    }

    std::mt19937_64 rng(options.seed);
    std::uniform_int_distribution<size_t> budget(prep.serve_lo(),
                                                 prep.serve_hi());
    for (size_t r = 0; r < 100; ++r) {
      const size_t b = budget(rng);
      ScopedSpan span(tracer, "serve", "cut", root);
      auto cut = session.Cut(Budget::Size(b));
      span.Rows(0, cut.ok() ? cut->relation.size() : 0);
      report.Ok(cut.status(), "uncontended served cut");
    }
    SetSelf(report, tracer, "serve", "cut");

    ServeConfig config;
    config.seconds = options.seconds;
    config.seed = options.seed;
    const TemporalRelation* gens[2] = {&held[0], &held[1]};
    ServeOutcome out;
    {
      ScopedSpan span(tracer, "serve", "window", root);
      out = RunServing(server, session, prep, gens, config);
      span.Rows(0, out.warm_cut_s.size() + out.cold_cut_s.size());
    }
    report.AddCounts(out.attempted, out.failed, "serving operations");
    report.Ok(out.builds == out.updates,
              "serving: one build per dataset generation");
    report.Set("serve.cut_wait_ms", 1e3 * Mean(out.wait_s), "ms",
               out.wait_s.size());
    report.Set("serve.builds", static_cast<double>(out.builds), "count");
    report.Set("serve.coalesced", static_cast<double>(out.coalesced), "count");
    const double lookups =
        static_cast<double>(out.hits + out.misses + out.coalesced);
    report.Set("serve.cache_hit_ratio",
               lookups == 0.0 ? 0.0 : static_cast<double>(out.hits) / lookups,
               "fraction");
    report.Set("serve.shed", static_cast<double>(out.shed), "count");

    // UpdateDataset itself, outside the window: swap generations and
    // rebuild with one cut each time.
    const int start = out.final_generation;
    for (size_t r = 0; r < reps; ++r) {
      const int g = static_cast<int>((static_cast<size_t>(start) + r + 1) % 2);
      TemporalRelation next = churn ? held[g] : prep.Generate(g);
      {
        ScopedSpan span(tracer, "serve", "update", root);
        report.Ok(server.UpdateDataset("data", std::move(next)),
                  "UpdateDataset");
      }
      ScopedSpan span(tracer, "serve", "cold_cut", root);
      report.Ok(session.Cut(Budget::Size(c)).status(), "cut after update");
    }
    SetSelf(report, tracer, "serve", "update");

    // The same update queued behind back-to-back cuts: the wait a dataset
    // writer sees under read load.
    const int g = static_cast<int>((static_cast<size_t>(start) + reps + 1) % 2);
    const double starved = MeasureStarvedUpdate(
        server, session, prep, churn ? held[g] : prep.Generate(g),
        std::min(2.0, options.seconds));
    report.Ok(starved >= 0.0, "UpdateDataset under read load");
    report.Set("serve.update_starved_s", starved, "s");
  }
  PtaIndexCacheClear();

  // --- the traced ad-hoc query and the tracing overhead ----------------
  {
    const TemporalRelation rel = prep.Generate(0);
    const PtaQuery query = prep.AdHocQuery(rel);
    std::vector<double> plain;
    for (size_t r = 0; r < reps; ++r) {
      {
        Stopwatch watch;
        report.Ok(query.Run().status(), "ad-hoc query, untraced");
        plain.push_back(watch.ElapsedSeconds());
      }
      ScopedSpan span(tracer, "trace", "query", root);
      report.Ok(query.Run().status(), "ad-hoc query, traced");
    }
    const double traced = SetSelf(report, tracer, "trace", "query");
    report.Set("trace.overhead_ratio", traced / Median(plain), "ratio", reps);
  }
}

}  // namespace pipebench
