// Streaming engine throughput: rows/second of StreamingPtaEngine as a
// function of the ingest chunk size and the live-row budget, plus two
// watermark-mode runs measuring emission on unbounded-style feeds: one
// long single-group stream, and a time-major feed over many concurrently
// live groups, where each chunk settles only some of them, so per-group
// bookkeeping carries much of the cost.
//
// Not a paper figure — this benchmarks the repo's own online subsystem
// (docs/STREAMING.md). Stdout is JSON Lines so the records can be appended
// to a perf trajectory; the human-readable table goes to stderr. Two
// invariants are checked and reported in the summary record:
//   * with the watermark disabled, Finalize() is byte-identical to batch
//     GreedyReduceToSize on the same input;
//   * with an auto-watermark lag, peak live rows stay bounded by
//     budget + lag + the read-ahead overshoot, independent of stream length,
//     and by budget + chunk + 1 on the many-group feed.
//
// Usage: bench_stream_throughput [--quick]   (also honors PTA_BENCH_SCALE)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datasets/synthetic.h"
#include "pta/greedy.h"
#include "stream/stream.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

using namespace pta;

using bench::ExactlyEqual;

SequentialRelation Slice(const SequentialRelation& rel, size_t from,
                         size_t to) {
  SequentialRelation out(rel.num_aggregates());
  for (size_t i = from; i < to && i < rel.size(); ++i) {
    out.Append(rel.group(i), rel.interval(i), rel.values(i));
  }
  return out;
}

struct RunResult {
  double seconds = 0.0;
  StreamingStats stats;
  SequentialRelation final_rows;
  size_t emitted = 0;
};

// Streams `rel` chunk by chunk through a fresh engine; wall time covers
// ingestion, watermarking, emission draining, and the final drain.
RunResult RunOnce(const SequentialRelation& rel, size_t chunk_rows,
                  const StreamingOptions& options) {
  RunResult out;
  Stopwatch watch;
  StreamingPtaEngine engine(rel.num_aggregates(), options);
  for (size_t from = 0; from < rel.size(); from += chunk_rows) {
    PTA_CHECK(engine.IngestChunk(Slice(rel, from, from + chunk_rows)).ok());
    if (options.auto_watermark_lag >= 0) {
      out.emitted += engine.TakeEmitted().size();
    }
  }
  auto final_rows = engine.Finalize();
  PTA_CHECK(final_rows.ok());
  out.seconds = watch.ElapsedSeconds();
  out.stats = engine.stats();
  out.final_rows = std::move(*final_rows);
  return out;
}

// A time-major feed over `num_groups` groups that all stay live for the
// whole feed: each is a run of `rows_per_group` segments of 1-50 chronons
// (an occasional one-chronon hole splits it), starting within the first 50
// chronons. A 4096-row chunk spans about five chronons, so each watermark
// advance settles only the groups whose heads ended in that window.
SequentialRelation ManyGroupFeed(size_t num_groups, size_t rows_per_group,
                                 uint64_t seed) {
  Random rng(seed);
  std::vector<Segment> rows;
  rows.reserve(num_groups * rows_per_group);
  for (size_t g = 0; g < num_groups; ++g) {
    Chronon t = rng.UniformInt(0, 49);
    for (size_t k = 0; k < rows_per_group; ++k) {
      if (rng.Bernoulli(0.1)) ++t;
      const Chronon length = rng.UniformInt(1, 50);
      Segment seg;
      seg.group = static_cast<int32_t>(g);
      seg.t = Interval(t, t + length - 1);
      t += length;
      seg.values = {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
      rows.push_back(std::move(seg));
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.t.begin < b.t.begin;
                   });
  SequentialRelation feed(2);
  feed.Reserve(rows.size());
  for (const Segment& seg : rows) feed.Append(seg);
  return feed;
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
  std::fprintf(stderr,
               "bench_stream_throughput — online PTA engine "
               "(scale %.2f)\n",
               bench::ScaleFromEnv());

  // A many-group ITA-shaped input (the S2 shape of Table 1(d)); chunked
  // group-major slices mimic a replayed backlog.
  constexpr size_t kGroups = 64;
  constexpr size_t kDims = 2;
  const size_t per_group = bench::Scaled(4000, /*minimum=*/100);
  const SequentialRelation rel =
      GenerateSyntheticSequential(kGroups, per_group, kDims, /*seed=*/11);
  const size_t n = rel.size();

  TablePrinter table(
      {"Chunk", "Budget", "Wall [s]", "Rows/s", "MaxLive", "SSE"});
  for (size_t chunk_rows : {size_t{64}, size_t{1024}, size_t{16384}}) {
    for (size_t budget : {n / 100, n / 10}) {
      StreamingOptions options;
      options.size_budget = std::max<size_t>(budget, kGroups);
      // Best of two runs to damp allocator/scheduler noise.
      RunResult best;
      for (int rep = 0; rep < 2; ++rep) {
        RunResult run = RunOnce(rel, chunk_rows, options);
        if (rep == 0 || run.seconds < best.seconds) best = std::move(run);
      }
      const double throughput = static_cast<double>(n) / best.seconds;
      std::printf(
          "{\"bench\": \"stream_throughput\", \"rows\": %zu, "
          "\"chunk_rows\": %zu, \"budget\": %zu, \"watermark_lag\": -1, "
          "\"wall_seconds\": %.4f, \"rows_per_second\": %.0f, "
          "\"max_live_rows\": %zu, \"merges\": %zu, \"emitted_rows\": 0, "
          "\"sse\": %.6g}\n",
          n, chunk_rows, options.size_budget, best.seconds, throughput,
          best.stats.max_live_rows, best.stats.merges, best.stats.merge_sse);
      table.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(chunk_rows)),
                    TablePrinter::Fmt(static_cast<uint64_t>(options.size_budget)),
                    TablePrinter::Fmt(best.seconds, 3),
                    TablePrinter::Fmt(throughput, 0),
                    TablePrinter::Fmt(
                        static_cast<uint64_t>(best.stats.max_live_rows)),
                    TablePrinter::Fmt(best.stats.merge_sse, 1)});
    }
  }

  // Invariant 1: watermark off => byte-identical to batch gPTAc.
  bool identical_to_batch = false;
  {
    StreamingOptions options;
    options.size_budget = std::max<size_t>(kGroups, n / 20);
    RunResult streamed = RunOnce(rel, 1024, options);
    RelationSegmentSource src(rel);
    auto batch = GreedyReduceToSize(src, options.size_budget);
    PTA_CHECK(batch.ok());
    identical_to_batch = ExactlyEqual(streamed.final_rows, batch->relation);
  }

  // Invariant 2 + watermark-mode record: an auto-watermark lag bounds live
  // memory on a single long gap-free stream regardless of its length.
  bool watermark_bounded = false;
  size_t emitted_rows = 0;
  {
    const size_t ticks = bench::Scaled(200000, /*minimum=*/5000);
    const SequentialRelation feed =
        GenerateSyntheticSequential(1, ticks, kDims, /*seed=*/23);
    StreamingOptions options;
    options.size_budget = 512;
    options.delta = 0;  // eager merging: the tight c + 1 live bound
    options.auto_watermark_lag = 2048;
    RunResult run = RunOnce(feed, 4096, options);
    emitted_rows = run.emitted;
    watermark_bounded =
        run.stats.max_live_rows <= options.size_budget + 2048 + 4096 + 1;
    const double throughput = static_cast<double>(ticks) / run.seconds;
    std::printf(
        "{\"bench\": \"stream_throughput\", \"rows\": %zu, "
        "\"chunk_rows\": 4096, \"budget\": %zu, \"watermark_lag\": 2048, "
        "\"wall_seconds\": %.4f, \"rows_per_second\": %.0f, "
        "\"max_live_rows\": %zu, \"merges\": %zu, \"emitted_rows\": %zu, "
        "\"sse\": %.6g}\n",
        ticks, options.size_budget, run.seconds, throughput,
        run.stats.max_live_rows, run.stats.merges, run.emitted,
        run.stats.merge_sse);
  }

  // Invariant 3 + many-group record: a time-major feed over 20,000 live
  // groups. Each chunk settles or emits only some of the groups the engine
  // holds; live rows stay within budget + chunk + 1. The budget exceeds
  // the group count, since every group keeps at least its tail live.
  bool many_group_bounded = false;
  {
    constexpr size_t kManyGroups = 20000;
    constexpr size_t kChunk = 4096;
    const SequentialRelation feed = ManyGroupFeed(
        kManyGroups, bench::Scaled(20, /*minimum=*/4), /*seed=*/31);
    StreamingOptions options;
    options.size_budget = 24576;
    options.auto_watermark_lag = 8;
    RunResult run = RunOnce(feed, kChunk, options);
    many_group_bounded =
        run.stats.max_live_rows <= options.size_budget + kChunk + 1 &&
        run.emitted > 0;
    const double throughput =
        static_cast<double>(feed.size()) / run.seconds;
    std::printf(
        "{\"bench\": \"stream_throughput\", \"rows\": %zu, "
        "\"groups\": %zu, \"chunk_rows\": %zu, \"budget\": %zu, "
        "\"watermark_lag\": %lld, \"wall_seconds\": %.4f, "
        "\"rows_per_second\": %.0f, \"max_live_rows\": %zu, "
        "\"merges\": %zu, \"emitted_rows\": %zu, \"sse\": %.6g}\n",
        feed.size(), kManyGroups, kChunk, options.size_budget,
        static_cast<long long>(options.auto_watermark_lag), run.seconds,
        throughput, run.stats.max_live_rows, run.stats.merges, run.emitted,
        run.stats.merge_sse);
  }

  std::printf(
      "{\"bench\": \"stream_throughput_summary\", \"rows\": %zu, "
      "\"identical_to_batch\": %s, \"watermark_bounded_memory\": %s, "
      "\"many_group_bounded_memory\": %s, \"emitted_rows\": %zu}\n",
      n, identical_to_batch ? "true" : "false",
      watermark_bounded ? "true" : "false",
      many_group_bounded ? "true" : "false", emitted_rows);

  std::fputs(table.ToString().c_str(), stderr);
  std::fprintf(stderr,
               "\nexpected shape: throughput rises with chunk size "
               "(amortized per-chunk overhead)\nand falls slightly with "
               "tighter budgets (more merges per row).\n");
  if (!identical_to_batch || !watermark_bounded || !many_group_bounded) {
    std::fprintf(stderr, "FAILED: streaming invariants violated\n");
    return 1;
  }
  return 0;
}
