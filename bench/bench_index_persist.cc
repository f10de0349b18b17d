// Durable-index persistence: load a saved PtaIndex vs rebuild it.
//
// Not a paper figure — this benchmarks the PR 8 on-disk format
// (pta/index_io.h) on the Table 1(d) synthetic base relation. The
// warm-start story is: pay ITA + one greedy build + SaveIndex at ingest
// time, then every later process answers any budget from the file alone.
// The rebuild leg is therefore exactly the plan cache's miss path
// (internal::IndexCacheGetOrBuild): Ita over the raw temporal relation,
// then PtaIndex::Build — the work a server restart re-runs per dataset
// when it cannot WarmStart from a saved file.
//
// Stdout is JSON Lines: one record per workload and a summary. Invariants
// enforced (non-zero exit on violation):
//   * LoadIndex from the saved file is >= 10x faster than rebuilding the
//     index from the raw relation (the warm-start gate): the median ratio
//     over alternating load/rebuild pairs (bench::TimePaired), so a burst
//     of host noise hits both sides of a pair;
//   * the loaded index is byte-identical to the saved one: re-serializing
//     it reproduces the file's bytes exactly, and every sampled size and
//     error cut matches the in-memory index bitwise (values and error
//     doubles compared with memcmp strength).
//
// Usage: bench_index_persist [--quick]   (also honors PTA_BENCH_SCALE)

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ita.h"
#include "datasets/synthetic.h"
#include "pta/index.h"
#include "pta/index_io.h"
#include "pta/pta.h"
#include "util/stopwatch.h"

namespace {

using namespace pta;

using bench::ExactlyEqual;

constexpr int kReps = 5;  // best-of, to damp scheduler noise

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    fn();
    const double seconds = watch.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

ItaSpec AvgAllSpec(size_t num_dims) {
  ItaSpec spec;
  spec.group_by = {"G"};
  for (size_t d = 1; d <= num_dims; ++d) {
    const std::string attr = "A" + std::to_string(d);
    spec.aggregates.push_back(Avg(attr, "Avg" + attr));
  }
  return spec;
}

struct WorkloadResult {
  std::string name;
  size_t raw_tuples = 0;
  size_t n = 0;
  size_t bytes = 0;
  double rebuild_seconds = 0.0;
  double serialize_seconds = 0.0;
  double deserialize_seconds = 0.0;
  double save_seconds = 0.0;
  double load_seconds = 0.0;
  double load_speedup = 0.0;  // median of paired rebuild / load ratios
  bool identical = true;
};

WorkloadResult RunWorkload(const char* name, const TemporalRelation& raw,
                           const ItaSpec& spec, const std::string& path) {
  WorkloadResult result;
  result.name = name;
  result.raw_tuples = raw.size();

  auto ita = Ita(raw, spec);
  PTA_CHECK_MSG(ita.ok(), ita.status().message().c_str());
  result.n = ita->size();
  auto built = PtaIndex::Build(std::move(*ita));
  PTA_CHECK_MSG(built.ok(), built.status().message().c_str());
  const PtaIndex& index = *built;

  const std::string bytes = SerializeIndex(index);
  result.bytes = bytes.size();
  result.serialize_seconds = BestOf([&] {
    const std::string encoded = SerializeIndex(index);
    PTA_CHECK(!encoded.empty());
  });
  result.deserialize_seconds = BestOf([&] {
    auto decoded = DeserializeIndex(bytes);
    PTA_CHECK(decoded.ok());
  });

  result.save_seconds = BestOf([&] {
    const Status saved = SaveIndex(index, path);
    PTA_CHECK_MSG(saved.ok(), saved.message().c_str());
  });
  // The load against the cold path a warm start avoids — the plan cache's
  // miss path: ITA over the raw relation, then the greedy build over its
  // output.
  const bench::PairedTiming paired = bench::TimePaired(
      [&] {
        auto loaded = LoadIndex(path);
        PTA_CHECK_MSG(loaded.ok(), loaded.status().message().c_str());
      },
      [&] {
        auto aggregated = Ita(raw, spec);
        PTA_CHECK(aggregated.ok());
        auto rebuilt = PtaIndex::Build(std::move(*aggregated));
        PTA_CHECK(rebuilt.ok());
      },
      kReps);
  result.load_seconds = paired.best_a;
  result.rebuild_seconds = paired.best_b;
  result.load_speedup = paired.median_ratio;

  // --- the regression gate: the reloaded index IS the saved one ---------
  auto loaded = LoadIndex(path);
  PTA_CHECK_MSG(loaded.ok(), loaded.status().message().c_str());
  result.identical = SerializeIndex(*loaded) == bytes;
  const size_t cmin = index.cmin();
  for (const size_t c : bench::SampleSizes(index.input_size(), cmin, 8)) {
    auto a = index.CutToSize(c);
    auto b = loaded->CutToSize(c);
    PTA_CHECK(a.ok() && b.ok());
    result.identical = result.identical &&
                       ExactlyEqual(a->relation, b->relation) &&
                       std::memcmp(&a->error, &b->error, sizeof(double)) == 0;
  }
  for (const double eps : {0.01, 0.1, 0.5}) {
    auto a = index.CutToError(eps);
    auto b = loaded->CutToError(eps);
    PTA_CHECK(a.ok() && b.ok());
    result.identical = result.identical &&
                       ExactlyEqual(a->relation, b->relation) &&
                       std::memcmp(&a->error, &b->error, sizeof(double)) == 0;
  }
  std::remove(path.c_str());
  return result;
}

void PrintRecord(const WorkloadResult& r) {
  std::printf(
      "{\"bench\": \"index_persist\", \"workload\": \"%s\", "
      "\"raw_tuples\": %zu, \"n\": %zu, \"bytes\": %zu, "
      "\"rebuild_seconds\": %.6f, \"serialize_seconds\": %.6f, "
      "\"deserialize_seconds\": %.6f, \"save_seconds\": %.6f, "
      "\"load_seconds\": %.6f, \"load_speedup\": %.1f, \"identical\": %s}\n",
      r.name.c_str(), r.raw_tuples, r.n, r.bytes, r.rebuild_seconds,
      r.serialize_seconds, r.deserialize_seconds, r.save_seconds,
      r.load_seconds, r.load_speedup, r.identical ? "true" : "false");
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

  // Table 1(d) shape: many concurrent validity intervals per timepoint
  // (dense employment-history-style data), so ITA condenses a large raw
  // relation onto a bounded time domain — the condensation is what makes
  // the cold path expensive relative to the saved artifact. p = 10 as in
  // Fig. 18.
  SyntheticOptions options;
  options.num_tuples = bench::Scaled(100000, /*minimum=*/4000);
  options.num_dims = 10;
  options.max_duration = 200;
  const ItaSpec spec = AvgAllSpec(options.num_dims);

  char path[128];
  std::snprintf(path, sizeof(path), "bench_index_persist.%d.ptaidx",
                static_cast<int>(getpid()));

  options.num_groups = 1;
  options.time_span = static_cast<int64_t>(options.num_tuples / 5);
  options.seed = 100 + options.num_tuples;
  const TemporalRelation raw_single = GenerateSyntheticRelation(options);
  // Grouped: the per-group time span shrinks with the group count so the
  // ITA output (bounded by groups x span) stays condensed instead of
  // splintering past the raw size.
  options.num_groups = 10;
  options.time_span = static_cast<int64_t>(options.num_tuples / 50);
  options.seed = 200 + options.num_tuples;
  const TemporalRelation raw_grouped = GenerateSyntheticRelation(options);

  const WorkloadResult a =
      RunWorkload("synthetic_single", raw_single, spec, path);
  const WorkloadResult b =
      RunWorkload("synthetic_grouped", raw_grouped, spec, path);
  PrintRecord(a);
  PrintRecord(b);

  const double worst_speedup =
      a.load_speedup < b.load_speedup ? a.load_speedup : b.load_speedup;
  const bool identical = a.identical && b.identical;
  const bool speedup_ok = worst_speedup >= 10.0;
  std::printf(
      "{\"bench\": \"index_persist\", \"summary\": true, "
      "\"worst_load_speedup\": %.1f, \"identical\": %s, "
      "\"speedup_ok\": %s}\n",
      worst_speedup, identical ? "true" : "false",
      speedup_ok ? "true" : "false");

  if (!identical) {
    std::fprintf(stderr, "FAIL: a reloaded index diverged from the saved one\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr, "FAIL: load speedup %.1fx is below 10x\n",
                 worst_speedup);
    return 1;
  }
  return 0;
}
