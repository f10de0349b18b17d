// pipebench — the repository's end-to-end and per-layer benchmark.
//
// Usage:
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--out <dir>] [--commit <sha>]
//
// --trace 0 runs the workload with tracing off and reports the end-to-end
// metrics; --trace 1 runs the traced mode and reports the per-layer
// metrics, writing every span to <out>/trace-<workload>-<seed>.jsonl.
// --scale shrinks every data size (the smoke test runs at 0.02); the
// shapes BENCHMARK.json's metrics are defined on hold only at scale 1.
//
// Stdout: a host record, a sample-count record, then as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every operation succeeded and every gate passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "modes.h"
#include "report.h"
#include "trace.h"
#include "workload.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PIPEBENCH_CXX_FLAGS
#define PIPEBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PIPEBENCH_COMPILER
#define PIPEBENCH_COMPILER "unknown"
#endif

namespace {

using namespace pipebench;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--out <dir>] [--commit <sha>]\n"
               "workloads:",
               argv0);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// The build guard: timings from a debug or sanitizer build are not
/// benchmark numbers. Returns an empty string when the build is fit.
std::string BuildProblem() {
#if !defined(NDEBUG)
  return "built without NDEBUG";
#elif !defined(__OPTIMIZE__)
  return "built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  return "";
#endif
}

/// JSON-safe rendering of a string we produced ourselves (no control
/// characters reach here; quotes and backslashes are escaped).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string HostRecord(const std::string& workload, uint64_t seed,
                       double seconds, double scale, bool trace,
                       const std::string& commit) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf),
                "{\"record\": \"host\", \"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %g, \"scale\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
                "\"cxx_flags\": %s, \"commit\": %s}",
                Quote(workload).c_str(), static_cast<unsigned long long>(seed),
                seconds, scale, trace ? 1 : 0,
                std::thread::hardware_concurrency(),
                Quote(std::string(PIPEBENCH_COMPILER) + " (" + __VERSION__ + ")")
                    .c_str(),
                Quote(PIPEBENCH_BUILD_TYPE).c_str(),
                Quote(PIPEBENCH_CXX_FLAGS).c_str(), Quote(commit).c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (arg == "--scale") {
      options.scale = std::atof(value.c_str());
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage(argv[0]);
    }
  }
  WorkloadDef def;
  if (!FindWorkload(workload, &def) || trace < 0 || !have_seed ||
      !have_seconds || !(options.scale > 0.0 && options.scale <= 1.0)) {
    return Usage(argv[0]);
  }

  const std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "pipebench: refusing to measure: %s (%s, %s)\n",
                 problem.c_str(), PIPEBENCH_BUILD_TYPE, PIPEBENCH_CXX_FLAGS);
    return 2;
  }

  options.threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  const std::string host = HostRecord(workload, options.seed, options.seconds,
                                      options.scale, trace == 1, commit);
  std::printf("%s\n", host.c_str());
  std::fflush(stdout);

  Report report;
  if (trace == 1) {
    Tracer tracer;
    RunLayers(def, options, report, tracer);
    const std::string path = options.out_dir + "/trace-" + workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    report.Ok(tracer.WriteJsonLines(path, host),
              "write the span file " + path);
  } else {
    RunEndToEnd(def, options, report);
    report.Set("ok_rate",
               report.attempted() == 0
                   ? 0.0
                   : static_cast<double>(report.attempted() - report.failed()) /
                         static_cast<double>(report.attempted()),
               "fraction", report.attempted());
  }

  std::string samples = "{\"record\": \"samples\"";
  std::string metrics;
  for (const auto& [name, metric] : report.metrics()) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      report.Ok(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.17g, \"unit\": %s}",
                  metrics.empty() ? "" : ", ", Quote(name).c_str(), value,
                  Quote(metric.unit).c_str());
    metrics += buf;
    samples += ", " + Quote(name) + ": " + std::to_string(metric.samples);
  }
  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::printf("%s}\n", samples.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, report.attempted())),
      static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
