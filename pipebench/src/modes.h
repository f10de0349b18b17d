// The two run modes: end-to-end metrics with tracing off, and per-layer
// metrics from a traced run.

#ifndef PIPEBENCH_MODES_H_
#define PIPEBENCH_MODES_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"
#include "workload.h"

namespace pipebench {

struct RunOptions {
  uint64_t seed = 7;
  double seconds = 5.0;
  double scale = 1.0;
  /// Client threads and library threads: min(nproc, 4).
  size_t threads = 1;
  /// Scratch directory for the CSV, index and trace files.
  std::string out_dir = ".bench_out";
};

/// Untraced run: fills the end-to-end metrics of BENCHMARK.json.
void RunEndToEnd(const WorkloadDef& def, const RunOptions& options,
                 Report& report);

/// Traced run: times each layer's public calls in spans and fills the
/// per-layer metrics of BENCHMARK.json.
void RunLayers(const WorkloadDef& def, const RunOptions& options,
               Report& report, Tracer& tracer);

}  // namespace pipebench

#endif  // PIPEBENCH_MODES_H_
