// The closed-loop serving window shared by both modes: one client thread
// per server worker, each sending its next request as soon as the previous
// reply arrives, against one PtaSession, for a fixed number of seconds; a
// writer thread applies the workload's dataset churn (WorkloadDef::
// update_every) at the same time, without the clients giving way to it.

#ifndef PIPEBENCH_SERVING_H_
#define PIPEBENCH_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/relation.h"
#include "serve/server.h"
#include "workload.h"

namespace pipebench {

struct ServeConfig {
  double seconds = 1.0;
  /// The window is extended (up to 3x) until this many warm cuts finished.
  size_t min_warm_cuts = 1000;
  uint64_t seed = 0;
  /// Generation served when the window opens (0 or 1).
  int live_generation = 0;
};

struct ServeOutcome {
  /// Latencies (seconds) of cuts answered from a cached index.
  std::vector<double> warm_cut_s;
  /// Latencies of cuts that built or joined a build (after an update).
  std::vector<double> cold_cut_s;
  std::vector<double> ladder_s;
  /// Per update: from queueing UpdateDataset to the first completed cut of
  /// the new generation — the writer's wait for the dataset lock, the swap,
  /// ITA, the index build and the cut.
  std::vector<double> update_to_cut_s;
  /// Per cut: latency minus the indexed build and cut time — the wait on
  /// locks and coalesced builds.
  std::vector<double> wait_s;
  /// Window length.
  double wall_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates = 0;
  /// Process-wide index cache counter deltas over the window.
  uint64_t builds = 0;
  uint64_t coalesced = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t shed = 0;
  /// Served cuts compared bitwise against the GMS oracle afterwards.
  uint64_t sampled = 0;
  int final_generation = 0;
};

/// The benchmark's server configuration: `threads` request workers and a
/// cache large enough that no served index is evicted during a run.
pta::ServeOptions MakeServeOptions(size_t threads);

/// Runs one serving window with one client per worker of `server`. `gens`
/// holds the base relations of both generations (only read when the
/// workload churns); `prep` must hold the oracles of every generation the
/// window can serve.
ServeOutcome RunServing(pta::PtaServer& server, const pta::PtaSession& session,
                        const Prepared& prep,
                        const pta::TemporalRelation* const gens[2],
                        const ServeConfig& config);

/// Queues one UpdateDataset (installing `next`) behind one client per
/// server worker sending back-to-back cuts, for `seconds` in total, and
/// returns how long the writer waited and swapped (negative when the update
/// failed). With a reader-preferring lock the writer gets in only when the
/// readers happen to pause, so this can read close to 0.9 * seconds.
double MeasureStarvedUpdate(pta::PtaServer& server,
                            const pta::PtaSession& session,
                            const Prepared& prep, pta::TemporalRelation next,
                            double seconds);

}  // namespace pipebench

#endif  // PIPEBENCH_SERVING_H_
