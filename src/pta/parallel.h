// Parallel, group-sharded greedy PTA (the repo's first concurrency
// subsystem; see docs/ARCHITECTURE.md §5).
//
// The paper's greedy reducers (Sec. 6) are single-threaded, but adjacency —
// the only merge precondition (Def. 2) — never crosses an aggregation
// group, so a sequential relation partitions cleanly along group boundaries.
// The engine here reduces a ShardedSegmentSource shard-by-shard on a fixed
// ThreadPool and merges the per-shard results back into global group order:
//
//   ItaStream / RelationSegmentSource
//        │  scatter (stable group hash, single pass)
//        ▼
//   ShardedSegmentSource ──▶ [shard 0] GreedyReduceTo{Size,Error}
//                            [shard 1]        …          (thread pool)
//                            [shard S-1]
//        │  gather (k-way concat in global group order)
//        ▼
//   Reduction (deterministic for a fixed shard map, any thread count)
//
// For size-bounded reduction the global budget c must be split across
// shards; AllocateSizeBudgets gives every shard its cmin and distributes
// the remainder proportionally to per-shard (estimated) maximal error, so
// shards whose data is expensive to merge keep more tuples — tracking what
// single-threaded gPTAc would have done globally. With one shard the split
// is the identity and the engine's output is byte-identical to
// GreedyReduceToSize/-Error on the unpartitioned stream.

#ifndef PTA_PTA_PARALLEL_H_
#define PTA_PTA_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pta/greedy.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// \brief Options for the parallel, group-sharded greedy engine
/// (PtaQuery::Parallel, Engine::kParallel) and for the streaming
/// composition (stream/sharded_stream.h).
///
/// The ITA result is partitioned by a stable hash of the grouping values,
/// each shard is reduced independently on a thread pool, and the per-shard
/// results are merged back in global group order (docs/ARCHITECTURE.md §5).
/// For a fixed num_shards the output is a pure function of the input —
/// num_threads only changes the wall clock — and with num_shards = 1, a
/// size-bounded kParallel query is byte-identical to the same query under
/// Engine::kGreedy. (An error-bounded kParallel query estimates Êmax per
/// shard from the ITA segments, not from the base relation like kGreedy,
/// so its one-shard output matches that policy, not kGreedy's.)
struct ParallelOptions {
  /// Worker threads; 0 means all hardware threads.
  size_t num_threads = 0;
  /// Shard count; 0 derives it from the resolved thread count — in which
  /// case the output DOES vary with num_threads / the host's hardware
  /// concurrency. Pin this for reproducible results across machines. More
  /// shards than threads improves load balance at slightly coarser budget
  /// splits; the result is deterministic for any fixed value.
  size_t num_shards = 0;
  /// Grouping attributes hashed to pick a shard. Empty means all of the
  /// query's group_by attributes (finest sharding). Must be a subset of
  /// group_by; groups agreeing on these attributes stay on one shard.
  /// (Ignored by the streaming composition, which shards by dense group
  /// id — see stream/sharded_stream.h.)
  std::vector<std::string> shard_by;
  /// Fraction of each shard's segments sampled for its Êmax budget weight;
  /// 1.0 computes the exact per-shard maximal error.
  double budget_sample_fraction = 1.0;
  /// Base seed of the deterministic budget sampler.
  uint64_t budget_sample_seed = 42;
};

/// \brief Execution knobs of the sharded engine.
struct ParallelReduceOptions {
  /// Worker threads; 0 means all hardware threads. Thread count never
  /// changes the result, only the wall clock.
  size_t num_threads = 0;
  /// Per-shard greedy knobs (weights, delta, gap merging).
  GreedyOptions greedy;
  /// Fraction of each shard's segments sampled for its Êmax budget weight;
  /// 1.0 computes the exact per-shard maximal error.
  double budget_sample_fraction = 1.0;
  /// Base seed of the deterministic budget sampler (shard s uses seed + s).
  uint64_t budget_sample_seed = 42;
};

/// \brief Observability of one parallel reduction.
struct ParallelStats {
  size_t num_shards = 0;
  /// Threads the pool actually ran with.
  size_t threads_used = 0;
  size_t total_segments = 0;
  double estimate_seconds = 0.0;
  double reduce_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Per-shard input sizes, allocated size budgets (size-bounded only),
  /// Êmax budget weights, introduced SSE, and greedy counters.
  std::vector<size_t> shard_sizes;
  std::vector<size_t> shard_budgets;
  std::vector<double> shard_max_errors;
  std::vector<double> shard_errors;
  std::vector<GreedyStats> shard_greedy;
};

/// \brief Splits the global size budget c across shards.
///
/// Every shard first receives its cmin (less is infeasible); the remaining
/// budget is distributed proportionally to `shard_errors` (falling back to
/// per-shard headroom when all error weights are zero), capped at each
/// shard's input size, by the largest-remainder method with ties broken
/// toward lower shard indices — fully deterministic. The returned budgets
/// sum to min(c, sum of shard sizes). Fails when c < sum of cmins.
///
/// Boundary contracts (audited in PR 5 — ~10^6 fuzzed instances plus the
/// adversarial lattice in parallel_test.cc):
///  * a saturated shard (cmin == size, zero headroom) receives exactly its
///    cmin no matter how large its Êmax weight is — it can never siphon
///    budget while another shard has headroom;
///  * an all-zero Êmax shard keeps its cmin and only absorbs remainder the
///    error-carrying shards cannot hold (re-flow, never dropped);
///  * equal Êmax weights tie toward lower shard indices at every
///    remainder count, so repeated calls are bit-stable;
///  * cmin_s <= budget_s <= size_s always holds per shard.
[[nodiscard]] Result<std::vector<size_t>> AllocateSizeBudgets(
    const std::vector<size_t>& shard_sizes,
    const std::vector<size_t>& shard_cmins,
    const std::vector<double>& shard_errors, size_t c);

/// Sharded gPTAc: reduces every shard with GreedyReduceToSize under its
/// allocated slice of c and concatenates the results in global group order.
/// Deterministic given the shard map; independent of num_threads.
[[nodiscard]] Result<Reduction> ParallelReduceToSize(
    const ShardedSegmentSource& shards, size_t c,
    const ParallelReduceOptions& options = {}, ParallelStats* stats = nullptr);

/// Sharded gPTAε: each shard runs GreedyReduceToError with the global eps
/// against its own (estimated) maximal error — i.e. the absolute error
/// budget eps·Êmax is split across shards proportionally to Êmax_s.
/// Deterministic given the shard map; independent of num_threads.
[[nodiscard]] Result<Reduction> ParallelReduceToError(
    const ShardedSegmentSource& shards, double eps,
    const ParallelReduceOptions& options = {}, ParallelStats* stats = nullptr);

}  // namespace pta

#endif  // PTA_PTA_PARALLEL_H_
