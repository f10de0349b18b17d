// Greedy evaluation of PTA (Sec. 6).
//
// GmsReduceToSize / GmsReduceToError implement the greedy merging strategy
// (GMS, Sec. 6.1) over a materialized ITA result: repeatedly merge the most
// similar adjacent pair. Its error is within O(log n) of the optimum
// (Theorem 1).
//
// GreedyReduceToSize (gPTAc, Fig. 11) and GreedyReduceToError (gPTAε,
// Fig. 13) consume a SegmentSource and merge while ITA tuples are still
// being produced, keeping only c + beta live tuples. All four are thin
// drivers over one merge core (pta/merge_heap.h), which the streaming
// engine and the index recorder share. Safe early merges are identified by
// Prop. 3 (strictly: only while more than c live tuples precede the last
// gap — see MergeHeap::ClassifyTop) and Prop. 4;
// the read-ahead parameter delta trades a slightly larger heap for results
// closer to GMS (delta = infinity tracks GMS, Theorems 2 and 3, exactly so
// on gap-free input where no early merge ever fires; greedy_test.cc
// documents the residual boundary deviation on gapped streams, and
// pta/index.h serves exact GMS cuts for every budget).

#ifndef PTA_PTA_GREEDY_H_
#define PTA_PTA_GREEDY_H_

#include <cstddef>
#include <vector>

#include "pta/error.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// \brief Options shared by the greedy algorithms.
struct GreedyOptions {
  /// Per-dimension error weights w_d (Def. 5); empty means all ones.
  std::vector<double> weights;
  /// Minimum number of adjacent successors a merge candidate must have
  /// before the heuristic allows merging it (Sec. 6.2.1). 0 merges eagerly;
  /// kDeltaInfinity only merges on the provably-safe Prop. 3/4 conditions.
  size_t delta = 1;
  /// Future-work extension (Sec. 8): allow merging same-group tuples
  /// separated by temporal gaps (hull timestamps, covered-length weights).
  bool merge_across_gaps = false;
  /// When false, no merge happens until the stream is exhausted: the
  /// reducer buffers every tuple and the final drain IS the batch GMS
  /// reducer — byte-identical to GmsReduceToSize/-ToError, including the
  /// id-based tie order on equal heap keys, which in-stream early merges
  /// perturb (a merged node outranks later-arriving leaves in ties).
  /// Costs the full O(n) heap instead of O(c + beta); meant for
  /// byte-identity regression regimes, not production streams.
  bool eager = true;

  static constexpr size_t kDeltaInfinity = static_cast<size_t>(-1);
};

/// \brief Observability counters for the greedy algorithms.
struct GreedyStats {
  /// Largest number of live tuples in the heap (c + beta, Fig. 20).
  size_t max_heap_size = 0;
  /// Total merges performed.
  size_t merges = 0;
  /// Merges performed before the input stream was exhausted.
  size_t early_merges = 0;
};

/// \brief Estimates that drive gPTAε's early merging (Sec. 6.3).
///
/// The algorithm needs the ITA result size n and maximal error Emax before
/// they are knowable; the paper estimates n̂ = 2|r|-1 and samples for Êmax.
/// Underestimating Êmax only grows the heap; overestimating it may lose the
/// GMS-equivalence guarantee (Theorem 3).
struct GreedyErrorEstimates {
  double estimated_max_error = 0.0;
  size_t estimated_n = 0;
};

/// GMS, size-bounded: reduce a materialized ITA result to c tuples.
[[nodiscard]] Result<Reduction> GmsReduceToSize(const SequentialRelation& ita, size_t c,
                                  const GreedyOptions& options = {},
                                  GreedyStats* stats = nullptr);

/// GMS, error-bounded: maximal greedy reduction with SSE <= eps * Emax.
[[nodiscard]] Result<Reduction> GmsReduceToError(const SequentialRelation& ita, double eps,
                                   const GreedyOptions& options = {},
                                   GreedyStats* stats = nullptr);

/// gPTAc (Fig. 11): streaming size-bounded greedy reduction.
[[nodiscard]] Result<Reduction> GreedyReduceToSize(SegmentSource& source, size_t c,
                                     const GreedyOptions& options = {},
                                     GreedyStats* stats = nullptr);

/// gPTAε (Fig. 13): streaming error-bounded greedy reduction.
[[nodiscard]] Result<Reduction> GreedyReduceToError(SegmentSource& source, double eps,
                                      const GreedyErrorEstimates& estimates,
                                      const GreedyOptions& options = {},
                                      GreedyStats* stats = nullptr);

}  // namespace pta

#endif  // PTA_PTA_GREEDY_H_
