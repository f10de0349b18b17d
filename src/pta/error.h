// The PTA error machinery (Sec. 4.1-4.2, 5.2):
//  * MergeSegments     — the merge operator ⊕ of Def. 3;
//  * Dsim              — pairwise dissimilarity (Prop. 2), computed locally;
//  * ErrorContext      — prefix sums S, SS, L and gap vector G enabling the
//                        O(p) run-SSE of Prop. 1, plus cmin and Emax;
//  * StepFunctionSse   — the full SSE measure of Def. 5 between an ITA
//                        result and any piecewise-constant approximation.

#ifndef PTA_PTA_ERROR_H_
#define PTA_PTA_ERROR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// Positive infinity, the error of merging non-adjacent tuples (Sec. 5.1).
inline constexpr double kInfiniteError =
    std::numeric_limits<double>::infinity();

/// \brief A reduction result: the reduced relation and its total SSE
/// (Def. 5) with respect to the input it was reduced from.
struct Reduction {
  SequentialRelation relation;
  double error = 0.0;
};

/// Returns weights if non-empty (validating arity) else p ones.
std::vector<double> WeightsOrOnes(size_t p, const std::vector<double>& weights);

/// \brief Merge operator ⊕ (Def. 3).
///
/// Requires a ≺ b (same group, b starts right after a ends). The merged
/// timestamp is the concatenation; each value is the length-weighted average.
Segment MergeSegments(const Segment& a, const Segment& b);

/// \brief The value fold of the merge operator ⊕ (Def. 3): the average of
/// `a` over `la` chronons and `b` over `lb` chronons.
///
/// The one statement of the formula. MergeSegments, the merge heap
/// (pta/merge_heap.h) and the advisor's dendrogram replay all call it, so
/// every engine folds bit for bit alike.
inline double MergedValue(double la, double a, double lb, double b) {
  return (la * a + lb * b) / (la + lb);
}

/// \brief Pairwise dissimilarity dsim(a, b) (Prop. 2).
///
/// The SSE increase caused by merging two adjacent (possibly already merged)
/// segments with lengths la/lb and values va/vb:
///   dsim = sum_d w_d^2 * la*lb/(la+lb) * (va_d - vb_d)^2.
/// Callers pass kInfiniteError semantics themselves when the segments are
/// not adjacent; this function assumes adjacency.
double Dsim(int64_t la, const double* va, int64_t lb, const double* vb,
            size_t p, const double* weights);

/// \brief Precomputed prefix sums over an ITA result (Sec. 5.2).
///
/// For each aggregate dimension d and prefix length i:
///   S[d,i]  = sum_{j<=i} |s_j.T| * s_j.B_d
///   SS[d,i] = sum_{j<=i} |s_j.T| * s_j.B_d^2
///   L[i]    = sum_{j<=i} |s_j.T|
/// plus the gap vector G (positions of non-adjacent pairs) used by the DP
/// pruning rules of Sec. 5.3. The relation must outlive the context.
class ErrorContext {
 public:
  /// When `merge_across_gaps` is set (the paper's future-work extension,
  /// DESIGN.md §4.10), temporal gaps no longer separate runs: only group
  /// changes do. Run SSE then weighs each segment by its *covered* length,
  /// so the prefix-sum machinery is unchanged.
  ErrorContext(const SequentialRelation& rel, std::vector<double> weights = {},
               bool merge_across_gaps = false);

  size_t n() const { return n_; }
  size_t p() const { return p_; }
  const std::vector<double>& weights() const { return weights_; }
  const SequentialRelation& relation() const { return *rel_; }

  /// SSE of merging segments [i..j] (0-based, inclusive) into one tuple
  /// (Prop. 1). The run must not contain a gap; use HasGapInside to check.
  double RunSse(size_t i, size_t j) const;

  /// Length-weighted mean of dimension d over run [i..j] — the value the
  /// merged tuple takes (Def. 3 applied associatively).
  double RunMergedValue(size_t i, size_t j, size_t d) const;

  /// Total timestamp length of run [i..j].
  int64_t RunLength(size_t i, size_t j) const;

  /// True if some pair (l, l+1) with i <= l < j is non-adjacent.
  bool HasGapInside(size_t i, size_t j) const;

  /// 0-based positions l such that segments l and l+1 are non-adjacent,
  /// in increasing order (the paper's G stores 1-based positions).
  const std::vector<size_t>& gaps() const { return gaps_; }

  /// Smallest size any reduction can reach: number of maximal adjacent runs.
  size_t cmin() const { return n_ == 0 ? 0 : gaps_.size() + 1; }

  /// Largest possible error, SSE(s, rho(s, cmin)): every maximal run merged
  /// into a single tuple (used by error-bounded PTA, Def. 7).
  double MaxError() const;

 private:
  const SequentialRelation* rel_;
  size_t n_;
  size_t p_;
  std::vector<double> weights_;
  // Row-major prefix arrays of size (n_+1) * p_ ; index [i*p_+d] holds the
  // prefix over the first i segments.
  std::vector<double> s_;
  std::vector<double> ss_;
  // Lengths, summed across groups in wrapping arithmetic (RunLength).
  std::vector<uint64_t> l_;
  std::vector<size_t> gaps_;
};

/// \brief Êmax by deterministic segment sampling (the Sec. 6.3 estimator,
/// applied at the sequential-relation level).
///
/// Draws a Bernoulli(fraction) sample of the segments, computes the sampled
/// sub-relation's exact MaxError, and scales by 1/fraction. fraction = 1
/// short-circuits to the exact MaxError. This is what the parallel engine's
/// budget allocator uses to weigh shards; like the gPTAε estimator, an
/// underestimate only costs quality headroom, never correctness. The result
/// is deterministic for a fixed seed. Fails when fraction is outside (0, 1].
[[nodiscard]] Result<double> EstimateMaxErrorBySampling(const SequentialRelation& rel,
                                          const std::vector<double>& weights,
                                          double fraction, uint64_t seed,
                                          bool merge_across_gaps = false);

/// \brief SSE (Def. 5) between a sequential relation `s` and a
/// piecewise-constant approximation `z` of it.
///
/// `z` may have segment boundaries anywhere (it need not be a merge-based
/// reduction — DWT/PAA/APCA output qualifies) but must cover every chronon
/// of every group of `s` and must use the same group ids. Fails otherwise.
[[nodiscard]] Result<double> StepFunctionSse(const SequentialRelation& s,
                               const SequentialRelation& z,
                               const std::vector<double>& weights = {});

}  // namespace pta

#endif  // PTA_PTA_ERROR_H_
