#include "pta/dp.h"

#include <algorithm>

namespace pta {

namespace {

// Shared DP engine. Rows are indexed by k (output size), columns by i
// (prefix length, 1-based); row k is computed from row k-1. The gap vector
// of the ErrorContext drives the Sec. 5.3 pruning when enabled.
class DpSolver {
 public:
  DpSolver(const SequentialRelation& rel, const DpOptions& options,
           DpStats* stats)
      : rel_(rel),
        ctx_(rel, options.weights, options.merge_across_gaps),
        options_(options),
        stats_(stats),
        n_(rel.size()) {
    prev_row_.assign(n_ + 1, kInfiniteError);
    cur_row_.assign(n_ + 1, kInfiniteError);
  }

  const ErrorContext& ctx() const { return ctx_; }
  size_t n() const { return n_; }

  /// Paper-style gap positions: G_m (1-based) = gaps()[m-1] + 1.
  size_t PaperGap(size_t m) const { return ctx_.gaps()[m - 1] + 1; }
  size_t num_gaps() const { return ctx_.gaps().size(); }

  /// Fills row k (k >= 1); requires rows 1..k-1 filled before. When
  /// keep_split is true the split row is appended to split_rows_.
  void FillRow(size_t k, bool keep_split) {
    if (stats_ != nullptr) ++stats_->rows_filled;
    std::swap(prev_row_, cur_row_);
    std::fill(cur_row_.begin(), cur_row_.end(), kInfiniteError);
    std::vector<int32_t>* jrow = nullptr;
    if (keep_split) {
      split_rows_.emplace_back(n_ + 1, 0);
      jrow = &split_rows_.back();
    }

    const bool prune = options_.use_pruning;
    // imax: beyond G_k the prefix contains more than k-1 gaps and every
    // reduction to k tuples is infeasible (Sec. 5.3).
    const size_t imax = (prune && k <= num_gaps()) ? PaperGap(k) : n_;

    if (k == 1) {
      for (size_t i = 1; i <= imax; ++i) {
        if (stats_ != nullptr) ++stats_->inner_iterations;
        if (!prune && ctx_.HasGapInside(0, i - 1)) break;  // all further ∞
        cur_row_[i] = ctx_.RunSse(0, i - 1);
        if (jrow != nullptr) (*jrow)[i] = 0;
      }
      return;
    }

    for (size_t i = k; i <= imax; ++i) {
      // jmin: the right-most gap before i; any split left of it would merge
      // across the gap (Sec. 5.3). Without pruning the loop floor is k-1 and
      // gap runs are rejected via HasGapInside.
      size_t jmin = k - 1;
      bool jmin_is_gap = false;
      if (prune && !ctx_.gaps().empty()) {
        // Largest paper gap position < i  <=>  largest gaps_[m] <= i-2.
        const auto& gaps = ctx_.gaps();
        auto it = std::upper_bound(gaps.begin(), gaps.end(), i - 2);
        if (it != gaps.begin()) {
          const size_t gap_pos = *(it - 1) + 1;  // 1-based
          if (gap_pos > jmin) {
            jmin = gap_pos;
            jmin_is_gap = true;
          }
        }
      }

      double best = kInfiniteError;
      int32_t best_j = 0;

      if (prune && jmin_is_gap && k - 1 <= num_gaps() &&
          PaperGap(k - 1) == jmin) {
        // The prefix s^i contains exactly k-1 gaps: the only feasible split
        // is at the right-most gap (Sec. 5.4, line 13).
        if (stats_ != nullptr) ++stats_->inner_iterations;
        best = prev_row_[jmin] + ctx_.RunSse(jmin, i - 1);
        best_j = static_cast<int32_t>(jmin);
      } else {
        // j runs from i-1 down to jmin (both inclusive); i >= k ensures
        // i-1 >= jmin.
        for (size_t j = i - 1;; --j) {
          if (stats_ != nullptr) ++stats_->inner_iterations;
          const double err2 =
              (!prune && ctx_.HasGapInside(j, i - 1))
                  ? kInfiniteError
                  : ctx_.RunSse(j, i - 1);
          const double err1 = prev_row_[j];
          const double total = err1 + err2;
          if (total < best) {
            best = total;
            best_j = static_cast<int32_t>(j);
          }
          // err2 grows as j decreases; once it alone exceeds the best total
          // no smaller j can win (Sec. 5.4, line 24).
          if (options_.use_early_break && err2 > best) break;
          if (j == jmin) break;
        }
      }
      cur_row_[i] = best;
      if (jrow != nullptr) (*jrow)[i] = best_j;
    }
  }

  double RowError(size_t i) const { return cur_row_[i]; }

  /// Split rows in the paper's 1-based convention, for tests (Fig. 5).
  std::vector<std::vector<int64_t>> SplitRows() const {
    std::vector<std::vector<int64_t>> rows;
    rows.reserve(split_rows_.size());
    for (const auto& r : split_rows_) {
      std::vector<int64_t> row(n_);
      for (size_t i = 1; i <= n_; ++i) row[i - 1] = r[i];
      rows.push_back(std::move(row));
    }
    return rows;
  }

  /// Builds the reduced relation by walking the split matrix back from
  /// (k, n) as in Fig. 7 lines 25-29. Requires keep_split rows 1..k.
  Reduction Reconstruct(size_t k) const {
    PTA_CHECK(split_rows_.size() >= k);
    Reduction out;
    out.error = cur_row_[n_];
    SequentialRelation& rel = out.relation;
    rel = SequentialRelation(rel_.num_aggregates(),
                             std::vector<std::string>(rel_.value_names()));
    rel.ShareGroupKeys(rel_.shared_group_keys());

    std::vector<std::pair<size_t, size_t>> runs;  // 0-based [from, to]
    size_t i = n_;
    size_t kk = k;
    while (kk > 0 && i > 0) {
      const size_t j = static_cast<size_t>(split_rows_[kk - 1][i]);
      runs.emplace_back(j, i - 1);
      i = j;
      --kk;
    }
    PTA_CHECK_MSG(i == 0, "split matrix walk did not consume all segments");
    std::reverse(runs.begin(), runs.end());

    std::vector<double> vals(rel_.num_aggregates());
    for (const auto& [from, to] : runs) {
      for (size_t d = 0; d < rel_.num_aggregates(); ++d) {
        vals[d] = ctx_.RunMergedValue(from, to, d);
      }
      rel.Append(rel_.group(from),
                 Interval(rel_.interval(from).begin, rel_.interval(to).end),
                 vals.data());
    }
    return out;
  }

 private:
  const SequentialRelation& rel_;
  ErrorContext ctx_;
  DpOptions options_;
  DpStats* stats_;
  size_t n_;
  std::vector<double> prev_row_;
  std::vector<double> cur_row_;
  std::vector<std::vector<int32_t>> split_rows_;
};

Reduction IdentityReduction(const SequentialRelation& ita) {
  Reduction out;
  out.relation = ita;
  out.error = 0.0;
  return out;
}

}  // namespace

Result<Reduction> ReduceToSizeDp(const SequentialRelation& ita, size_t c,
                                 const DpOptions& options, DpStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  if (c >= ita.size()) return IdentityReduction(ita);

  DpSolver solver(ita, options, stats);
  if (c < solver.ctx().cmin()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below cmin = " +
        std::to_string(solver.ctx().cmin()));
  }
  for (size_t k = 1; k <= c; ++k) solver.FillRow(k, /*keep_split=*/true);
  return solver.Reconstruct(c);
}

Result<Reduction> ReduceToErrorDp(const SequentialRelation& ita, double eps,
                                  const DpOptions& options, DpStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  if (ita.empty()) return IdentityReduction(ita);

  DpSolver solver(ita, options, stats);
  const double emax = solver.ctx().MaxError();
  const double budget = eps * emax;

  for (size_t k = 1; k + 1 <= ita.size(); ++k) {
    solver.FillRow(k, /*keep_split=*/true);
    const double err = solver.RowError(ita.size());
    if (err <= budget) {
      return solver.Reconstruct(k);
    }
  }
  // No proper reduction fits the budget: the identity (k = n) always does,
  // with exactly zero error by definition (prefix-sum rounding can keep
  // E[n][n] marginally above zero, so it is returned explicitly).
  return IdentityReduction(ita);
}

Result<std::vector<double>> DpErrorCurve(const SequentialRelation& ita,
                                         size_t max_c, const DpOptions& options,
                                         DpStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (ita.empty()) return std::vector<double>{};
  max_c = std::min(max_c, ita.size());

  DpSolver solver(ita, options, stats);
  std::vector<double> errors;
  errors.reserve(max_c);
  for (size_t k = 1; k <= max_c; ++k) {
    solver.FillRow(k, /*keep_split=*/false);
    errors.push_back(solver.RowError(ita.size()));
  }
  return errors;
}

Result<DpMatrices> ComputeDpMatrices(const SequentialRelation& ita, size_t c,
                                     const DpOptions& options) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (c == 0 || c > ita.size()) {
    return Status::InvalidArgument("c must be in [1, n]");
  }
  DpSolver solver(ita, options, /*stats=*/nullptr);
  DpMatrices out;
  for (size_t k = 1; k <= c; ++k) {
    solver.FillRow(k, /*keep_split=*/true);
    std::vector<double> row(ita.size());
    for (size_t i = 1; i <= ita.size(); ++i) row[i - 1] = solver.RowError(i);
    out.error.push_back(std::move(row));
  }
  out.split = solver.SplitRows();
  return out;
}

}  // namespace pta
