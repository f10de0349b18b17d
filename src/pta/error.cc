#include "pta/error.h"

#include <algorithm>

#include "util/random.h"

namespace pta {

std::vector<double> WeightsOrOnes(size_t p,
                                  const std::vector<double>& weights) {
  if (weights.empty()) return std::vector<double>(p, 1.0);
  PTA_CHECK_MSG(weights.size() == p,
                "weights arity must match number of aggregates");
  for (double w : weights) PTA_CHECK_MSG(w > 0.0, "weights must be positive");
  return weights;
}

Segment MergeSegments(const Segment& a, const Segment& b) {
  PTA_DCHECK(a.group == b.group);
  PTA_DCHECK(a.t.MeetsBefore(b.t));
  PTA_DCHECK(a.values.size() == b.values.size());
  Segment out;
  out.group = a.group;
  out.t = Interval(a.t.begin, b.t.end);
  out.values.resize(a.values.size());
  const double la = static_cast<double>(a.t.length());
  const double lb = static_cast<double>(b.t.length());
  for (size_t d = 0; d < a.values.size(); ++d) {
    out.values[d] = MergedValue(la, a.values[d], lb, b.values[d]);
  }
  return out;
}

double Dsim(int64_t la, const double* va, int64_t lb, const double* vb,
            size_t p, const double* weights) {
  const double coeff = static_cast<double>(la) * static_cast<double>(lb) /
                       static_cast<double>(la + lb);
  double acc = 0.0;
  for (size_t d = 0; d < p; ++d) {
    const double diff = va[d] - vb[d];
    acc += weights[d] * weights[d] * diff * diff;
  }
  return coeff * acc;
}

ErrorContext::ErrorContext(const SequentialRelation& rel,
                           std::vector<double> weights,
                           bool merge_across_gaps)
    : rel_(&rel),
      n_(rel.size()),
      p_(rel.num_aggregates()),
      weights_(WeightsOrOnes(p_, weights)) {
  s_.assign((n_ + 1) * p_, 0.0);
  ss_.assign((n_ + 1) * p_, 0.0);
  l_.assign(n_ + 1, 0);
  for (size_t i = 0; i < n_; ++i) {
    const double len = static_cast<double>(rel.length(i));
    l_[i + 1] = l_[i] + static_cast<uint64_t>(rel.length(i));
    const double* v = rel.values(i);
    for (size_t d = 0; d < p_; ++d) {
      s_[(i + 1) * p_ + d] = s_[i * p_ + d] + len * v[d];
      ss_[(i + 1) * p_ + d] = ss_[i * p_ + d] + len * v[d] * v[d];
    }
  }
  for (size_t i = 0; i + 1 < n_; ++i) {
    if (merge_across_gaps) {
      if (rel.group(i) != rel.group(i + 1)) gaps_.push_back(i);
    } else if (!rel.AdjacentPair(i)) {
      gaps_.push_back(i);
    }
  }
}

double ErrorContext::RunSse(size_t i, size_t j) const {
  PTA_DCHECK(i <= j && j < n_);
  const int64_t len = RunLength(i, j);
  double acc = 0.0;
  for (size_t d = 0; d < p_; ++d) {
    const double sum = s_[(j + 1) * p_ + d] - s_[i * p_ + d];
    const double sq = ss_[(j + 1) * p_ + d] - ss_[i * p_ + d];
    const double w = weights_[d];
    acc += w * w * (sq - sum * sum / static_cast<double>(len));
  }
  // Guard against tiny negative values from floating-point cancellation.
  return acc < 0.0 ? 0.0 : acc;
}

double ErrorContext::RunMergedValue(size_t i, size_t j, size_t d) const {
  PTA_DCHECK(i <= j && j < n_ && d < p_);
  const double sum = s_[(j + 1) * p_ + d] - s_[i * p_ + d];
  const int64_t len = RunLength(i, j);
  return sum / static_cast<double>(len);
}

int64_t ErrorContext::RunLength(size_t i, size_t j) const {
  PTA_DCHECK(i <= j && j < n_);
  // The prefix may wrap past the whole relation, but a run stays inside
  // one group, whose total length Validate bounds by INT64_MAX.
  return static_cast<int64_t>(l_[j + 1] - l_[i]);
}

bool ErrorContext::HasGapInside(size_t i, size_t j) const {
  if (i >= j) return false;
  // First gap position >= i; a gap at position l separates l and l+1, so any
  // l in [i, j-1] splits the run.
  auto it = std::lower_bound(gaps_.begin(), gaps_.end(), i);
  return it != gaps_.end() && *it < j;
}

double ErrorContext::MaxError() const {
  double total = 0.0;
  size_t run_start = 0;
  for (size_t gap : gaps_) {
    total += RunSse(run_start, gap);
    run_start = gap + 1;
  }
  if (n_ > 0) total += RunSse(run_start, n_ - 1);
  return total;
}

Result<double> EstimateMaxErrorBySampling(const SequentialRelation& rel,
                                          const std::vector<double>& weights,
                                          double fraction, uint64_t seed,
                                          bool merge_across_gaps) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("sample fraction must be in (0, 1]");
  }
  // 1.0 is an exact API sentinel ("use everything"), not a computed
  // quantity; no tolerance applies.
  // pta-lint: allow(float-equality) -- exact API sentinel, not computed
  if (fraction == 1.0) {
    const ErrorContext ctx(rel, weights, merge_across_gaps);
    return ctx.MaxError();
  }
  SequentialRelation sample(rel.num_aggregates());
  Random rng(seed);
  for (size_t i = 0; i < rel.size(); ++i) {
    if (rng.Bernoulli(fraction)) {
      sample.Append(rel.group(i), rel.interval(i), rel.values(i));
    }
  }
  if (sample.empty()) return 0.0;
  const ErrorContext ctx(sample, weights, merge_across_gaps);
  return ctx.MaxError() / fraction;
}

Result<double> StepFunctionSse(const SequentialRelation& s,
                               const SequentialRelation& z,
                               const std::vector<double>& weights) {
  if (s.num_aggregates() != z.num_aggregates()) {
    return Status::InvalidArgument("aggregate arity mismatch");
  }
  const size_t p = s.num_aggregates();
  const std::vector<double> w = WeightsOrOnes(p, weights);

  double acc = 0.0;
  size_t zi = 0;
  for (size_t si = 0; si < s.size(); ++si) {
    const int32_t g = s.group(si);
    const Interval st = s.interval(si);
    Chronon covered_until = st.begin - 1;
    // Advance z past segments that end before st or belong to earlier groups.
    while (zi < z.size() &&
           (z.group(zi) < g ||
            (z.group(zi) == g && z.interval(zi).end < st.begin))) {
      ++zi;
    }
    for (size_t zj = zi; zj < z.size(); ++zj) {
      if (z.group(zj) != g || z.interval(zj).begin > st.end) break;
      const Interval zt = z.interval(zj);
      if (!zt.Overlaps(st)) continue;
      const Interval overlap = zt.Intersect(st);
      if (overlap.begin != covered_until + 1) {
        return Status::FailedPrecondition(
            "approximation does not cover chronon " +
            std::to_string(covered_until + 1) + " of group " +
            std::to_string(g));
      }
      covered_until = overlap.end;
      const double len = static_cast<double>(overlap.length());
      for (size_t d = 0; d < p; ++d) {
        const double diff = s.value(si, d) - z.value(zj, d);
        acc += w[d] * w[d] * len * diff * diff;
      }
    }
    if (covered_until != st.end) {
      return Status::FailedPrecondition(
          "approximation does not cover chronon " +
          std::to_string(covered_until + 1) + " of group " +
          std::to_string(g));
    }
  }
  return acc;
}

}  // namespace pta
