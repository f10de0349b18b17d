#include "baselines/atc.h"

#include <cmath>

namespace pta {

Result<Reduction> AtcReduce(const SequentialRelation& ita, double threshold,
                            const std::vector<double>& weights) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (threshold < 0.0) {
    return Status::InvalidArgument("threshold must be non-negative");
  }
  const size_t p = ita.num_aggregates();
  const std::vector<double> w = WeightsOrOnes(p, weights);

  Reduction out;
  out.relation = SequentialRelation(
      p, std::vector<std::string>(ita.value_names()));
  out.relation.ShareGroupKeys(ita.shared_group_keys());
  if (ita.empty()) return out;

  // Running statistics of the open segment: with sum_l, sum_lv, sum_lv2 the
  // SSE of collapsing the accumulated tuples into their weighted mean is
  // sum_d w^2 (sum_lv2 - sum_lv^2 / sum_l) — evaluated for the candidate
  // extension before committing to it.
  std::vector<double> sum_lv(p, 0.0), sum_lv2(p, 0.0);
  double sum_l = 0.0;
  size_t open_start = 0;  // first ita index of the open segment

  auto sse_with = [&](size_t i) {
    const double len = static_cast<double>(ita.length(i));
    const double total_l = sum_l + len;
    double acc = 0.0;
    for (size_t d = 0; d < p; ++d) {
      const double v = ita.value(i, d);
      const double lv = sum_lv[d] + len * v;
      const double lv2 = sum_lv2[d] + len * v * v;
      acc += w[d] * w[d] * (lv2 - lv * lv / total_l);
    }
    return acc < 0.0 ? 0.0 : acc;
  };
  auto absorb = [&](size_t i) {
    const double len = static_cast<double>(ita.length(i));
    sum_l += len;
    for (size_t d = 0; d < p; ++d) {
      const double v = ita.value(i, d);
      sum_lv[d] += len * v;
      sum_lv2[d] += len * v * v;
    }
  };
  auto flush = [&](size_t last) {
    std::vector<double> vals(p);
    for (size_t d = 0; d < p; ++d) vals[d] = sum_lv[d] / sum_l;
    out.relation.Append(
        ita.group(open_start),
        Interval(ita.interval(open_start).begin, ita.interval(last).end),
        vals.data());
    double acc = 0.0;
    for (size_t d = 0; d < p; ++d) {
      acc += w[d] * w[d] * (sum_lv2[d] - sum_lv[d] * sum_lv[d] / sum_l);
    }
    out.error += acc < 0.0 ? 0.0 : acc;
    sum_l = 0.0;
    std::fill(sum_lv.begin(), sum_lv.end(), 0.0);
    std::fill(sum_lv2.begin(), sum_lv2.end(), 0.0);
  };

  absorb(0);
  for (size_t i = 1; i < ita.size(); ++i) {
    if (ita.AdjacentPair(i - 1) && sse_with(i) <= threshold) {
      absorb(i);
    } else {
      flush(i - 1);
      open_start = i;
      absorb(i);
    }
  }
  flush(ita.size() - 1);
  return out;
}

std::vector<AtcSweepEntry> AtcSweep(const SequentialRelation& ita,
                                    size_t steps, double hi_frac,
                                    double lo_frac,
                                    const std::vector<double>& weights) {
  PTA_CHECK_MSG(steps >= 2, "need at least two sweep steps");
  PTA_CHECK_MSG(hi_frac > lo_frac && lo_frac > 0.0, "invalid sweep range");
  const ErrorContext ctx(ita, weights);
  const double emax = ctx.MaxError();

  std::vector<AtcSweepEntry> sweep;
  sweep.reserve(steps + 1);
  // Geometric ladder from emax*hi_frac down to emax*lo_frac, plus zero.
  const double ratio = std::pow(lo_frac / hi_frac,
                                1.0 / static_cast<double>(steps - 1));
  double threshold = emax * hi_frac;
  for (size_t i = 0; i < steps; ++i) {
    auto red = AtcReduce(ita, threshold < 0.0 ? 0.0 : threshold, weights);
    PTA_CHECK_MSG(red.ok(), red.status().message().c_str());
    sweep.push_back({threshold, red->relation.size(), red->error});
    threshold *= ratio;
  }
  return sweep;
}

double BestAtcErrorForSize(const std::vector<AtcSweepEntry>& sweep, size_t c) {
  double best = -1.0;
  for (const AtcSweepEntry& entry : sweep) {
    if (entry.size > c) continue;
    if (best < 0.0 || entry.error < best) best = entry.error;
  }
  return best;
}

}  // namespace pta
