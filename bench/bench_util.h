// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Every harness prints the rows/series of one table or figure of the
// paper's Sec. 7 evaluation. Dataset sizes default to laptop scale and are
// multiplied by the PTA_BENCH_SCALE environment variable (float, default
// 1.0) — raise it to approach the paper's original sizes.

#ifndef PTA_BENCH_BENCH_UTIL_H_
#define PTA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pta/segment.h"
#include "util/stopwatch.h"

namespace pta {
namespace bench {

/// Byte-for-byte equality of two sequential relations — the identity gate
/// the bench harnesses share (memcmp on the value doubles, so even ulp
/// drift fails). One definition, so the identity contract cannot diverge
/// between benches.
inline bool ExactlyEqual(const SequentialRelation& a,
                         const SequentialRelation& b) {
  if (a.size() != b.size() || a.num_aggregates() != b.num_aggregates()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.group(i) != b.group(i) || !(a.interval(i) == b.interval(i))) {
      return false;
    }
    for (size_t d = 0; d < a.num_aggregates(); ++d) {
      if (std::memcmp(&a.values(i)[d], &b.values(i)[d], sizeof(double)) !=
          0) {
        return false;
      }
    }
  }
  return true;
}

/// \brief Paired wall times of two code paths a timing gate compares.
struct PairedTiming {
  /// Best wall time of each side.
  double best_a = 0.0;
  double best_b = 0.0;
  /// Median over the pairs of b's time divided by a's.
  double median_ratio = 0.0;
};

/// Runs a() and b() alternately, at least `min_pairs` times and for at
/// least `min_seconds` in total. Gates read median_ratio: pairing lets a
/// burst of host noise hit both sides of one ratio, and the median ignores
/// the pairs it skews anyway. A ratio of two best-of times does neither —
/// one lucky run on a loaded host swings it by tens of percent when the
/// runs are sub-millisecond or multi-threaded.
template <typename A, typename B>
PairedTiming TimePaired(A&& a, B&& b, int min_pairs, double min_seconds = 0.0) {
  PairedTiming out;
  std::vector<double> ratios;
  const Stopwatch total;
  for (int pair = 0; pair < min_pairs || total.ElapsedSeconds() < min_seconds;
       ++pair) {
    const Stopwatch watch_a;
    a();
    const double ta = watch_a.ElapsedSeconds();
    const Stopwatch watch_b;
    b();
    const double tb = watch_b.ElapsedSeconds();
    if (pair == 0 || ta < out.best_a) out.best_a = ta;
    if (pair == 0 || tb < out.best_b) out.best_b = tb;
    ratios.push_back(tb / ta);
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  out.median_ratio = ratios[ratios.size() / 2];
  return out;
}

/// PTA_BENCH_SCALE (default 1.0), clamped to [0.01, 1000].
inline double ScaleFromEnv() {
  const char* env = std::getenv("PTA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  if (v < 0.01) return 0.01;
  if (v > 1000.0) return 1000.0;
  return v;
}

/// base * PTA_BENCH_SCALE, at least `minimum`.
inline size_t Scaled(size_t base, size_t minimum = 1) {
  const double scaled = static_cast<double>(base) * ScaleFromEnv();
  const size_t v = static_cast<size_t>(scaled);
  return v < minimum ? minimum : v;
}

/// Prints the harness banner with the paper reference.
inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: PTA_BENCH_SCALE=%.2f\n", ScaleFromEnv());
  std::printf("==============================================================\n\n");
}

/// Reduction ratio in percent: 0%% at the full ITA result, 100%% at cmin.
inline double ReductionPercent(size_t n, size_t c, size_t cmin) {
  if (n <= cmin) return 100.0;
  return 100.0 * static_cast<double>(n - c) / static_cast<double>(n - cmin);
}

/// The c giving a desired reduction percentage (inverse of the above).
inline size_t SizeForReduction(size_t n, size_t cmin, double percent) {
  const double c = static_cast<double>(n) -
                   percent / 100.0 * static_cast<double>(n - cmin);
  if (c < static_cast<double>(cmin)) return cmin;
  if (c > static_cast<double>(n)) return n;
  return static_cast<size_t>(c);
}

/// Evenly spaced sample sizes c in [cmin, n], deduplicated, ascending.
inline std::vector<size_t> SampleSizes(size_t n, size_t cmin, size_t count) {
  std::vector<size_t> out;
  for (size_t i = 0; i < count; ++i) {
    const double frac =
        static_cast<double>(i + 1) / static_cast<double>(count + 1);
    const size_t c =
        cmin + static_cast<size_t>(frac * static_cast<double>(n - cmin));
    if (out.empty() || out.back() != c) out.push_back(c);
  }
  return out;
}

}  // namespace bench
}  // namespace pta

#endif  // PTA_BENCH_BENCH_UTIL_H_
