// Metric collection, correctness accounting and small statistics helpers
// shared by the end-to-end and the traced modes.

#ifndef PIPEBENCH_REPORT_H_
#define PIPEBENCH_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "pta/error.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pipebench {

/// Median of a sample (0 for an empty one).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// FNV-1a digest over a reduction's groups, intervals and value bits, plus
/// the error double: equal digests across repeats mean identical answers.
inline uint64_t Digest(const pta::SequentialRelation& rel, double error) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < rel.size(); ++i) {
    const int32_t g = rel.group(i);
    mix(&g, sizeof(g));
    mix(&rel.interval(i).begin, sizeof(rel.interval(i).begin));
    mix(&rel.interval(i).end, sizeof(rel.interval(i).end));
    mix(rel.values(i), rel.num_aggregates() * sizeof(double));
  }
  mix(&error, sizeof(error));
  return h;
}

/// Exact equality with a reference reduction: same groups and intervals,
/// bit-identical values and error.
inline bool BitwiseEqual(const pta::SequentialRelation& rel, double error,
                         const pta::Reduction& ref) {
  return rel.BitwiseEquals(ref.relation) &&
         std::memcmp(&error, &ref.error, sizeof(double)) == 0;
}

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples the value summarizes (1 for a count or a single measurement).
  size_t samples = 1;
};

/// One run's metrics and its correctness ledger. Every operation the
/// benchmark attempts — each timed library call and each gate — goes
/// through Ok(); a failed operation is logged to stderr and counted.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }

  /// Records one attempted operation; returns `ok` for chaining.
  bool Ok(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "pipebench: FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  bool Ok(const pta::Status& status, const std::string& what) {
    return Ok(status.ok(), status.ok() ? what : what + ": " + status.ToString());
  }
  /// Records a batch of operations that were counted elsewhere (client
  /// threads keep their own tallies).
  void AddCounts(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "pipebench: FAILED: %llu of %llu %s\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(attempted), what.c_str());
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace pipebench

#endif  // PIPEBENCH_REPORT_H_
