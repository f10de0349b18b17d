// Time intervals over a discrete chronon domain.
//
// The paper (Sec. 3) assumes a discrete, totally ordered time domain whose
// elements are chronons; a timestamp is a convex set of chronons represented
// by its inclusive endpoints [tb, te].

#ifndef PTA_CORE_INTERVAL_H_
#define PTA_CORE_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/check.h"

namespace pta {

/// A discrete time point (the paper's chronon).
using Chronon = int64_t;

/// \brief A closed interval [begin, end] of chronons; the paper's timestamp.
///
/// Invariant: begin <= end (an interval contains at least one chronon).
struct Interval {
  Chronon begin = 0;
  Chronon end = 0;

  Interval() = default;
  Interval(Chronon b, Chronon e) : begin(b), end(e) { PTA_DCHECK(b <= e); }

  /// Number of chronons covered; the |T| of Def. 3 and Def. 5.
  int64_t length() const { return end - begin + 1; }

  /// True if t lies inside the interval.
  bool Contains(Chronon t) const { return begin <= t && t <= end; }

  /// True if the two intervals share at least one chronon.
  bool Overlaps(const Interval& other) const {
    return begin <= other.end && other.begin <= end;
  }

  /// True if `other` starts exactly one chronon after this interval ends —
  /// condition (2) of Def. 2 (adjacent tuples). Written without `end + 1`,
  /// which would overflow at the maximal chronon.
  bool MeetsBefore(const Interval& other) const {
    return end < other.begin && end == other.begin - 1;
  }

  /// The smallest interval containing both inputs (used by the merge
  /// operator, whose output timestamp is the concatenation of the inputs).
  static Interval Hull(const Interval& a, const Interval& b) {
    return Interval(std::min(a.begin, b.begin), std::max(a.end, b.end));
  }

  /// The overlap of two intervals; requires Overlaps(other).
  Interval Intersect(const Interval& other) const {
    PTA_DCHECK(Overlaps(other));
    return Interval(std::max(begin, other.begin), std::min(end, other.end));
  }

  bool operator==(const Interval& other) const = default;

  /// Renders as "[begin, end]".
  std::string ToString() const;
};

/// True if [begin, end] is proper and its length (end - begin + 1) fits in
/// int64_t. The difference is taken unsigned, where it cannot overflow.
inline bool LengthFitsInt64(Chronon begin, Chronon end) {
  return begin <= end &&
         static_cast<uint64_t>(end) - static_cast<uint64_t>(begin) <
             static_cast<uint64_t>(INT64_MAX);
}

}  // namespace pta

#endif  // PTA_CORE_INTERVAL_H_
