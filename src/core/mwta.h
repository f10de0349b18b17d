// Moving-window temporal aggregation (MWTA), from the paper's related-work
// taxonomy (Sec. 2.1, [19, 23, 30]): the aggregate value at instant t is
// computed over all tuples that hold in a window "around" t. ITA is the
// special case of a zero-width window; a window unbounded towards the past
// gives cumulative aggregation.
//
// A tuple r contributes to instant t iff r.T intersects
// [t - window.preceding, t + window.following], which is equivalent to
// extending every tuple's timestamp by `following` chronons to the left and
// `preceding` chronons to the right and running the plain ITA sweep — the
// implementation reuses exactly that machinery, so MWTA results coalesce
// and stream the same way ITA results do, and feed straight into PTA.

#ifndef PTA_CORE_MWTA_H_
#define PTA_CORE_MWTA_H_

#include "core/ita.h"

namespace pta {

/// \brief The aggregation window around each time instant.
struct MwtaWindow {
  /// Chronons before t included in the window (>= 0).
  int64_t preceding = 0;
  /// Chronons after t included in the window (>= 0).
  int64_t following = 0;
};

/// Batch MWTA: like Ita() but aggregating over the window around each
/// instant. A zero window reduces to ITA exactly.
[[nodiscard]] Result<SequentialRelation> Mwta(const TemporalRelation& rel,
                                const ItaSpec& spec, const MwtaWindow& window);

/// Streaming MWTA. The returned stream is an ordinary SegmentSource, so
/// gPTAc / gPTAε consume it directly (PTA over moving-window aggregates).
/// It holds its own copy of the window-extended input, so `rel` need not
/// outlive it.
[[nodiscard]] Result<std::unique_ptr<SegmentSource>> MwtaStream(const TemporalRelation& rel,
                                                  const ItaSpec& spec,
                                                  const MwtaWindow& window);

}  // namespace pta

#endif  // PTA_CORE_MWTA_H_
