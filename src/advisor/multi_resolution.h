// MultiResolution — hierarchy-consistent zoom ladders with a verified
// bottom-up reconciliation property.
//
// A PtaIndex ladder is hierarchy-consistent by construction: every level
// is a frontier cut of the same dendrogram, so each coarse segment is the
// merge of a contiguous run of segments at the next finer level — there
// is no drill-down anomaly where a coarse value disagrees with its own
// refinement. MultiResolution makes that property *checked*, not just
// true on paper: after MultiBudgetCut it re-aggregates each finer level
// into the next coarser one by replaying the dendrogram merges with the
// merge heap's own fold (MergedValue in pta/error.h, Def. 3, weighted by
// covered chronons), and demands bitwise equality
// (SequentialRelation::BitwiseEquals) with the index's own cut. The
// finest level is anchored the same way against the full-resolution
// input. A mismatch is a FailedPrecondition — it would mean the recorded
// dendrogram and its payloads disagree.

#ifndef PTA_ADVISOR_MULTI_RESOLUTION_H_
#define PTA_ADVISOR_MULTI_RESOLUTION_H_

#include <cstddef>
#include <vector>

#include "pta/error.h"
#include "pta/index.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {
namespace advisor {

/// Re-aggregates `finer` — which must be the index's cut at finer.size()
/// segments (the input itself qualifies, as the cut at size n) — up to
/// `coarse_size` by replaying the dendrogram's merges with the merge
/// heap's fold (MergedValue). The result is bitwise equal to the index's own cut
/// at coarse_size: the bottom-up reconciliation property.
[[nodiscard]] Result<SequentialRelation> Reaggregate(const PtaIndex& index,
                                       const SequentialRelation& finer,
                                       size_t coarse_size);

/// MultiBudgetCut plus the proof: every adjacent (coarser, finer) pair of
/// the ladder — and the finest level against the input — is reconciled
/// bottom-up via Reaggregate and compared bitwise. `budgets` must be
/// strictly ascending (MultiBudgetCut's contract); the returned ladder is
/// coarsest first, like MultiBudgetCut's.
[[nodiscard]] Result<std::vector<Reduction>> MultiResolution(
    const PtaIndex& index, const std::vector<size_t>& budgets);

}  // namespace advisor
}  // namespace pta

#endif  // PTA_ADVISOR_MULTI_RESOLUTION_H_
