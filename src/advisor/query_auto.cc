// PtaQuery::BudgetAuto — declared in pta/query.h, defined here so the
// core query surface carries no advisor link unless the advisor is used
// (the same split as PtaQuery::Start in stream/stream_api.cc).

#include <algorithm>

#include "advisor/advisor.h"
#include "pta/plan.h"
#include "pta/query.h"

namespace pta {

Result<PtaQuery> PtaQuery::BudgetAuto(const advisor::AdvisorOptions& options,
                                      advisor::Advice* advice) const {
  if (is_stream_source_) {
    return Status::FailedPrecondition(
        "BudgetAuto needs a bound relation input; streaming queries are "
        "budgeted by the caller");
  }
  // A placeholder budget shapes validation only: plan fingerprints are
  // budget-stripped, so over a shared input the probe hits (or seeds) the
  // cache entry a later indexed run of the recommendation uses.
  PtaQuery probe = *this;
  probe.Budget(pta::Budget::Size(1));
  auto plan = probe.Plan();
  if (!plan.ok()) return plan.status();
  auto index = internal::IndexCacheGetOrBuild(*plan, nullptr);
  if (!index.ok()) return index.status();
  auto result = advisor::Advise(**index, options);
  if (!result.ok()) return result.status();
  if (advice != nullptr) *advice = *result;
  // An empty input advises budget 0; clamp so the returned query still
  // plans (its cut is empty either way).
  return WithBudget(
      pta::Budget::Size(std::max<size_t>(1, result->budget)));
}

}  // namespace pta
