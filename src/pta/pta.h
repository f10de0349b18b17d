// Parsimonious temporal aggregation — the batch public API.
//
// PTA (Def. 6/7) evaluates ITA over the argument relation, then reduces the
// ITA result by merging adjacent tuples until a size bound c or error bound
// eps is met. The surface is the PtaQuery builder (pta/query.h), which this
// umbrella header re-exports together with the building blocks it lowers
// to:
//
//   auto result = PtaQuery::Over(proj)
//                     .GroupBy("Proj")
//                     .Aggregate(Avg("Sal", "AvgSal"))
//                     .Budget(Budget::Size(4))
//                     .Run();
//
// The planner (pta/plan.h) validates the query once and lowers it to the
// exact dynamic programs of Sec. 5 (Engine::kExactDp, pta/dp.h), the
// streaming greedy algorithms of Sec. 6 (Engine::kGreedy, pta/greedy.h),
// the group-sharded parallel engine (Engine::kParallel, pta/parallel.h),
// or the PtaIndex merge tree (Engine::kIndexed, pta/index.h) whose one
// recorded greedy run answers any re-budgeted query as an O(k) cut.
//
// The online surface (StreamingQuery and the engines it wraps) lives in
// pta/stream_api.h and the pta_stream library; this header needs pta_algo
// only. It declares nothing of its own.

#ifndef PTA_PTA_PTA_H_
#define PTA_PTA_PTA_H_

#include "core/ita.h"
#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/index.h"
#include "pta/parallel.h"
#include "pta/plan.h"
#include "pta/query.h"

#endif  // PTA_PTA_PTA_H_
