// PtaQuery — the fluent query surface over every PTA backend.
//
// One builder separates *what* is asked (input, grouping, aggregates,
// Budget) from *how* it is evaluated (Engine + tuning), so call sites no
// longer pick an implementation before they have stated their query:
//
//   auto result = PtaQuery::Over(proj)
//                     .GroupBy("Proj")
//                     .Aggregate(Avg("Sal", "AvgSal"))
//                     .Budget(Budget::Size(4))
//                     .Engine(Engine::kGreedy)
//                     .Run();
//
// Plan() validates the spec once (weight arity, budget range,
// group-by/schema mismatches — uniformly Status::InvalidArgument) and
// lowers to the chosen backend; Run() plans and executes. Three input
// bindings cover the repo's workloads:
//
//   * Over(rel)            — a base TemporalRelation; ITA runs first;
//   * OverSequential(rel)  — an already-aggregated SequentialRelation
//                            (a materialized ITA result, a sensor archive,
//                            a FromTimeSeries conversion); ITA is skipped;
//   * Stream(p)            — no input yet: an online query over segments
//                            with p aggregate values, driven chunk by
//                            chunk through the StreamingQuery handle that
//                            Start() returns (pta/stream_api.h).
//
// Over and OverSequential take the input by reference or shared. A shared
// binding keeps the input alive and lets Engine::kIndexed reuse one built
// PtaIndex across budgets; the input must not change while it is shared —
// new data is a new shared_ptr.
//
// The builder is the only batch entry point; docs/API.md maps the paper's
// algorithms onto it.

#ifndef PTA_PTA_QUERY_H_
#define PTA_PTA_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "pta/plan.h"
#include "util/status.h"

namespace pta {

class StreamingQuery;  // pta/stream_api.h (pta_stream library)

namespace advisor {  // advisor/advisor.h (pta_advisor library)
struct Advice;
struct AdvisorOptions;
}  // namespace advisor

/// \brief Fluent builder for PTA queries.
///
/// Setters return *this, so a query reads as one chained expression; the
/// builder is also copyable, so a partially-specified query can serve as a
/// template. A reference-bound input must outlive the builder and any plan
/// or streaming handle produced from it; a shared binding is kept alive by
/// them.
class PtaQuery {
 public:
  /// A query over a base temporal relation; ITA runs before reduction.
  static PtaQuery Over(const TemporalRelation& rel);
  /// The shared binding: the query co-owns the relation, and kIndexed
  /// runs cache their index under it (pta/plan.h). Treat `*rel` as
  /// immutable while any query, plan or session holds it.
  static PtaQuery Over(std::shared_ptr<const TemporalRelation> rel);
  /// A query over an already-aggregated sequential relation; ITA is
  /// skipped and GroupBy/Aggregate do not apply (the input's dense group
  /// ids and value columns are used as-is).
  static PtaQuery OverSequential(const SequentialRelation& rel);
  /// The shared binding of a sequential input (see Over above).
  static PtaQuery OverSequential(std::shared_ptr<const SequentialRelation> rel);
  /// A relation-less online query over segments with `num_aggregates`
  /// values; bind it with Start(). Engine defaults to kStreaming.
  static PtaQuery Stream(size_t num_aggregates);

  /// Appends one grouping attribute (repeatable).
  PtaQuery& GroupBy(std::string attr);
  /// Appends several grouping attributes.
  PtaQuery& GroupBy(std::vector<std::string> attrs);
  /// Appends one aggregate function (repeatable), e.g.
  /// `Aggregate(Avg("Sal", "AvgSal"))`.
  PtaQuery& Aggregate(AggregateSpec agg);
  /// Appends several aggregate functions.
  PtaQuery& Aggregates(std::vector<AggregateSpec> aggs);
  /// Replaces grouping and aggregates with an existing ItaSpec.
  PtaQuery& Spec(ItaSpec spec);

  /// Sets the reduction budget (required): `Budget::Size(c)` or
  /// `Budget::RelativeError(eps)`.
  PtaQuery& Budget(pta::Budget budget);
  /// A copy of this query with only the budget replaced — the re-budgeting
  /// idiom. The copy plans and runs like any query: under Engine::kIndexed
  /// over a shared binding it cuts the index the first run cached.
  PtaQuery WithBudget(pta::Budget budget) const;
  /// Picks the evaluation backend; default kAuto (the planner chooses —
  /// kParallel when Parallel() tuning was given, else kExactDp up to
  /// kAutoExactDpMaxInput input tuples and kGreedy beyond).
  PtaQuery& Engine(pta::Engine engine);
  /// Per-dimension error weights w_d (Def. 5); empty means all ones.
  /// Overrides any weights carried inside the option structs below.
  PtaQuery& Weights(std::vector<double> weights);

  /// Tuning of the exact DP backend (pruning, early break, gap merging).
  PtaQuery& Exact(DpOptions options);
  /// Tuning of the greedy backends (delta, gap merging, gPTAε estimation);
  /// also the per-shard knobs of the parallel engine.
  PtaQuery& Greedy(GreedyPtaOptions options);
  /// Parallel sharding tuning. Also steers Engine::kAuto toward kParallel
  /// and makes a streaming query bind a ShardedStreamingEngine.
  PtaQuery& Parallel(ParallelOptions options);
  /// Streaming tuning (delta, watermark lag, gap merging); the size budget
  /// and weights are injected from Budget()/Weights() at plan time.
  PtaQuery& Streaming(StreamingOptions options);

  /// Validates and lowers the query without executing it.
  [[nodiscard]] Result<PtaPlan> Plan() const;

  /// Plans and executes the query on its batch backend. For streaming
  /// queries use Start() instead.
  [[nodiscard]] Result<PtaResult> Run(PtaRunStats* stats = nullptr) const;

  /// Plans the query and binds it to an online engine, returning the
  /// StreamingQuery handle (Ingest/AdvanceWatermark/TakeEmitted/Snapshot/
  /// Finalize). Declared here, defined in the pta_stream library — include
  /// pta/stream_api.h and link pta_stream to use it. Requires a Stream(p)
  /// source (an engine never ingests a pre-bound input) and a size budget.
  [[nodiscard]] Result<StreamingQuery> Start() const;

  /// Lets the granularity advisor pick the budget: plans the query,
  /// obtains (or builds) its PtaIndex through the plan cache, runs
  /// advisor::Advise, and returns a copy of this query re-budgeted via
  /// WithBudget. Under Engine::kIndexed over a shared binding, running the
  /// copy cuts the index the advisor just consulted. `advice` (optional)
  /// receives the full recommendation. Declared here, defined in the
  /// pta_advisor library — include advisor/advisor.h and link pta_advisor
  /// to use it. Requires a bound relation input (not a Stream source).
  [[nodiscard]] Result<PtaQuery> BudgetAuto(const advisor::AdvisorOptions& options,
                              advisor::Advice* advice = nullptr) const;

 private:
  PtaQuery() = default;
  // Result<T> default-constructs its payload on the error path; keeping
  // the default constructor private otherwise preserves the "queries start
  // from Over/OverSequential/Stream" invariant for everyone else.
  template <typename T>
  friend class Result;

  const TemporalRelation* relation_ = nullptr;
  const SequentialRelation* sequential_ = nullptr;
  /// The shared binding's owner of relation_ / sequential_; null when the
  /// input is bound by reference.
  std::shared_ptr<const void> owner_;
  size_t stream_arity_ = 0;
  bool is_stream_source_ = false;

  ItaSpec spec_;
  pta::Budget budget_;
  bool has_budget_ = false;
  pta::Engine engine_ = pta::Engine::kAuto;
  std::vector<double> weights_;

  DpOptions exact_;
  GreedyPtaOptions greedy_;
  ParallelOptions parallel_;
  bool has_parallel_ = false;
  StreamingOptions streaming_;
};

}  // namespace pta

#endif  // PTA_PTA_QUERY_H_
