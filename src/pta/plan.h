// The PTA query plan: one validated, engine-resolved description of a PTA
// run, shared by every public entry point.
//
// The paper defines a single operator — PTA under a size bound c (Def. 6)
// or an error bound ε (Def. 7) — that this repo evaluates with five
// backends: the exact dynamic programs (pta/dp.h), the streaming greedy
// reducers (pta/greedy.h), the group-sharded parallel engine
// (pta/parallel.h), the PtaIndex merge tree (pta/index.h), and the online
// streaming engines (src/stream/). A
// PtaPlan separates the *what* (input, ItaSpec, Budget) from the *how*
// (Engine + per-engine tuning): planning validates the spec once — weight
// arity, budget range, group-by/schema mismatches — with consistent
// Status codes, resolves Engine::kAuto, and lowers to the chosen backend;
// Execute() then runs it. PtaQuery (pta/query.h) is the fluent builder
// that produces plans.

#ifndef PTA_PTA_PLAN_H_
#define PTA_PTA_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ita.h"
#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/parallel.h"
#include "pta/segment.h"
#include "pta/stream_options.h"
#include "util/status.h"

namespace pta {

/// \brief The evaluation backends a PTA query can lower to.
enum class Engine {
  /// The exact PTAc / PTAε dynamic programs of Sec. 5 (pta/dp.h).
  kExactDp = 0,
  /// The streaming greedy gPTAc / gPTAε reducers of Sec. 6 (pta/greedy.h).
  kGreedy,
  /// The group-sharded greedy engine on a thread pool (pta/parallel.h).
  kParallel,
  /// The online engines (src/stream/); run via PtaQuery::Start(), which
  /// returns a bound StreamingQuery handle (pta/stream_api.h).
  kStreaming,
  /// The PtaIndex merge-tree (pta/index.h): one recorded greedy run, then
  /// every budget is an O(k) cut, byte-identical to the GMS reducers.
  /// Over a shared input binding the built index is cached under the
  /// input's owner and the budget-stripped plan fingerprint, so re-running
  /// the query with only the budget changed skips both ITA and the merge.
  /// Over a plain reference the index serves this one run and is dropped.
  kIndexed,
  /// Planner's choice: kParallel when parallel tuning was given, else
  /// kExactDp for small inputs and kGreedy beyond kAutoExactDpMaxInput.
  kAuto,
};

/// Human-readable engine name ("exact_dp", "greedy", ...).
const char* EngineName(Engine engine);

/// Largest input (base tuples or pre-aggregated segments) for which
/// Engine::kAuto picks the exact dynamic program over the greedy reducer.
inline constexpr size_t kAutoExactDpMaxInput = 4096;

/// \brief The reduction budget of a PTA query: size-bounded (Def. 6) or
/// relative-error-bounded (Def. 7).
///
/// Construct with the static factories: `Budget::Size(100)` keeps at most
/// 100 tuples; `Budget::RelativeError(0.05)` keeps the introduced SSE
/// within 5% of the largest possible error Emax. A default-constructed
/// Budget is invalid (size 0) and rejected by the planner.
class Budget {
 public:
  enum class Kind { kSize = 0, kRelativeError };

  Budget() = default;

  static Budget Size(size_t c) {
    Budget b;
    b.kind_ = Kind::kSize;
    b.size_ = c;
    return b;
  }
  static Budget RelativeError(double eps) {
    Budget b;
    b.kind_ = Kind::kRelativeError;
    b.eps_ = eps;
    return b;
  }

  Kind kind() const { return kind_; }
  bool is_size() const { return kind_ == Kind::kSize; }
  /// The size bound c; meaningful only when is_size().
  size_t size() const { return size_; }
  /// The relative error bound in [0, 1]; meaningful only when !is_size().
  double relative_error() const { return eps_; }

 private:
  Kind kind_ = Kind::kSize;
  size_t size_ = 0;
  double eps_ = 0.0;
};

/// \brief Options for greedy PTA evaluation: the reducers' GreedyOptions
/// plus the knobs of gPTAε's n̂ / Êmax estimation (Sec. 6.3).
///
/// The estimation knobs are ignored by size-bounded runs and by the
/// parallel engine, which computes each shard's exact Emax instead.
struct GreedyPtaOptions : GreedyOptions {
  /// Êmax override; negative means "estimate by sampling the input".
  double estimated_max_error = -1.0;
  /// n̂ override; 0 means the paper's bound 2|r| - 1.
  size_t estimated_n = 0;
  /// Fraction of input tuples sampled for the Êmax estimate.
  double sample_fraction = 0.05;
  /// Seed of the deterministic sampler.
  uint64_t sample_seed = 42;
};

/// \brief The outcome of a PTA query.
struct PtaResult {
  /// The reduced relation; group keys and value names are attached, so
  /// `relation.ToTemporalRelation(group_schema)` yields displayable tuples.
  SequentialRelation relation;
  /// Total SSE (Def. 5) introduced by the reduction.
  double error = 0.0;
  /// Size of the intermediate ITA result.
  size_t ita_size = 0;
};

/// \brief Observability of one Engine::kIndexed execution.
struct PtaIndexRunStats {
  /// True when the plan-fingerprint cache already held the built index.
  bool cache_hit = false;
  /// True when this run missed but joined another thread's in-flight build
  /// of the same fingerprint instead of building its own copy.
  bool coalesced = false;
  /// Wall time of the index construction; 0 on a cache hit. A coalesced
  /// run reports the shared build's duration (what it waited on).
  double build_seconds = 0.0;
  /// Wall time of the O(k) budget cut itself.
  double cut_seconds = 0.0;
};

/// \brief Unified observability of one PTA run, subsuming the per-engine
/// GreedyStats / ParallelStats counters.
struct PtaRunStats {
  /// The engine that actually ran (kAuto resolved by the planner).
  Engine engine = Engine::kAuto;
  /// Wall time of validation + lowering (the planner's overhead).
  double plan_seconds = 0.0;
  /// Wall time of the backend execution.
  double run_seconds = 0.0;
  /// Filled by Engine::kGreedy runs.
  GreedyStats greedy;
  /// Filled by Engine::kParallel runs (includes per-shard GreedyStats).
  ParallelStats parallel;
  /// Filled by Engine::kIndexed runs.
  PtaIndexRunStats indexed;
};

/// \brief A validated, engine-resolved PTA query, ready to execute.
///
/// Produced by PtaQuery::Plan() — construct plans through the builder, not
/// by hand; Execute() trusts the planner's validation. Exactly one input
/// binding is set: `relation` (ITA runs first), `sequential` (the input is
/// already a sequential relation; ITA is skipped), or `stream_arity > 0`
/// (a relation-less streaming query, driven through StreamingQuery).
/// A reference-bound input must outlive the plan; a shared binding is kept
/// alive by `owner`.
struct PtaPlan {
  const TemporalRelation* relation = nullptr;
  const SequentialRelation* sequential = nullptr;
  /// The shared owner of the bound input when the query was bound through
  /// a shared_ptr (PtaQuery::Over / OverSequential); null for a reference
  /// binding. Only owned inputs have their indexes cached.
  std::shared_ptr<const void> owner;
  /// Aggregate arity of a relation-less streaming query; 0 otherwise.
  size_t stream_arity = 0;

  /// The query spec (group-by + aggregates); empty for pre-aggregated and
  /// relation-less inputs.
  ItaSpec spec;
  Budget budget;
  /// The resolved engine; never kAuto in a planned query.
  Engine engine = Engine::kGreedy;
  /// True when the query carried explicit parallel tuning — a streaming
  /// plan then binds a ShardedStreamingEngine instead of a single engine.
  bool shard_streaming = false;

  // Per-engine tuning; the planner has already injected the effective
  // weights and (for streaming) the size budget.
  DpOptions exact;
  GreedyPtaOptions greedy;
  ParallelOptions parallel;
  StreamingOptions streaming;

  /// Aggregate values per result tuple (the paper's p).
  size_t num_aggregates() const;

  /// Runs the plan on its batch backend. Streaming plans cannot Execute —
  /// they have no single return value; bind them with PtaQuery::Start().
  [[nodiscard]] Result<PtaResult> Execute(PtaRunStats* stats = nullptr) const;
};

/// \brief Budget-stripped shape fingerprint of a plan (FNV-1a, 64-bit).
///
/// Hashes what determines an index's content given its input — the
/// binding kind, the ItaSpec, the effective weights, and the gap-merging
/// flag — but *not* the input's data, the budget, the engine, or engine
/// tuning that cannot change a reduction's merge order. The process-wide
/// index cache below keys each index by the input's owner plus this
/// fingerprint, so two plans over one shared input with equal fingerprints
/// answer every budget from the same PtaIndex.
uint64_t PlanFingerprint(const PtaPlan& plan);

/// \brief Capacity limits of the process-wide index cache.
struct PtaIndexCacheConfig {
  /// Upper bound on cached indexes, LRU-evicted beyond it; 0 = unlimited.
  /// Pinned datasets' entries are exempt (see PtaIndexCachePin).
  size_t max_entries = 4;
  /// Approximate byte budget over PtaIndex::MemoryFootprint(); 0 =
  /// unlimited. Eviction under memory pressure drops least-recently-used
  /// unpinned entries but never the one just inserted — a cache too small
  /// for the working index would otherwise thrash on every request.
  size_t max_bytes = 0;
};

/// Replaces the cache limits and immediately evicts down to them.
void PtaIndexCacheSetConfig(const PtaIndexCacheConfig& config);
PtaIndexCacheConfig PtaIndexCacheGetConfig();

/// Number of built PtaIndex instances currently held by the process-wide
/// plan cache (observability; also used by tests).
size_t PtaIndexCacheSize();

/// Approximate bytes held by the cache (sum of entry footprints).
size_t PtaIndexCacheBytes();

/// \brief Monotonic counters of the process-wide index cache.
struct PtaIndexCacheStats {
  /// Lookups answered from a cached index.
  uint64_t hits = 0;
  /// Lookups that found neither an entry nor an in-flight build.
  uint64_t misses = 0;
  /// Actual PtaIndex constructions (== misses unless a build failed).
  uint64_t builds = 0;
  /// Lookups that joined another thread's in-flight build instead of
  /// duplicating it (the thundering-herd path).
  uint64_t coalesced = 0;
  /// Entries dropped by the entry or byte budget.
  uint64_t evictions = 0;
};
PtaIndexCacheStats PtaIndexCacheGetStats();

/// Pins (or unpins) every cache entry built over the shared input `owner`:
/// pinned entries are exempt from entry- and byte-budget eviction (Clear
/// still drops them). A pin lapses with its owner. Serving layers pin
/// their hot datasets.
void PtaIndexCachePin(const std::shared_ptr<const void>& owner, bool pinned);

/// Drops every cached index. Pins survive — clearing frees memory, it does
/// not change which inputs are hot.
void PtaIndexCacheClear();

class PtaIndex;  // pta/index.h

namespace internal {
// The plan cache's raw surface, shared by the kIndexed executor
// (pta/plan.cc), the advisor, PTA-QL, and the serving layer (src/serve/).
// Thread-safe.
//
// An entry is keyed by the plan's input owner — held weakly and compared by
// owner, so an input allocated after another was freed never matches the
// old entry, even at the same address — plus the bound address and
// PlanFingerprint. Entries whose owner has expired are dropped on the next
// miss, before its build starts, or by IndexCacheDropExpired.
/// Inserts a built index for an owned plan's input (LRU-evicting beyond
/// the configured budgets). A plan without an owner is not cached.
void IndexCacheInsert(const PtaPlan& plan,
                      std::shared_ptr<const PtaIndex> index);
/// The coalesced miss path: returns the cached index for the plan's key,
/// joining an in-flight build when one exists, and otherwise builds exactly
/// once — concurrent misses on one key trigger a single PtaIndex
/// construction; the others block on its shared future. On success an
/// owned plan's index is inserted; a reference-bound plan builds for the
/// caller alone (one miss, one build, nothing inserted). `stats`
/// (optional) reports cache_hit / coalesced / build_seconds.
[[nodiscard]] Result<std::shared_ptr<const PtaIndex>> IndexCacheGetOrBuild(
    const PtaPlan& plan, PtaIndexRunStats* stats);
/// Drops the entries and pins whose owner has expired and frees them
/// outside the cache lock. The serving layer calls it after freeing the data
/// an update replaced, so the lapsed index does not wait for the next miss.
void IndexCacheDropExpired();
/// Test hook, invoked once per actual index construction with the build's
/// fingerprint (before the build starts, outside the cache lock). Pass
/// nullptr to reset. Not for production use: set it only while no builds
/// are in flight.
void SetIndexCacheBuildHook(std::function<void(uint64_t)> hook);
}  // namespace internal

}  // namespace pta

#endif  // PTA_PTA_PLAN_H_
