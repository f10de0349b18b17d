#include "pta/plan.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <utility>

#include "pta/dp.h"
#include "pta/error.h"
#include "pta/index.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace pta {

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kExactDp:
      return "exact_dp";
    case Engine::kGreedy:
      return "greedy";
    case Engine::kParallel:
      return "parallel";
    case Engine::kStreaming:
      return "streaming";
    case Engine::kIndexed:
      return "indexed";
    case Engine::kAuto:
      return "auto";
  }
  return "unknown";
}

namespace {

// Counts segments as they pass through, so the greedy backends can report
// the ITA result size without materializing it.
class CountingSource : public SegmentSource {
 public:
  explicit CountingSource(SegmentSource& inner) : inner_(&inner) {}
  size_t num_aggregates() const override { return inner_->num_aggregates(); }
  bool Next(Segment* out) override {
    if (!inner_->Next(out)) return false;
    ++count_;
    return true;
  }
  size_t count() const { return count_; }

 private:
  SegmentSource* inner_;
  size_t count_ = 0;
};

// Estimates Emax by evaluating ITA over a Bernoulli sample of the input and
// scaling the sample's maximal error by the inverse sampling rate
// (Sec. 6.3's sampling suggestion).
Result<double> EstimateMaxError(const TemporalRelation& rel,
                                const ItaSpec& spec,
                                const GreedyPtaOptions& options,
                                size_t num_threads) {
  const double q = options.sample_fraction;
  if (q <= 0.0 || q > 1.0) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1]");
  }
  TemporalRelation sample(rel.schema());
  Random rng(options.sample_seed);
  for (const Tuple& t : rel.tuples()) {
    if (rng.Bernoulli(q)) sample.InsertUnchecked(t);
  }
  if (sample.empty()) return 0.0;
  auto ita = Ita(sample, spec, num_threads);
  if (!ita.ok()) return ita.status();
  const ErrorContext ctx(*ita, options.weights, options.merge_across_gaps);
  return ctx.MaxError() / q;
}

// Scatter step of the parallel engine: partition a group-major segment
// source into per-shard sequential relations by stable group hash.
Result<ShardedSegmentSource> ShardSource(
    SegmentSource& source, const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const ParallelOptions& parallel) {
  size_t num_shards = parallel.num_shards;
  if (num_shards == 0) {
    num_shards = parallel.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                           : parallel.num_threads;
  }
  auto shard_map =
      GroupShardMap(group_keys, group_by, parallel.shard_by, num_shards);
  if (!shard_map.ok()) return shard_map.status();
  return ShardedSegmentSource::Partition(source, num_shards, *shard_map);
}

Result<PtaResult> FromReduction(Result<Reduction> reduced, size_t ita_size) {
  if (!reduced.ok()) return reduced.status();
  PtaResult out;
  out.ita_size = ita_size;
  out.error = reduced->error;
  out.relation = std::move(reduced->relation);
  return out;
}

// ---- the budget-stripped plan fingerprint and the index cache -----------

// FNV-1a over explicitly fed bytes; every field is mixed through the same
// primitive so the fingerprint is platform-stable for a fixed process.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// What a cached index answers for: the input's owner (held weakly, so the
// cache never keeps data alive, and compared by owner, so a later input at
// a reused address never matches), the bound address inside that owner,
// and the plan's shape fingerprint.
struct IndexKey {
  std::weak_ptr<const void> owner;
  const void* input = nullptr;
  uint64_t fingerprint = 0;

  static IndexKey Of(const PtaPlan& plan) {
    IndexKey key;
    key.owner = plan.owner;
    key.input = plan.sequential != nullptr
                    ? static_cast<const void*>(plan.sequential)
                    : static_cast<const void*>(plan.relation);
    key.fingerprint = PlanFingerprint(plan);
    return key;
  }
  bool operator==(const IndexKey& other) const {
    return fingerprint == other.fingerprint && input == other.input &&
           SameOwner(owner, other.owner);
  }
  static bool SameOwner(const std::weak_ptr<const void>& a,
                        const std::weak_ptr<const void>& b) {
    return !a.owner_before(b) && !b.owner_before(a);
  }
};

// One build in flight per key: the first miss creates the record and
// builds; every concurrent miss on the same key blocks on the shared
// future instead of duplicating the work.
struct InFlightBuild {
  struct Outcome {
    std::shared_ptr<const PtaIndex> index;  // null when the build failed
    Status status;
    double build_seconds = 0.0;
  };
  IndexKey key;
  std::promise<Outcome> promise;
  std::shared_future<Outcome> future;
};

struct CacheEntry {
  IndexKey key;
  size_t bytes = 0;
  std::shared_ptr<const PtaIndex> index;
};

struct IndexCacheState {
  Mutex mu;
  /// Most recently used at the back; bounded by `config`.
  std::deque<CacheEntry> entries PTA_GUARDED_BY(mu);
  size_t total_bytes PTA_GUARDED_BY(mu) = 0;
  /// Builds in progress (the coalescing list; a handful at most).
  std::vector<std::shared_ptr<InFlightBuild>> inflight PTA_GUARDED_BY(mu);
  /// Owners whose entries are exempt from budget eviction.
  std::vector<std::weak_ptr<const void>> pinned PTA_GUARDED_BY(mu);
  PtaIndexCacheConfig config PTA_GUARDED_BY(mu);
  PtaIndexCacheStats stats PTA_GUARDED_BY(mu);
  std::function<void(uint64_t)> build_hook PTA_GUARDED_BY(mu);
};

IndexCacheState& CacheState() {
  static IndexCacheState* state = new IndexCacheState();
  return *state;
}

bool PinnedLocked(const IndexCacheState& state,
                  const std::weak_ptr<const void>& owner)
    PTA_REQUIRES(state.mu) {
  for (const auto& pin : state.pinned) {
    if (IndexKey::SameOwner(pin, owner)) return true;
  }
  return false;
}

// Evicts least-recently-used unpinned entries until both budgets hold.
// The entry `keep` (the one just inserted; null to keep nothing special)
// is never evicted: a cache whose budgets cannot fit the working index
// must not thrash. Skipped (pinned/kept) entries make this a scan, not a
// pop-front loop.
void EvictToBudgetLocked(IndexCacheState& state, const IndexKey* keep)
    PTA_REQUIRES(state.mu) {
  const auto over_budget = [&] {
    const size_t n = state.entries.size();
    if (state.config.max_entries != 0 && n > state.config.max_entries) {
      return true;
    }
    return state.config.max_bytes != 0 &&
           state.total_bytes > state.config.max_bytes;
  };
  auto it = state.entries.begin();
  while (over_budget() && it != state.entries.end()) {
    if ((keep != nullptr && it->key == *keep) ||
        PinnedLocked(state, it->key.owner)) {
      ++it;
      continue;
    }
    state.total_bytes -= it->bytes;
    ++state.stats.evictions;
    it = state.entries.erase(it);
  }
}

void InsertLocked(IndexCacheState& state, IndexKey key,
                  std::shared_ptr<const PtaIndex> index)
    PTA_REQUIRES(state.mu) {
  for (auto it = state.entries.begin(); it != state.entries.end(); ++it) {
    if (it->key == key) {
      state.total_bytes -= it->bytes;
      state.entries.erase(it);
      break;
    }
  }
  CacheEntry entry;
  entry.key = std::move(key);
  entry.bytes = index != nullptr ? index->MemoryFootprint() : 0;
  entry.index = std::move(index);
  state.total_bytes += entry.bytes;
  state.entries.push_back(std::move(entry));
  // A copy: eviction erases from the deque, which moves its elements.
  const IndexKey keep = state.entries.back().key;
  EvictToBudgetLocked(state, &keep);
}

std::shared_ptr<const PtaIndex> LookupLocked(IndexCacheState& state,
                                             const IndexKey& key)
    PTA_REQUIRES(state.mu) {
  for (auto it = state.entries.begin(); it != state.entries.end(); ++it) {
    if (it->key == key) {
      CacheEntry entry = std::move(*it);
      state.entries.erase(it);
      state.entries.push_back(std::move(entry));  // refresh LRU position
      return state.entries.back().index;
    }
  }
  return nullptr;
}

// Moves the entries and pins whose owner has expired out of the cache; the
// caller releases them after unlocking, so freeing a large index never
// holds up other lookups.
std::vector<CacheEntry> TakeExpiredLocked(IndexCacheState& state)
    PTA_REQUIRES(state.mu) {
  std::vector<CacheEntry> expired;
  for (auto it = state.entries.begin(); it != state.entries.end();) {
    if (it->key.owner.expired()) {
      state.total_bytes -= it->bytes;
      expired.push_back(std::move(*it));
      it = state.entries.erase(it);
    } else {
      ++it;
    }
  }
  auto& pins = state.pinned;
  pins.erase(std::remove_if(pins.begin(), pins.end(),
                            [](const auto& pin) { return pin.expired(); }),
             pins.end());
  return expired;
}

}  // namespace

uint64_t PlanFingerprint(const PtaPlan& plan) {
  Fnv64 h;
  if (plan.sequential != nullptr) {
    h.U64(1);
  } else if (plan.relation != nullptr) {
    h.U64(2);
  } else {
    h.U64(3);
    h.U64(plan.stream_arity);
  }
  h.U64(plan.spec.group_by.size());
  for (const std::string& attr : plan.spec.group_by) h.Str(attr);
  h.U64(plan.spec.aggregates.size());
  for (const AggregateSpec& agg : plan.spec.aggregates) {
    h.U64(static_cast<uint64_t>(agg.kind));
    h.Str(agg.attr);
    h.Str(agg.output_name);
  }
  // The planner injected the effective weights into every engine's options,
  // so the greedy copy is authoritative. Delta and the gPTAε estimation
  // knobs stay out of the key: they tune how the *greedy* engines
  // approximate GMS, but the index's content — the recorded GMS order —
  // is the same for all of them. The budget is deliberately absent — that
  // is the whole point.
  h.U64(plan.greedy.weights.size());
  for (const double w : plan.greedy.weights) h.F64(w);
  h.U64(plan.greedy.merge_across_gaps ? 1 : 0);
  return h.value();
}

void PtaIndexCacheSetConfig(const PtaIndexCacheConfig& config) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  state.config = config;
  EvictToBudgetLocked(state, /*keep=*/nullptr);
}

PtaIndexCacheConfig PtaIndexCacheGetConfig() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.config;
}

size_t PtaIndexCacheSize() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.entries.size();
}

size_t PtaIndexCacheBytes() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.total_bytes;
}

PtaIndexCacheStats PtaIndexCacheGetStats() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.stats;
}

void PtaIndexCachePin(const std::shared_ptr<const void>& owner, bool pinned) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  auto& pins = state.pinned;
  if (pinned) {
    if (!PinnedLocked(state, owner)) pins.emplace_back(owner);
  } else {
    pins.erase(std::remove_if(pins.begin(), pins.end(),
                              [&](const auto& pin) {
                                return IndexKey::SameOwner(pin, owner);
                              }),
               pins.end());
    EvictToBudgetLocked(state, /*keep=*/nullptr);
  }
}

void PtaIndexCacheClear() {
  IndexCacheState& state = CacheState();
  std::deque<CacheEntry> dropped;  // released after the lock
  MutexLock lock(&state.mu);
  dropped.swap(state.entries);
  state.total_bytes = 0;
}

namespace internal {

void IndexCacheInsert(const PtaPlan& plan,
                      std::shared_ptr<const PtaIndex> index) {
  if (plan.owner == nullptr) return;
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  InsertLocked(state, IndexKey::Of(plan), std::move(index));
}

void IndexCacheDropExpired() {
  IndexCacheState& state = CacheState();
  std::vector<CacheEntry> expired;  // released after the lock
  MutexLock lock(&state.mu);
  expired = TakeExpiredLocked(state);
}

void SetIndexCacheBuildHook(std::function<void(uint64_t)> hook) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  state.build_hook = std::move(hook);
}

Result<std::shared_ptr<const PtaIndex>> IndexCacheGetOrBuild(
    const PtaPlan& plan, PtaIndexRunStats* stats) {
  const bool cached = plan.owner != nullptr;
  IndexKey key = IndexKey::Of(plan);
  IndexCacheState& state = CacheState();
  std::shared_ptr<InFlightBuild> build;
  bool owns_build = false;
  std::vector<CacheEntry> expired;
  std::function<void(uint64_t)> hook;
  {
    MutexLock lock(&state.mu);
    if (cached) {
      if (auto index = LookupLocked(state, key)) {
        ++state.stats.hits;
        if (stats != nullptr) stats->cache_hit = true;
        return index;
      }
      for (const auto& inflight : state.inflight) {
        if (inflight->key == key) build = inflight;
      }
    }
    if (build != nullptr) {
      ++state.stats.coalesced;
    } else {
      ++state.stats.misses;
      ++state.stats.builds;
      build = std::make_shared<InFlightBuild>();
      build->key = key;
      build->future = build->promise.get_future().share();
      if (cached) state.inflight.push_back(build);
      owns_build = true;
      expired = TakeExpiredLocked(state);
      hook = state.build_hook;
    }
  }
  expired.clear();  // the dead owners' indexes, freed outside the lock

  if (!owns_build) {
    // Another thread is building this key right now; wait for its outcome
    // instead of duplicating the work (and the memory).
    const InFlightBuild::Outcome& outcome = build->future.get();
    if (!outcome.status.ok()) return outcome.status;
    if (stats != nullptr) {
      stats->coalesced = true;
      stats->build_seconds = outcome.build_seconds;
    }
    return outcome.index;
  }

  if (hook) hook(key.fingerprint);
  InFlightBuild::Outcome outcome;
  auto built = [&]() -> Result<PtaIndex> {
    SequentialRelation input;
    if (plan.sequential != nullptr) {
      // Build() owns its leaves (the index may outlive the caller's
      // relation inside the cache), so the input is copied once here.
      input = *plan.sequential;
    } else {
      auto ita = Ita(*plan.relation, plan.spec, plan.parallel.num_threads);
      if (!ita.ok()) return ita.status();
      input = std::move(*ita);
    }
    PtaIndexOptions options;
    options.weights = plan.greedy.weights;
    options.merge_across_gaps = plan.greedy.merge_across_gaps;
    options.num_threads = plan.parallel.num_threads;
    PtaIndexBuildStats build_stats;
    auto index = PtaIndex::Build(std::move(input), options, &build_stats);
    outcome.build_seconds = build_stats.build_seconds;
    return index;
  }();

  if (built.ok()) {
    outcome.index = std::make_shared<const PtaIndex>(std::move(*built));
  } else {
    outcome.status = built.status();
  }
  {
    MutexLock lock(&state.mu);
    auto& inflight = state.inflight;
    inflight.erase(std::remove(inflight.begin(), inflight.end(), build),
                   inflight.end());
    if (outcome.index == nullptr) {
      // A failed build is not remembered; the next request retries.
      --state.stats.builds;
    } else if (cached) {
      InsertLocked(state, std::move(key), outcome.index);
    }
  }
  // Fulfill outside the lock so woken waiters never contend on it.
  build->promise.set_value(outcome);
  if (!outcome.status.ok()) return outcome.status;
  if (stats != nullptr) stats->build_seconds = outcome.build_seconds;
  return outcome.index;
}

}  // namespace internal

size_t PtaPlan::num_aggregates() const {
  if (sequential != nullptr) return sequential->num_aggregates();
  if (stream_arity > 0) return stream_arity;
  return spec.aggregates.size();
}

namespace {

// ---- the batch executors ------------------------------------------------

// Either input binding lowered to what the streaming reducers consume: one
// group-major segment source, plus the metadata every result carries.
struct BoundInput {
  std::unique_ptr<SegmentSource> source;
  std::shared_ptr<const std::vector<GroupKey>> group_keys;
  std::vector<std::string> value_names;

  // The reduction as the query's result, carrying this input's metadata.
  Result<PtaResult> Finish(Result<Reduction> reduced, size_t ita_size) const {
    auto out = FromReduction(std::move(reduced), ita_size);
    if (!out.ok()) return out;
    out->relation.ShareGroupKeys(group_keys);
    out->relation.SetValueNames(value_names);
    return out;
  }
};

// A base relation streams out of ITA as it is swept (no materialized ITA
// result); a sequential input is read in place.
Result<BoundInput> Bind(const PtaPlan& plan) {
  BoundInput bound;
  if (plan.sequential != nullptr) {
    bound.source = std::make_unique<RelationSegmentSource>(*plan.sequential);
    bound.group_keys = plan.sequential->shared_group_keys();
    bound.value_names = plan.sequential->value_names();
    return bound;
  }
  auto stream = ItaStream::Create(*plan.relation, plan.spec,
                                  plan.parallel.num_threads);
  if (!stream.ok()) return stream.status();
  bound.group_keys = (*stream)->shared_group_keys();
  bound.value_names = (*stream)->value_names();
  bound.source = std::move(*stream);
  return bound;
}

Result<PtaResult> ExecExact(const PtaPlan& plan) {
  // The DP needs its whole input at once: a base relation's ITA result is
  // materialized, a sequential input is used as it is. Either way the DP
  // reconstructs the metadata from its input.
  SequentialRelation ita;
  const SequentialRelation* input = plan.sequential;
  if (input == nullptr) {
    auto full = Ita(*plan.relation, plan.spec, plan.parallel.num_threads);
    if (!full.ok()) return full.status();
    ita = std::move(*full);
    input = &ita;
  }
  auto reduced =
      plan.budget.is_size()
          ? ReduceToSizeDp(*input, plan.budget.size(), plan.exact)
          : ReduceToErrorDp(*input, plan.budget.relative_error(), plan.exact);
  return FromReduction(std::move(reduced), input->size());
}

// gPTAε's n̂ and Êmax (Sec. 6.3) unless the options override them. A base
// relation bounds n̂ by 2|r| - 1 (Sec. 3) and samples base tuples; a
// sequential input knows n exactly and samples its segments (fraction 1 =
// the exact MaxError).
Result<GreedyErrorEstimates> EstimateErrorBounds(const PtaPlan& plan) {
  const GreedyPtaOptions& options = plan.greedy;
  GreedyErrorEstimates estimates;
  if (options.estimated_n > 0) {
    estimates.estimated_n = options.estimated_n;
  } else if (plan.sequential != nullptr) {
    estimates.estimated_n = plan.sequential->size();
  } else {
    estimates.estimated_n =
        plan.relation->empty() ? 1 : 2 * plan.relation->size() - 1;
  }
  if (options.estimated_max_error >= 0.0) {
    estimates.estimated_max_error = options.estimated_max_error;
    return estimates;
  }
  auto est = plan.sequential != nullptr
                 ? EstimateMaxErrorBySampling(
                       *plan.sequential, options.weights,
                       options.sample_fraction, options.sample_seed,
                       options.merge_across_gaps)
                 : EstimateMaxError(*plan.relation, plan.spec, options,
                                    plan.parallel.num_threads);
  if (!est.ok()) return est.status();
  estimates.estimated_max_error = *est;
  return estimates;
}

Result<PtaResult> ExecGreedy(const PtaPlan& plan, GreedyStats* stats) {
  GreedyErrorEstimates estimates;
  if (!plan.budget.is_size()) {
    auto est = EstimateErrorBounds(plan);
    if (!est.ok()) return est.status();
    estimates = *est;
  }
  auto bound = Bind(plan);
  if (!bound.ok()) return bound.status();
  CountingSource source(*bound->source);
  auto reduced =
      plan.budget.is_size()
          ? GreedyReduceToSize(source, plan.budget.size(), plan.greedy, stats)
          : GreedyReduceToError(source, plan.budget.relative_error(),
                                estimates, plan.greedy, stats);
  return bound->Finish(std::move(reduced), source.count());
}

Result<PtaResult> ExecParallel(const PtaPlan& plan, ParallelStats* stats) {
  if (plan.sequential != nullptr && plan.sequential->group_keys().empty()) {
    return Status::InvalidArgument(
        "parallel engine over a sequential input requires group keys "
        "(SequentialRelation::SetGroupKeys)");
  }
  auto bound = Bind(plan);
  if (!bound.ok()) return bound.status();
  auto shards = ShardSource(*bound->source, *bound->group_keys,
                            plan.spec.group_by, plan.parallel);
  if (!shards.ok()) return shards.status();
  ParallelReduceOptions reduce;
  reduce.num_threads = plan.parallel.num_threads;
  reduce.greedy = static_cast<const GreedyOptions&>(plan.greedy);
  auto reduced =
      plan.budget.is_size()
          ? ParallelReduceToSize(*shards, plan.budget.size(), reduce, stats)
          : ParallelReduceToError(*shards, plan.budget.relative_error(),
                                  reduce, stats);
  return bound->Finish(std::move(reduced), shards->total_size());
}

// ---- the indexed backend (works for both input bindings) ---------------

Result<PtaResult> ExecIndexed(const PtaPlan& plan, PtaRunStats* stats) {
  PtaIndexRunStats* index_stats = stats != nullptr ? &stats->indexed : nullptr;
  auto index = internal::IndexCacheGetOrBuild(plan, index_stats);
  if (!index.ok()) return index.status();

  Stopwatch cut_watch;
  auto cut = plan.budget.is_size()
                 ? (*index)->CutToSize(plan.budget.size())
                 : (*index)->CutToError(plan.budget.relative_error());
  if (stats != nullptr) {
    stats->indexed.cut_seconds = cut_watch.ElapsedSeconds();
  }
  // The cut carries the index's leaf metadata (group keys, value names);
  // ita_size is the leaf count — on a cache hit the re-budget run skipped
  // ITA entirely, which is exactly the fast path being advertised.
  return FromReduction(std::move(cut), (*index)->input_size());
}

}  // namespace

Result<PtaResult> PtaPlan::Execute(PtaRunStats* stats) const {
  Stopwatch watch;
  GreedyStats* greedy_stats = stats != nullptr ? &stats->greedy : nullptr;
  ParallelStats* parallel_stats =
      stats != nullptr ? &stats->parallel : nullptr;

  auto run = [&]() -> Result<PtaResult> {
    switch (engine) {
      case Engine::kExactDp:
        return ExecExact(*this);
      case Engine::kGreedy:
        return ExecGreedy(*this, greedy_stats);
      case Engine::kParallel:
        return ExecParallel(*this, parallel_stats);
      case Engine::kIndexed:
        return ExecIndexed(*this, stats);
      case Engine::kStreaming:
        return Status::InvalidArgument(
            "a streaming plan has no batch execution; bind it with "
            "PtaQuery::Start() (pta/stream_api.h, link pta_stream)");
      case Engine::kAuto:
        break;
    }
    return Status::InvalidArgument(
        "plan has an unresolved engine; build plans with PtaQuery::Plan()");
  };

  auto out = run();
  if (stats != nullptr) {
    stats->engine = engine;
    stats->run_seconds = watch.ElapsedSeconds();
  }
  return out;
}

}  // namespace pta
