// The concurrent PTA serving layer: a long-lived PtaServer owning shared
// datasets, answering many concurrent sessions' re-budget and zoom-ladder
// requests from the process-wide PtaIndex plan cache.
//
// This is examples/zoom_server grown into a subsystem. The serving
// workload — a dashboard fleet asking the same query shapes at
// ever-changing budgets ("Rediscovering Bottom-Up"-style temporal
// hierarchy serving) — is exactly what PR 5's index cache was built for,
// and exactly what stresses its concurrency story:
//
//   * many sessions miss the same index at once → the cache coalesces
//     them onto ONE PtaIndex build (pta/plan.h,
//     internal::IndexCacheGetOrBuild); the rest block on a shared future;
//   * datasets change → each dataset holds its data as an immutable shared
//     input, the owner the cache keys its indexes by; UpdateDataset
//     publishes a new owner, so no index of the old data can be served for
//     the new, and the old owner's entries lapse;
//   * memory is bounded → the cache's entry/byte budgets evict cold
//     indexes; PinDataset exempts the hot ones;
//   * load is bounded → async requests pass an admission check against a
//     bounded queue and are shed with Status::ResourceExhausted when the
//     worker pool (util/thread_pool.h) is saturated.
//
// Threading model: PtaServer methods are thread-safe. Every request copies
// its dataset's current data pointer (a snapshot) under a mutex held only
// for that copy, then plans, builds and cuts with no dataset lock held. A
// request that started before an UpdateDataset finishes on the old data and
// its index; one that starts after it sees the new data. Requests never
// wait for an update, and an update never waits for requests that start
// after its swap. UpdateDataset returns once every request still running on
// the replaced data has finished, and frees that data and its lapsed index
// on its own thread, never inside a reader's cut.
// PtaSession is an immutable handle; one session may be used from many
// threads at once, and sessions keep their dataset alive (shared
// ownership) even across DropDataset. Sessions must not outlive the
// server they came from.

#ifndef PTA_SERVE_SERVER_H_
#define PTA_SERVE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/advisor.h"
#include "core/ita.h"
#include "core/relation.h"
#include "pta/error.h"
#include "pta/plan.h"
#include "pta/query.h"
#include "pta/segment.h"
#include "serve/dataset.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace pta {

/// \brief Tuning of a PtaServer.
struct ServeOptions {
  /// Worker threads executing async requests; 0 means all hardware threads.
  size_t num_threads = 0;
  /// Admission bound: a CutAsync request is shed with
  /// Status::ResourceExhausted when this many requests are already queued
  /// or running. 0 disables shedding (unbounded queue).
  size_t max_pending = 1024;
  /// When set, applied to the process-wide index cache at construction
  /// (PtaIndexCacheSetConfig) — the cache is shared by the whole process,
  /// so this is a deliberate global effect, not per-server state.
  std::optional<PtaIndexCacheConfig> cache_config;
};

/// \brief Counters of one PtaServer (admission and completion accounting;
/// cache behavior is global — see PtaIndexCacheGetStats).
struct PtaServerStats {
  /// Async requests accepted into the worker queue.
  uint64_t admitted = 0;
  /// Async requests rejected with ResourceExhausted by the admission bound.
  uint64_t shed = 0;
  /// Async requests that finished with an OK result.
  uint64_t completed = 0;
  /// Async requests that finished with an error Status.
  uint64_t failed = 0;
  /// Datasets currently registered.
  size_t datasets = 0;
  /// Requests queued or running right now.
  size_t pending = 0;
};

class PtaServer;

/// \brief One client's query shape against one served dataset.
///
/// A session fixes everything but the budget — the grouping, the
/// aggregates, the weights — so every request it issues shares one
/// budget-stripped plan fingerprint and therefore one cached PtaIndex:
///
///   auto session = server.OpenSession("fleet", spec);
///   auto overview = session->Cut(Budget::Size(64));     // builds once
///   auto detail   = session->Cut(Budget::Size(2048));   // O(k) cut
///   auto ladder   = session->ZoomLadder({64, 256, 1024});
///
/// Sessions are cheap value types: copy them freely, use one from many
/// threads at once. They must not outlive their PtaServer.
class PtaSession {
 public:
  /// An empty session; every request fails with FailedPrecondition. Real
  /// sessions come from PtaServer::OpenSession — this exists for
  /// Result<PtaSession> and container plumbing.
  PtaSession() = default;

  /// Answers one budget, synchronously on the calling thread. The
  /// re-budgeting idiom: the first request after each AddDataset or
  /// UpdateDataset builds the index, every further budget is an O(k)
  /// frontier cut.
  [[nodiscard]] Result<PtaResult> Cut(Budget budget,
                                      PtaRunStats* stats = nullptr) const;

  /// Submits the cut to the server's worker pool. Sheds immediately with
  /// Status::ResourceExhausted when max_pending requests are already in
  /// flight; an admitted request reports its outcome through the future.
  [[nodiscard]] Result<std::future<Result<PtaResult>>> CutAsync(
      Budget budget) const;

  /// A whole zoom ladder — all cuts of a strictly ascending size vector —
  /// in one coarse-to-fine walk of the shared index (MultiBudgetCut).
  [[nodiscard]] Result<std::vector<Reduction>> ZoomLadder(
      const std::vector<size_t>& sizes) const;

  /// Runs the granularity advisor (advisor/advisor.h) against the
  /// session's shared index: builds — or fetches — the cached PtaIndex
  /// over a snapshot of the data, then walks its recorded error curve.
  /// Like Cut, the first call per dataset version pays the build; every
  /// further recommendation is O(k log k).
  [[nodiscard]] Result<advisor::Advice> Advise(
      const advisor::AdvisorOptions& options) const;

  /// The served dataset's registry name; empty for an empty session.
  const std::string& dataset() const;

 private:
  friend class PtaServer;
  PtaSession(PtaServer* server,
             std::shared_ptr<serve_internal::Dataset> dataset, ItaSpec spec,
             std::vector<double> weights);

  /// The session's query template over a snapshot of the dataset's current
  /// data: input binding + spec + weights + Engine::kIndexed. The query
  /// holds the data shared, so it runs on that version to the end.
  PtaQuery MakeQuery() const PTA_EXCLUDES(dataset_->mu);
  /// The budget-free plan of the session's index over a snapshot. The
  /// plan holds that version of the data until it is destroyed.
  [[nodiscard]] Result<PtaPlan> IndexPlan() const PTA_EXCLUDES(dataset_->mu);

  PtaServer* server_ = nullptr;
  std::shared_ptr<serve_internal::Dataset> dataset_;
  ItaSpec spec_;
  std::vector<double> weights_;
};

/// \brief Long-lived owner of shared datasets and a request worker pool.
///
/// Register datasets once (the server owns the data as shared inputs),
/// open sessions against them, and route changes through UpdateDataset,
/// which replaces a dataset's data with a new owner.
class PtaServer {
 public:
  explicit PtaServer(ServeOptions options = {});
  /// Drains every admitted request, then joins the workers.
  ~PtaServer();

  PtaServer(const PtaServer&) = delete;
  PtaServer& operator=(const PtaServer&) = delete;

  /// Registers a base temporal relation (ITA runs per index build) under a
  /// unique non-empty name. InvalidArgument on a duplicate or empty name.
  [[nodiscard]] Status AddDataset(std::string name, TemporalRelation data);
  /// Registers an already-aggregated sequential relation (ITA skipped).
  [[nodiscard]] Status AddDataset(std::string name, SequentialRelation data);

  /// Replaces a dataset's data with a new shared input; indexes built over
  /// the old data are keyed by the old owner and can never answer for the
  /// new one. A pin moves to the new owner. The input kind must match the
  /// registration (temporal/sequential). Open sessions keep working and
  /// rebuild the index on their next request. Returns once every request
  /// that started on the old data has finished, after freeing that data
  /// and its lapsed cache entries, so it must not be called from inside a
  /// request on the same dataset (an Advise holdout callback).
  [[nodiscard]] Status UpdateDataset(const std::string& name,
                                     TemporalRelation data);
  [[nodiscard]] Status UpdateDataset(const std::string& name,
                                     SequentialRelation data);

  /// Unregisters a dataset: removes the pin and forgets the name. Sessions
  /// already open keep shared ownership of the data and continue to work;
  /// the data's cache entries lapse once the last of them is gone. New
  /// OpenSession calls fail NotFound.
  [[nodiscard]] Status DropDataset(const std::string& name);

  /// Pins (or unpins) the dataset's cache entries: pinned indexes are
  /// exempt from the cache's entry/byte eviction — the hot-set contract of
  /// a serving process. The pin follows the dataset across updates.
  [[nodiscard]] Status PinDataset(const std::string& name, bool pinned);

  /// Opens a session: validates the spec against the dataset eagerly (so
  /// admission-time requests cannot fail on a malformed shape) and returns
  /// the immutable handle. NotFound for an unknown dataset.
  [[nodiscard]] Result<PtaSession> OpenSession(
      const std::string& dataset, ItaSpec spec,
      std::vector<double> weights = {});

  /// Persists the dataset's index for the given query shape (the same
  /// spec/weights a session would carry) to `path` via pta/index_io.h:
  /// builds the index — or reuses the cached one — over a snapshot of the
  /// data, then writes the serialized bytes. NotFound for an
  /// unknown dataset, IoError when the file cannot be written.
  [[nodiscard]] Status SaveDataset(const std::string& name,
                                   const std::string& path, ItaSpec spec = {},
                                   std::vector<double> weights = {});

  /// The warm-start path: loads a persisted index from `path`, registers
  /// its recorded input as a new sequential dataset under `name`, seeds
  /// the process-wide plan cache with the loaded index under that
  /// dataset's owner, and returns an open session — whose first Cut at any
  /// budget is an O(k) frontier walk, no rebuild. The subsequent lifecycle
  /// is unchanged: after UpdateDataset the warmed index lapses like any
  /// other cache entry. Fails InvalidArgument on malformed index bytes, on
  /// a duplicate name (leaving the cache as it was), or on a gap-merging
  /// index (serve sessions never use merge_across_gaps, so such an index
  /// could never be served).
  [[nodiscard]] Result<PtaSession> WarmStart(const std::string& name,
                                             const std::string& path);

  PtaServerStats stats() const;
  const ServeOptions& options() const { return options_; }

 private:
  friend class PtaSession;

  std::shared_ptr<serve_internal::Dataset> Find(const std::string& name) const
      PTA_EXCLUDES(registry_mu_);
  /// Adds the record under its name; InvalidArgument on an empty or taken
  /// name.
  [[nodiscard]] Status Register(std::shared_ptr<serve_internal::Dataset> dataset)
      PTA_EXCLUDES(registry_mu_);
  [[nodiscard]] Result<std::future<Result<PtaResult>>> Submit(
      PtaSession session, Budget budget);

  ServeOptions options_;
  mutable Mutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<serve_internal::Dataset>>
      datasets_ PTA_GUARDED_BY(registry_mu_);
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  /// Declared last: destroyed first, so queued requests (which use the
  /// counters and datasets above) drain before any other member goes away.
  ThreadPool pool_;
};

}  // namespace pta

#endif  // PTA_SERVE_SERVER_H_
