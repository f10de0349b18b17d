#include "serve/server.h"

#include <utility>

#include "pta/index.h"
#include "pta/index_io.h"
#include "util/binio.h"
#include "util/mutex.h"

namespace pta {

using serve_internal::Dataset;

// ---- PtaSession ---------------------------------------------------------

PtaSession::PtaSession(PtaServer* server, std::shared_ptr<Dataset> dataset,
                       ItaSpec spec, std::vector<double> weights)
    : server_(server),
      dataset_(std::move(dataset)),
      spec_(std::move(spec)),
      weights_(std::move(weights)) {}

const std::string& PtaSession::dataset() const {
  static const std::string kEmpty;
  return dataset_ != nullptr ? dataset_->name : kEmpty;
}

PtaQuery PtaSession::MakeQuery() const {
  PtaQuery query = dataset_->relation != nullptr
                       ? PtaQuery::Over(dataset_->relation)
                       : PtaQuery::OverSequential(dataset_->sequential);
  query.Spec(spec_).Engine(Engine::kIndexed);
  if (!weights_.empty()) query.Weights(weights_);
  return query;
}

Result<PtaResult> PtaSession::Cut(Budget budget, PtaRunStats* stats) const {
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "empty session; obtain sessions from PtaServer::OpenSession");
  }
  ReaderMutexLock lock(&dataset_->mu);
  return MakeQuery().WithBudget(budget).Run(stats);
}

Result<std::future<Result<PtaResult>>> PtaSession::CutAsync(
    Budget budget) const {
  if (dataset_ == nullptr || server_ == nullptr) {
    return Status::FailedPrecondition(
        "empty session; obtain sessions from PtaServer::OpenSession");
  }
  return server_->Submit(*this, budget);
}

Result<std::vector<Reduction>> PtaSession::ZoomLadder(
    const std::vector<size_t>& sizes) const {
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "empty session; obtain sessions from PtaServer::OpenSession");
  }
  ReaderMutexLock lock(&dataset_->mu);
  // The ladder carries its own sizes; the plan's budget is a placeholder
  // that only shapes validation, never a cut (fingerprints are
  // budget-stripped, so it does not fragment the cache either).
  auto plan = MakeQuery().Budget(Budget::Size(1)).Plan();
  if (!plan.ok()) return plan.status();
  auto index = internal::IndexCacheGetOrBuild(*plan, nullptr);
  if (!index.ok()) return index.status();
  return (*index)->MultiBudgetCut(sizes);
}

Result<advisor::Advice> PtaSession::Advise(
    const advisor::AdvisorOptions& options) const {
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "empty session; obtain sessions from PtaServer::OpenSession");
  }
  ReaderMutexLock lock(&dataset_->mu);
  auto plan = MakeQuery().Budget(Budget::Size(1)).Plan();
  if (!plan.ok()) return plan.status();
  auto index = internal::IndexCacheGetOrBuild(*plan, nullptr);
  if (!index.ok()) return index.status();
  return advisor::Advise(**index, options);
}

// ---- PtaServer ----------------------------------------------------------

PtaServer::PtaServer(ServeOptions options)
    : options_(std::move(options)), pool_(options_.num_threads) {
  if (options_.cache_config.has_value()) {
    PtaIndexCacheSetConfig(*options_.cache_config);
  }
}

PtaServer::~PtaServer() {
  // pool_ is the first member destroyed (declared last); its destructor
  // drains every admitted request before the registry goes away.
}

std::shared_ptr<Dataset> PtaServer::Find(const std::string& name) const {
  MutexLock lock(&registry_mu_);
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

namespace {

// Moves a pinned dataset's pin from the owner an update replaced to the
// current one.
void CarryPin(const Dataset& dataset, const std::shared_ptr<const void>& old)
    PTA_REQUIRES(dataset.mu) {
  if (!dataset.pinned) return;
  PtaIndexCachePin(old, false);
  PtaIndexCachePin(dataset.owner(), true);
}

}  // namespace

Status PtaServer::Register(std::shared_ptr<Dataset> dataset) {
  if (dataset->name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  std::string name = dataset->name;
  MutexLock lock(&registry_mu_);
  if (!datasets_.emplace(std::move(name), std::move(dataset)).second) {
    return Status::InvalidArgument("dataset already registered");
  }
  return Status::Ok();
}

Status PtaServer::AddDataset(std::string name, TemporalRelation data) {
  return Register(std::make_shared<Dataset>(std::move(name), std::move(data)));
}

Status PtaServer::AddDataset(std::string name, SequentialRelation data) {
  return Register(std::make_shared<Dataset>(std::move(name), std::move(data)));
}

Status PtaServer::UpdateDataset(const std::string& name,
                                TemporalRelation data) {
  auto dataset = Find(name);
  if (dataset == nullptr) return Status::NotFound("unknown dataset: " + name);
  // Declared before the lock, so the old data it receives is freed after
  // the lock is released: readers queued behind this writer do not also
  // wait for the free (tens of ms on large relations).
  auto next = std::make_shared<const TemporalRelation>(std::move(data));
  WriterMutexLock lock(&dataset->mu);
  if (dataset->relation == nullptr) {
    return Status::InvalidArgument(
        "dataset is sequential; update it with a SequentialRelation");
  }
  // A new owner: the indexes of the old data lapse with it.
  dataset->relation.swap(next);
  CarryPin(*dataset, next);
  return Status::Ok();
}

Status PtaServer::UpdateDataset(const std::string& name,
                                SequentialRelation data) {
  auto dataset = Find(name);
  if (dataset == nullptr) return Status::NotFound("unknown dataset: " + name);
  auto next = std::make_shared<const SequentialRelation>(std::move(data));
  WriterMutexLock lock(&dataset->mu);  // old data freed after it, as above
  if (dataset->sequential == nullptr) {
    return Status::InvalidArgument(
        "dataset is temporal; update it with a TemporalRelation");
  }
  dataset->sequential.swap(next);
  CarryPin(*dataset, next);
  return Status::Ok();
}

Status PtaServer::DropDataset(const std::string& name) {
  std::shared_ptr<Dataset> dataset;
  {
    MutexLock lock(&registry_mu_);
    const auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("unknown dataset: " + name);
    }
    dataset = std::move(it->second);
    datasets_.erase(it);
  }
  // Open sessions may still serve the data; only the pin goes.
  WriterMutexLock lock(&dataset->mu);
  if (dataset->pinned) PtaIndexCachePin(dataset->owner(), false);
  dataset->pinned = false;
  return Status::Ok();
}

Status PtaServer::PinDataset(const std::string& name, bool pinned) {
  auto dataset = Find(name);
  if (dataset == nullptr) return Status::NotFound("unknown dataset: " + name);
  WriterMutexLock lock(&dataset->mu);
  dataset->pinned = pinned;
  PtaIndexCachePin(dataset->owner(), pinned);
  return Status::Ok();
}

Result<PtaSession> PtaServer::OpenSession(const std::string& dataset,
                                          ItaSpec spec,
                                          std::vector<double> weights) {
  auto handle = Find(dataset);
  if (handle == nullptr) {
    return Status::NotFound("unknown dataset: " + dataset);
  }
  PtaSession session(this, std::move(handle), std::move(spec),
                     std::move(weights));
  {
    // Validate the shape eagerly — a malformed session would otherwise
    // fail on every request, after admission already spent queue capacity
    // on it.
    ReaderMutexLock lock(&session.dataset_->mu);
    auto plan = session.MakeQuery().Budget(Budget::Size(1)).Plan();
    if (!plan.ok()) return plan.status();
  }
  return session;
}

Status PtaServer::SaveDataset(const std::string& name,
                              const std::string& path, ItaSpec spec,
                              std::vector<double> weights) {
  auto handle = Find(name);
  if (handle == nullptr) return Status::NotFound("unknown dataset: " + name);
  PtaSession session(this, std::move(handle), std::move(spec),
                     std::move(weights));
  std::string bytes;
  {
    // Build (or fetch) under the shared lock like any query, so the saved
    // bytes can never interleave with an UpdateDataset swap; the file
    // write happens outside it.
    ReaderMutexLock lock(&session.dataset_->mu);
    auto plan = session.MakeQuery().Budget(Budget::Size(1)).Plan();
    if (!plan.ok()) return plan.status();
    auto index = internal::IndexCacheGetOrBuild(*plan, nullptr);
    if (!index.ok()) return index.status();
    bytes = SerializeIndex(**index);
  }
  return io::WriteFile(path, bytes);
}

Result<PtaSession> PtaServer::WarmStart(const std::string& name,
                                        const std::string& path) {
  Result<PtaIndex> loaded = LoadIndex(path);
  if (!loaded.ok()) return loaded.status();
  if (loaded->merge_across_gaps()) {
    return Status::InvalidArgument(
        "index was built with merge_across_gaps, which serve sessions "
        "never use; it cannot warm-start a served dataset");
  }
  // The recorded input becomes the served data of a record built here, so
  // the loaded index is seeded under this record's owner and no other.
  PtaSession session(
      this,
      std::make_shared<Dataset>(name, SequentialRelation(loaded->input())),
      ItaSpec{}, loaded->weights());
  ReaderMutexLock lock(&session.dataset_->mu);
  auto plan = session.MakeQuery().Budget(Budget::Size(1)).Plan();
  if (!plan.ok()) return plan.status();
  PTA_RETURN_IF_ERROR(Register(session.dataset_));
  internal::IndexCacheInsert(
      *plan, std::make_shared<const PtaIndex>(std::move(*loaded)));
  return session;
}

Result<std::future<Result<PtaResult>>> PtaServer::Submit(PtaSession session,
                                                         Budget budget) {
  auto promise = std::make_shared<std::promise<Result<PtaResult>>>();
  std::future<Result<PtaResult>> future = promise->get_future();
  const bool admitted = pool_.TrySubmit(
      [this, promise, session = std::move(session), budget] {
        auto result = session.Cut(budget);
        if (result.ok()) {
          completed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed_.fetch_add(1, std::memory_order_relaxed);
        }
        promise->set_value(std::move(result));
      },
      options_.max_pending);
  if (!admitted) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "serving queue is full (max_pending = " +
        std::to_string(options_.max_pending) + "); retry later");
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

PtaServerStats PtaServer::stats() const {
  PtaServerStats out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&registry_mu_);
    out.datasets = datasets_.size();
  }
  out.pending = pool_.pending();
  return out;
}

}  // namespace pta
