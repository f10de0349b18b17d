// The served dataset record, lifted out of server.cc so its lock contract
// is visible to Clang Thread Safety Analysis at every use site (PtaSession
// methods in server.cc annotate PTA_REQUIRES_SHARED(dataset_->mu), which
// needs the complete type).
//
// Internal to the serving layer: sessions hold shared ownership, the
// server's registry maps names to these records. Not part of the public
// API surface — include serve/server.h instead.

#ifndef PTA_SERVE_DATASET_H_
#define PTA_SERVE_DATASET_H_

#include <memory>
#include <string>
#include <utility>

#include "core/relation.h"
#include "pta/segment.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pta {
namespace serve_internal {

/// \brief One served dataset: name, reader/writer lock, and the data.
///
/// The served data is held as an immutable shared input. Its owner is what
/// the index cache keys this dataset's indexes and pin by, so an update
/// installs a new owner instead of changing the data in place: indexes of
/// the old data can never answer for the new. Exactly one of the two
/// pointers is set, and which one is fixed at registration.
struct Dataset {
  Dataset(std::string name_in, TemporalRelation data)
      : name(std::move(name_in)),
        relation(std::make_shared<const TemporalRelation>(std::move(data))) {}
  Dataset(std::string name_in, SequentialRelation data)
      : name(std::move(name_in)),
        sequential(
            std::make_shared<const SequentialRelation>(std::move(data))) {}

  std::string name;
  /// Queries hold this shared; UpdateDataset/PinDataset/DropDataset hold it
  /// exclusive. Queries on distinct datasets never contend. The lock is
  /// writer-preferring: a waiting writer blocks later readers, so each
  /// server entry point takes it exactly once (never nested shared), and
  /// UpdateDataset swaps the old data out under it but frees it after.
  mutable SharedMutex mu;
  std::shared_ptr<const TemporalRelation> relation PTA_GUARDED_BY(mu);
  std::shared_ptr<const SequentialRelation> sequential PTA_GUARDED_BY(mu);
  /// Set by PinDataset; UpdateDataset carries the pin to the new owner.
  bool pinned PTA_GUARDED_BY(mu) = false;

  /// The current data's owner, the index cache's key for this dataset.
  std::shared_ptr<const void> owner() const PTA_REQUIRES_SHARED(mu) {
    if (relation != nullptr) return relation;
    return sequential;
  }
};

}  // namespace serve_internal
}  // namespace pta

#endif  // PTA_SERVE_DATASET_H_
