// The served dataset record, lifted out of server.cc so its lock contract
// is visible to Clang Thread Safety Analysis at every use site.
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

/// \brief One served dataset: name, the current data, and its pin.
///
/// The served data is held as an immutable shared input. Its owner is what
/// the index cache keys this dataset's indexes and pin by, so an update
/// installs a new owner instead of changing the data in place: indexes of
/// the old data can never answer for the new. Exactly one of the two
/// pointers is set, and which one is fixed at registration.
///
/// `mu` guards only the pointers and the pin flag. A request copies the
/// pointer under it (a snapshot) and then plans, builds and cuts with no
/// lock held, so requests never wait for one another or for an update, and
/// a request that copied the old data finishes on it.
struct Dataset {
  Dataset(std::string name_in, TemporalRelation data)
      : name(std::move(name_in)),
        relation(std::make_shared<const TemporalRelation>(std::move(data))) {}
  Dataset(std::string name_in, SequentialRelation data)
      : name(std::move(name_in)),
        sequential(
            std::make_shared<const SequentialRelation>(std::move(data))) {}

  std::string name;
  mutable Mutex mu;
  std::shared_ptr<const TemporalRelation> relation PTA_GUARDED_BY(mu);
  std::shared_ptr<const SequentialRelation> sequential PTA_GUARDED_BY(mu);
  /// Set by PinDataset; UpdateDataset carries the pin to the new owner.
  bool pinned PTA_GUARDED_BY(mu) = false;

  /// The current data's owner, the index cache's key for this dataset.
  std::shared_ptr<const void> owner() const PTA_REQUIRES(mu) {
    if (relation != nullptr) return relation;
    return sequential;
  }
};

}  // namespace serve_internal
}  // namespace pta

#endif  // PTA_SERVE_DATASET_H_
