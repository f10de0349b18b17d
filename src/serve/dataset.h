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

#include <optional>
#include <string>

#include "core/relation.h"
#include "pta/segment.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pta {
namespace serve_internal {

/// \brief One served dataset: name, reader/writer lock, and the data.
///
/// The served data lives inside optionals so its address — the key of the
/// index cache's fingerprints, pins, and generation tags — is stable for
/// the dataset's whole lifetime, across in-place updates. Exactly one of
/// the two optionals is engaged, fixed at registration; *which* one is
/// engaged never changes, only the contained value does (that immutable
/// engagement is what lets address() run lock-free below).
struct Dataset {
  std::string name;
  /// Queries hold this shared; UpdateDataset/DropDataset hold it
  /// exclusive. Mutations therefore never race an index build reading the
  /// data, and queries on distinct datasets never contend. The lock is
  /// writer-preferring: a waiting writer blocks later readers, so each
  /// server entry point takes it exactly once (never nested shared), and
  /// UpdateDataset swaps the old data out under it but frees it after.
  mutable SharedMutex mu;
  std::optional<TemporalRelation> relation PTA_GUARDED_BY(mu);
  std::optional<SequentialRelation> sequential PTA_GUARDED_BY(mu);

  /// The stable cache-key address of the served data. Reads only the
  /// optionals' engagement flag, which is fixed at registration and never
  /// mutated — safe without the lock, but inexpressible in the annotation
  /// language (GUARDED_BY covers the whole optional), hence the targeted
  /// suppression.
  const void* address() const PTA_NO_THREAD_SAFETY_ANALYSIS {
    return relation.has_value() ? static_cast<const void*>(&*relation)
                                : static_cast<const void*>(&*sequential);
  }
};

}  // namespace serve_internal
}  // namespace pta

#endif  // PTA_SERVE_DATASET_H_
