// Temporal relations: a schema plus a multiset of temporal tuples, with the
// ordering and sequentiality helpers the aggregation operators rely on.

#ifndef PTA_CORE_RELATION_H_
#define PTA_CORE_RELATION_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tuple.h"
#include "util/status.h"

namespace pta {

/// \brief A temporal relation: schema + tuples, each with a validity interval.
class TemporalRelation {
 public:
  TemporalRelation() = default;
  explicit TemporalRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Appends a tuple after validating it against the schema.
  [[nodiscard]] Status Insert(std::vector<Value> values, Interval t);
  /// Appends a pre-built tuple after validating it against the schema.
  [[nodiscard]] Status Insert(Tuple tuple);
  /// Appends without validation; for trusted internal producers.
  void InsertUnchecked(Tuple tuple) { tuples_.push_back(std::move(tuple)); }

  void Clear() { tuples_.clear(); }
  void Reserve(size_t n) { tuples_.reserve(n); }

  /// Sorts tuples by their projection onto `group_indices`
  /// (lexicographically), then chronologically by interval begin, then end.
  /// This is the input order the PTA merging phase assumes (Sec. 5.1).
  void SortByGroupThenTime(const std::vector<size_t>& group_indices);

  /// True if within every group (projection onto `group_indices`) the tuple
  /// timestamps are pairwise disjoint — the paper's *sequential* property.
  bool IsSequential(const std::vector<size_t>& group_indices) const;

  /// InvalidArgument naming the attribute and the tuple when one of tuple
  /// i's grouping values (`group_indices`) is NaN: a NaN key has no place
  /// in the group order of ITA and STA.
  [[nodiscard]] Status CheckGroupingValues(
      size_t i, const std::vector<size_t>& group_indices) const;

  /// Minimum and maximum chronon covered by any tuple; fails on empty input.
  [[nodiscard]] Result<Interval> TimeSpan() const;

  /// Multiset equality (order-insensitive); used by tests.
  bool SameTuples(const TemporalRelation& other) const;

  /// Renders all tuples, one per line.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
};

/// \brief Stable group-hash partitioning of a base relation.
///
/// Splits `rel` into `num_shards` relations (all sharing rel's schema):
/// tuple t goes to shard `GroupKeyHash(t projected onto group_by) %
/// num_shards`, so all tuples of one aggregation group land in the same
/// shard and ITA/PTA can run per shard independently. Tuples keep their
/// relative order; the hash is byte-stable across platforms and runs.
/// Fails on unknown attribute names.
[[nodiscard]] Result<std::vector<TemporalRelation>> PartitionByGroupHash(
    const TemporalRelation& rel, const std::vector<std::string>& group_by,
    size_t num_shards);

}  // namespace pta

#endif  // PTA_CORE_RELATION_H_
