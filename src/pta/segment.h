// The sequential-relation representation shared by ITA and the PTA reducers.
//
// An ITA result is a *sequential* relation (Sec. 3): within each aggregation
// group the tuple timestamps are pairwise disjoint, and the relation is sorted
// by group and, within each group, chronologically. SequentialRelation stores
// such data columnar: one dense group id, one interval and p aggregate values
// per segment. This is the input of every reduction algorithm (DP and greedy)
// and the output type of PTA.

#ifndef PTA_PTA_SEGMENT_H_
#define PTA_PTA_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/interval.h"
#include "core/relation.h"
#include "core/value.h"
#include "util/status.h"

namespace pta {

/// \brief Lightweight read-only view of one segment (one ITA result tuple).
struct SegmentView {
  int32_t group = 0;
  Interval t;
  /// Pointer to p aggregate values owned by the SequentialRelation.
  const double* values = nullptr;
};

/// \brief An owned segment, used when segments are produced one at a time.
struct Segment {
  int32_t group = 0;
  Interval t;
  std::vector<double> values;
};

/// \brief Columnar sequential relation: n segments with p aggregate values.
///
/// Segments must be appended sorted by group id and, within a group,
/// chronologically with disjoint intervals; `Validate()` checks this.
class SequentialRelation {
 public:
  SequentialRelation() = default;
  /// Creates an empty relation with p aggregate values per segment and
  /// optional result-attribute names (B_1 ... B_p).
  explicit SequentialRelation(size_t num_aggregates,
                              std::vector<std::string> value_names = {});

  size_t size() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }
  /// Number of aggregate values per segment (the paper's p).
  size_t num_aggregates() const { return p_; }

  int32_t group(size_t i) const { return groups_[i]; }
  const Interval& interval(size_t i) const { return intervals_[i]; }
  int64_t length(size_t i) const { return intervals_[i].length(); }
  const double* values(size_t i) const { return values_.data() + i * p_; }
  double value(size_t i, size_t d) const { return values_[i * p_ + d]; }
  SegmentView view(size_t i) const {
    return {groups_[i], intervals_[i], values(i)};
  }

  /// Appends a segment; `values` must point at p doubles.
  void Append(int32_t group, Interval t, const double* values);
  void Append(const Segment& seg);
  void Reserve(size_t n);

  /// Adopts whole columns by move (the persistence loader's bulk path —
  /// per-row Append dominates large index loads otherwise). The relation
  /// must be empty; `values` must hold exactly `groups.size() * p` doubles
  /// and `intervals` must match `groups` in length. No ordering checks
  /// happen here — callers run Validate() (or PtaIndex::FromParts) after.
  void AdoptColumns(std::vector<int32_t> groups,
                    std::vector<Interval> intervals,
                    std::vector<double> values);

  /// True if segments i and i+1 are adjacent (Def. 2): same group and no
  /// temporal gap. Requires i+1 < size().
  bool AdjacentPair(size_t i) const {
    return groups_[i] == groups_[i + 1] &&
           intervals_[i].MeetsBefore(intervals_[i + 1]);
  }

  /// The minimum size any reduction can reach (Sec. 4.1): the number of
  /// maximal runs of adjacent segments.
  size_t CMin() const;

  /// Optional metadata: the group key behind each dense group id, and names
  /// of the aggregate value columns.
  ///
  /// Group keys are immutable once set and shared, not copied: a copy of a
  /// relation, and every result built from one (cuts, ladders, reducer
  /// outputs, via ShareGroupKeys), points at one reference-counted vector.
  /// Nothing mutates that vector in place; SetGroupKeys and ShareGroupKeys
  /// replace this relation's pointer and leave every other holder as it was.
  void SetGroupKeys(std::vector<GroupKey> keys);
  /// Points this relation at `keys` (null clears them) without copying.
  void ShareGroupKeys(std::shared_ptr<const std::vector<GroupKey>> keys) {
    group_keys_ = std::move(keys);
  }
  /// The keys in dense-id order; an empty vector when none were set.
  const std::vector<GroupKey>& group_keys() const {
    return group_keys_ != nullptr ? *group_keys_ : NoGroupKeys();
  }
  /// The shared storage behind group_keys() (null when none were set), for
  /// ShareGroupKeys on a result derived from this relation.
  const std::shared_ptr<const std::vector<GroupKey>>& shared_group_keys()
      const {
    return group_keys_;
  }
  void SetValueNames(std::vector<std::string> names);
  const std::vector<std::string>& value_names() const { return value_names_; }

  /// Checks that every interval is proper (begin <= end) and that its
  /// length() fits in int64_t (InvalidArgument naming the segment), then
  /// ordering (group ids non-decreasing, intervals within a group strictly
  /// ordered and disjoint; FailedPrecondition), then that every value is
  /// finite (InvalidArgument naming the segment and dimension).
  [[nodiscard]] Status Validate() const;

  /// Converts to a generic TemporalRelation with schema
  /// (group attrs..., value columns...); group attribute definitions come
  /// from `group_schema` and must match the stored group keys' arity.
  [[nodiscard]] Result<TemporalRelation> ToTemporalRelation(const Schema& group_schema) const;

  /// Element-wise comparison with tolerance on aggregate values.
  bool ApproxEquals(const SequentialRelation& other, double tol = 1e-9) const;

  /// Exact comparison: same groups, intervals, and bit-identical aggregate
  /// doubles (NaNs with equal payloads compare equal, +0.0 != -0.0). This
  /// is the persistence-identity predicate — use it wherever "byte-
  /// identical to the reducer" is the claim, not ApproxEquals.
  bool BitwiseEquals(const SequentialRelation& other) const;

  /// Renders one segment per line: "g=<id> [b, e] (v1, ..., vp)".
  std::string ToString() const;

 private:
  static const std::vector<GroupKey>& NoGroupKeys();

  size_t p_ = 0;
  std::vector<int32_t> groups_;
  std::vector<Interval> intervals_;
  std::vector<double> values_;  // row-major, size() * p_
  std::shared_ptr<const std::vector<GroupKey>> group_keys_;
  std::vector<std::string> value_names_;
};

/// \brief Pull-based producer of segments in group-then-time order.
///
/// The greedy algorithms (Sec. 6) consume this interface so that merging can
/// begin before the full ITA result exists.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  /// Number of aggregate values per segment.
  virtual size_t num_aggregates() const = 0;
  /// Produces the next segment into *out; returns false when exhausted.
  virtual bool Next(Segment* out) = 0;
};

/// \brief SegmentSource over an already-materialized SequentialRelation.
class RelationSegmentSource : public SegmentSource {
 public:
  /// The relation must outlive the source.
  explicit RelationSegmentSource(const SequentialRelation& rel) : rel_(&rel) {}
  /// Binding a temporary would dangle immediately; forbid it.
  explicit RelationSegmentSource(SequentialRelation&&) = delete;

  size_t num_aggregates() const override { return rel_->num_aggregates(); }
  bool Next(Segment* out) override;

 private:
  const SequentialRelation* rel_;
  size_t pos_ = 0;
};

/// \brief A SegmentSource split into per-shard sequential relations.
///
/// Partition() drains the source once, routing each segment to
/// `shard_of[group]`. Because every group maps to exactly one shard and the
/// source emits segments in group-then-time order, each shard buffer is
/// itself a valid SequentialRelation (a group-subsequence of the stream) and
/// can be reduced independently — the scatter step of the parallel PTA
/// engine. Partitioning is single-threaded and deterministic: it depends
/// only on the segment sequence and the shard map.
class ShardedSegmentSource {
 public:
  /// An empty partition (0 shards); Result<T> needs this. Use Partition().
  ShardedSegmentSource() = default;

  /// Drains `source` into `num_shards` shard relations. `shard_of[g]` gives
  /// the shard of dense group id g and must be < num_shards; a group id at
  /// or beyond shard_of.size() is an error, as is a segment sequence whose
  /// per-shard projection violates sequential order.
  [[nodiscard]] static Result<ShardedSegmentSource> Partition(
      SegmentSource& source, size_t num_shards,
      const std::vector<uint32_t>& shard_of);

  size_t num_shards() const { return shards_.size(); }
  size_t num_aggregates() const { return p_; }
  /// Total number of segments drained from the source.
  size_t total_size() const { return total_size_; }
  /// Largest dense group id seen plus one (0 for an empty source).
  size_t num_groups() const { return num_groups_; }
  const SequentialRelation& shard(size_t s) const { return shards_[s]; }
  /// The group-id-to-shard map the partition was built with.
  const std::vector<uint32_t>& shard_of() const { return shard_of_; }

 private:
  size_t p_ = 0;
  size_t total_size_ = 0;
  size_t num_groups_ = 0;
  std::vector<SequentialRelation> shards_;
  std::vector<uint32_t> shard_of_;
};

/// Builds a single-group sequential relation from one or more equally long
/// time series: point i becomes a segment with timestamp [i, i] and one value
/// per series. This is how the UCR-style time series enter the PTA pipeline
/// (Sec. 7.1: "We replace the timestamp by a validity interval of length 1").
SequentialRelation FromTimeSeries(const std::vector<std::vector<double>>& dims);

/// Expands a single-group, gap-free sequential relation into one plain value
/// series per dimension (one entry per chronon). This is the representation
/// the time-series baselines (PAA, DWT, APCA, DFT, Chebyshev) operate on.
/// Fails if the relation has gaps or more than one group.
[[nodiscard]] Result<std::vector<std::vector<double>>> ToTimeSeries(
    const SequentialRelation& rel);

}  // namespace pta

#endif  // PTA_PTA_SEGMENT_H_
