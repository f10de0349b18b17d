// Instant temporal aggregation (ITA), Def. 1.
//
// For every aggregation group g and time instant t, the aggregate functions
// are evaluated over all tuples with grouping values g whose timestamp
// contains t; value-equivalent results over consecutive instants are
// coalesced into maximal intervals. The result is a sequential relation of up
// to 2n-1 tuples.
//
// Two interfaces:
//  * Ita()      — batch: materializes the full result;
//  * ItaStream  — pull-based SegmentSource producing one coalesced result
//                 tuple at a time, so PTA's greedy reducers can merge while
//                 ITA is still running (Sec. 6.2's integrated evaluation).

#ifndef PTA_CORE_ITA_H_
#define PTA_CORE_ITA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/relation.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// \brief An ITA query: grouping attributes A and aggregate functions F.
struct ItaSpec {
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
};

/// \brief Streaming ITA evaluation.
///
/// Construction validates the spec against the relation's schema, buckets
/// the input per group, and copies every aggregate input once into a
/// contiguous group-major column block of doubles (row r of group g holds
/// its p inputs at [r * p, (r + 1) * p); COUNT reads 0). The sweep then
/// never touches the relation again, so the relation only needs to live
/// through Create(). `Next()` runs the per-group endpoint sweep lazily,
/// emitting each coalesced result tuple as soon as it is final. Groups are
/// emitted in their deterministic sorted order, chronologically within
/// each group, as the merging phase requires (Sec. 5.1).
///
/// Create() rejects, with an InvalidArgument naming the tuple index:
///  * a non-finite (NaN or infinite) aggregate input, naming the attribute
///    — MIN/MAX could not retire a NaN and running sums would stay
///    poisoned after the tuple ends;
///  * a tuple ending at the maximal chronon, whose end event `end + 1`
///    is not representable.
class ItaStream : public SegmentSource {
 public:
  [[nodiscard]] static Result<std::unique_ptr<ItaStream>> Create(const TemporalRelation& rel,
                                                   const ItaSpec& spec);
  ~ItaStream() override;

  size_t num_aggregates() const override { return aggregates_.size(); }
  bool Next(Segment* out) override;

  /// Group keys in dense-id order (valid immediately after construction).
  const std::vector<GroupKey>& group_keys() const { return group_keys_; }
  /// Result attribute names B_1 ... B_p.
  std::vector<std::string> value_names() const;

 private:
  explicit ItaStream(std::vector<AggregateSpec> aggregates);

  /// Buckets and copies `rel` into the column block; fails on the inputs
  /// the class comment lists.
  [[nodiscard]] Status Load(const TemporalRelation& rel,
                            const std::vector<size_t>& group_indices,
                            const std::vector<int>& agg_attr_indices);
  /// Loads the next group's events; false when all groups are done.
  bool StartNextGroup();
  /// Processes events until one segment is flushed or the group ends.
  void StepGroup(Segment* flushed, bool* has_flushed);

  std::vector<AggregateSpec> aggregates_;

  // The input, group-major: group g owns rows [group_begin_[g],
  // group_begin_[g + 1]); a row keeps the relative tuple order of its group.
  std::vector<GroupKey> group_keys_;
  std::vector<size_t> group_begin_;
  std::vector<Interval> intervals_;  // per row
  std::vector<double> columns_;      // rows * p aggregate inputs
  size_t current_group_ = 0;
  bool group_active_ = false;

  // Per-group sweep state: the group's boundary events in time order.
  struct TupleEvent {
    Chronon time;
    uint64_t tag;  // row << 1 | is_start
    bool is_start() const { return (tag & 1) != 0; }
  };
  std::vector<TupleEvent> events_;
  size_t event_pos_ = 0;
  int64_t active_count_ = 0;
  Chronon boundary_ = 0;
  std::vector<std::unique_ptr<Aggregator>> aggregators_;
  std::vector<double> current_;  // the elementary interval's values

  // Coalescing buffer.
  bool pending_valid_ = false;
  Segment pending_;
};

/// Batch ITA: materializes the full sequential result with group keys
/// attached. Equivalent to draining an ItaStream.
[[nodiscard]] Result<SequentialRelation> Ita(const TemporalRelation& rel,
                               const ItaSpec& spec);

/// \brief Stable shard assignment for ITA groups.
///
/// Maps each dense group id g to `GroupKeyHash(keys[g] projected onto
/// shard_by) % num_shards`. `group_by` gives the attribute order of the
/// stored keys (an ItaSpec's group_by); `shard_by` names the subset to hash
/// — empty means the full key, so every group gets its own shard slot.
/// The hash is byte-stable (FNV-1a over normalized payloads), so the same
/// data produces the same sharding on every platform and run. Fails when a
/// shard_by name is not a grouping attribute.
[[nodiscard]] Result<std::vector<uint32_t>> GroupShardMap(
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& shard_by, size_t num_shards);

}  // namespace pta

#endif  // PTA_CORE_ITA_H_
