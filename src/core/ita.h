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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/relation.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

class ThreadPool;

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
/// its p inputs at [r * p, (r + 1) * p); COUNT reads 0). It then builds each
/// group's boundary events and sorts them. The sweep never touches the
/// relation again, so the relation only needs to live through Create().
/// Groups are emitted in their deterministic sorted order (the dense group
/// ids), chronologically within each group, as the merging phase requires
/// (Sec. 5.1).
///
/// Units. The sorted events are cut into units that sweep independently.
/// A unit ends at a group end, or right after an instant t at which no
/// tuple is active once all of t's events are applied. At such a point the
/// aggregators are bitwise in their Reset() state (a running sum is zeroed
/// when its count reaches 0, a MIN/MAX multiset is empty), and the next
/// result interval starts at least one chronon after the last one ended, so
/// coalescing cannot cross the cut either. A cut is taken at the first such
/// point at or past each multiple of a constant event count, so the units
/// are a pure function of the input. Sweeping the units one after another
/// therefore yields exactly the bits of one sweep per group.
///
/// Threads. Create() buckets and copies contiguous tuple ranges in
/// parallel and sorts different groups in parallel (one group is still one
/// sort). Group ids are the ranks of the keys in GroupKeyLess order; of
/// equivalent keys (-0.0 and +0.0) the one seen first in input order is
/// stored. `Next()` drains the swept units in order; while it drains one
/// wave (a few units per thread), the pool sweeps the next. Inputs that fit
/// one range and one unit run inline without a pool, and the pool is
/// released once the last unit is swept. The output (bits, group ids,
/// group keys, error messages) never depends on the thread count.
///
/// Create() rejects, with an InvalidArgument naming the tuple index:
///  * a NaN grouping value, naming the attribute — NaN has no place in the
///    group order;
///  * a tuple ending at the maximal chronon, whose end event `end + 1`
///    is not representable;
///  * a non-finite (NaN or infinite) aggregate input, naming the attribute
///    — MIN/MAX could not retire a NaN and running sums would stay
///    poisoned after the tuple ends.
/// When several tuples offend, the lowest tuple index is reported, and a
/// tuple is checked in the order listed.
class ItaStream : public SegmentSource {
 public:
  /// `num_threads` bounds the worker threads; 0 means all hardware threads.
  [[nodiscard]] static Result<std::unique_ptr<ItaStream>> Create(
      const TemporalRelation& rel, const ItaSpec& spec,
      size_t num_threads = 0);
  /// Joins the workers, which may still be sweeping a wave.
  ~ItaStream() override;
  ItaStream(const ItaStream&) = delete;
  ItaStream& operator=(const ItaStream&) = delete;

  size_t num_aggregates() const override { return aggregates_.size(); }
  bool Next(Segment* out) override;

  /// Group keys in dense-id order (valid immediately after construction).
  const std::vector<GroupKey>& group_keys() const { return *group_keys_; }
  /// The same keys as shared, immutable storage: results built from this
  /// stream point at it (SequentialRelation::ShareGroupKeys).
  const std::shared_ptr<const std::vector<GroupKey>>& shared_group_keys()
      const {
    return group_keys_;
  }
  /// Result attribute names B_1 ... B_p.
  std::vector<std::string> value_names() const;

 private:
  friend Result<SequentialRelation> Ita(const TemporalRelation& rel,
                                        const ItaSpec& spec,
                                        size_t num_threads);

  // A tuple boundary: `time` is the tuple's begin (start) or end + 1.
  struct TupleEvent {
    Chronon time;
    uint64_t tag;  // row << 1 | is_start
    bool is_start() const { return (tag & 1) != 0; }
  };
  // One swept unit's coalesced result tuples, columnar.
  struct UnitBuffer {
    std::vector<int32_t> groups;
    std::vector<Interval> intervals;
    std::vector<double> values;  // p per row
  };

  ItaStream(std::vector<AggregateSpec> aggregates, size_t num_threads);

  /// Buckets and copies `rel` into the column block; fails on the inputs
  /// the class comment lists.
  [[nodiscard]] Status Load(const TemporalRelation& rel,
                            const std::vector<size_t>& group_indices,
                            const std::vector<int>& agg_attr_indices);
  /// Builds and sorts every group's events and cuts them into units.
  void BuildUnits();
  /// Starts sweeping the next wave of units into next_wave_ (on the pool
  /// when there is one, else inline).
  void LaunchWave();
  /// Makes the launched wave current and launches the one after it; false
  /// when no units are left.
  bool AdvanceWave();
  /// Sweeps events [begin, end), which start and end at unit cuts.
  void SweepUnit(size_t begin, size_t end, UnitBuffer* out) const;
  /// Runs fn(0) ... fn(count - 1), on the pool when that can help.
  void RunTasks(size_t count, const std::function<void(size_t)>& fn);

  std::vector<AggregateSpec> aggregates_;
  size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;

  // The input, group-major: group g owns rows [group_begin_[g],
  // group_begin_[g + 1]) and events [2 * group_begin_[g],
  // 2 * group_begin_[g + 1]); a row keeps the relative tuple order of its
  // group, and row r starts as events 2r (start) and 2r + 1 (end).
  std::shared_ptr<const std::vector<GroupKey>> group_keys_;
  std::vector<size_t> group_begin_;
  std::unique_ptr<TupleEvent[]> events_;  // then each group's in time order
  std::unique_ptr<double[]> columns_;     // rows * p aggregate inputs

  // Unit u spans events [unit_end_[u - 1], unit_end_[u]) (from 0 for u = 0).
  std::vector<size_t> unit_end_;
  size_t next_unit_ = 0;
  // The current wave's buffers and the read position in them, and the
  // buffers of the wave being swept meanwhile.
  std::vector<UnitBuffer> wave_;
  size_t wave_unit_ = 0;
  size_t wave_row_ = 0;
  std::vector<UnitBuffer> next_wave_;
  bool wave_pending_ = false;
};

/// Batch ITA: materializes the full sequential result with group keys
/// attached. Equivalent to draining an ItaStream; `num_threads` as there.
[[nodiscard]] Result<SequentialRelation> Ita(const TemporalRelation& rel,
                                             const ItaSpec& spec,
                                             size_t num_threads = 0);

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
