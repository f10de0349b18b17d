#include "core/relation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

namespace pta {

Status TemporalRelation::Insert(std::vector<Value> values, Interval t) {
  PTA_RETURN_IF_ERROR(schema_.ValidateRow(values));
  if (t.begin > t.end) {
    return Status::InvalidArgument("interval begin exceeds end");
  }
  tuples_.emplace_back(std::move(values), t);
  return Status::Ok();
}

Status TemporalRelation::Insert(Tuple tuple) {
  PTA_RETURN_IF_ERROR(schema_.ValidateRow(tuple.values()));
  if (tuple.interval().begin > tuple.interval().end) {
    return Status::InvalidArgument("interval begin exceeds end");
  }
  tuples_.push_back(std::move(tuple));
  return Status::Ok();
}

void TemporalRelation::SortByGroupThenTime(
    const std::vector<size_t>& group_indices) {
  std::stable_sort(
      tuples_.begin(), tuples_.end(),
      [&group_indices](const Tuple& a, const Tuple& b) {
        for (size_t idx : group_indices) {
          if (a.value(idx) < b.value(idx)) return true;
          if (b.value(idx) < a.value(idx)) return false;
        }
        if (a.interval().begin != b.interval().begin) {
          return a.interval().begin < b.interval().begin;
        }
        return a.interval().end < b.interval().end;
      });
}

bool TemporalRelation::IsSequential(
    const std::vector<size_t>& group_indices) const {
  // Bucket intervals per group, then check pairwise disjointness within each
  // bucket by sorting.
  std::unordered_map<GroupKey, std::vector<Interval>, GroupKeyHasher> groups;
  for (const Tuple& t : tuples_) {
    groups[t.Project(group_indices)].push_back(t.interval());
  }
  // Computes an order-independent bool (all buckets pairwise disjoint);
  // no output depends on the iteration order.
  // pta-lint: allow(unordered-iteration) -- order-independent predicate
  for (auto& [key, intervals] : groups) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    for (size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i - 1].end >= intervals[i].begin) return false;
    }
  }
  return true;
}

Status TemporalRelation::CheckGroupingValues(
    size_t i, const std::vector<size_t>& group_indices) const {
  for (const size_t attr : group_indices) {
    const Value& v = tuples_[i].value(attr);
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDoubleExact())) {
      return Status::InvalidArgument("grouping attribute '" +
                                     schema_.attribute(attr).name +
                                     "' of tuple " + std::to_string(i) +
                                     " is NaN");
    }
  }
  return Status::Ok();
}

Result<Interval> TemporalRelation::TimeSpan() const {
  if (tuples_.empty()) {
    return Status::FailedPrecondition("relation is empty");
  }
  Chronon lo = tuples_.front().interval().begin;
  Chronon hi = tuples_.front().interval().end;
  for (const Tuple& t : tuples_) {
    lo = std::min(lo, t.interval().begin);
    hi = std::max(hi, t.interval().end);
  }
  return Interval(lo, hi);
}

bool TemporalRelation::SameTuples(const TemporalRelation& other) const {
  if (size() != other.size()) return false;
  auto key = [](const Tuple& t) {
    std::string k = t.ToString();
    return k;
  };
  std::vector<std::string> a, b;
  a.reserve(size());
  b.reserve(size());
  for (const Tuple& t : tuples_) a.push_back(key(t));
  for (const Tuple& t : other.tuples_) b.push_back(key(t));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::string TemporalRelation::ToString() const {
  std::string out;
  for (const Tuple& t : tuples_) {
    out += t.ToString();
    out += "\n";
  }
  return out;
}

Result<std::vector<TemporalRelation>> PartitionByGroupHash(
    const TemporalRelation& rel, const std::vector<std::string>& group_by,
    size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  auto indices = rel.schema().ResolveAll(group_by);
  if (!indices.ok()) return indices.status();

  std::vector<TemporalRelation> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards.emplace_back(rel.schema());
  }
  for (const Tuple& t : rel.tuples()) {
    const uint64_t h = GroupKeyHash(t.Project(*indices));
    shards[static_cast<size_t>(h % num_shards)].InsertUnchecked(t);
  }
  return shards;
}

}  // namespace pta
