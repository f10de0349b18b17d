#include "pta/segment.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

namespace pta {

SequentialRelation::SequentialRelation(size_t num_aggregates,
                                       std::vector<std::string> value_names)
    : p_(num_aggregates), value_names_(std::move(value_names)) {
  PTA_CHECK_MSG(value_names_.empty() || value_names_.size() == p_,
                "value_names arity must match num_aggregates");
}

void SequentialRelation::Append(int32_t group, Interval t,
                                const double* values) {
  groups_.push_back(group);
  intervals_.push_back(t);
  values_.insert(values_.end(), values, values + p_);
}

void SequentialRelation::Append(const Segment& seg) {
  PTA_CHECK_MSG(seg.values.size() == p_, "segment arity mismatch");
  Append(seg.group, seg.t, seg.values.data());
}

void SequentialRelation::AdoptColumns(std::vector<int32_t> groups,
                                      std::vector<Interval> intervals,
                                      std::vector<double> values) {
  PTA_CHECK_MSG(empty(), "AdoptColumns requires an empty relation");
  PTA_CHECK_MSG(intervals.size() == groups.size(),
                "column lengths must agree");
  PTA_CHECK_MSG(values.size() == groups.size() * p_,
                "value column must hold p doubles per row");
  groups_ = std::move(groups);
  intervals_ = std::move(intervals);
  values_ = std::move(values);
}

void SequentialRelation::SetGroupKeys(std::vector<GroupKey> keys) {
  group_keys_ = std::make_shared<const std::vector<GroupKey>>(std::move(keys));
}

const std::vector<GroupKey>& SequentialRelation::NoGroupKeys() {
  static const std::vector<GroupKey> kNone;
  return kNone;
}

void SequentialRelation::SetValueNames(std::vector<std::string> names) {
  PTA_CHECK_MSG(names.empty() || names.size() == p_,
                "value_names arity must match num_aggregates");
  value_names_ = std::move(names);
}

void SequentialRelation::Reserve(size_t n) {
  groups_.reserve(n);
  intervals_.reserve(n);
  values_.reserve(n * p_);
}

size_t SequentialRelation::CMin() const {
  if (empty()) return 0;
  size_t runs = 1;
  for (size_t i = 0; i + 1 < size(); ++i) {
    if (!AdjacentPair(i)) ++runs;
  }
  return runs;
}

Status SequentialRelation::Validate() const {
  for (size_t i = 0; i < size(); ++i) {
    const Interval& t = intervals_[i];
    const auto where = [&] {
      return "[" + std::to_string(t.begin) + ", " + std::to_string(t.end) +
             "] at segment " + std::to_string(i);
    };
    if (t.begin > t.end) {
      return Status::InvalidArgument("inverted interval " + where());
    }
    if (!LengthFitsInt64(t.begin, t.end)) {
      return Status::InvalidArgument("interval " + where() +
                                     " is longer than INT64_MAX chronons");
    }
  }
  // Merging sums lengths within a group (covered counts, Dsim's la + lb),
  // so each group's total length must fit in int64_t too. Every length
  // does (checked above), so a running sum of two cannot wrap uint64_t.
  uint64_t group_length = size() == 0 ? 0 : intervals_[0].length();
  for (size_t i = 0; i + 1 < size(); ++i) {
    if (groups_[i] > groups_[i + 1]) {
      return Status::FailedPrecondition(
          "segments not sorted by group at position " + std::to_string(i));
    }
    const uint64_t length = static_cast<uint64_t>(intervals_[i + 1].length());
    if (groups_[i] != groups_[i + 1]) {
      group_length = length;
      continue;
    }
    if (intervals_[i].end >= intervals_[i + 1].begin) {
      return Status::FailedPrecondition(
          "segments overlap or are unsorted within group at position " +
          std::to_string(i));
    }
    group_length += length;
    if (group_length > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument(
          "group " + std::to_string(groups_[i]) +
          " covers more than INT64_MAX chronons by segment " +
          std::to_string(i + 1));
    }
  }
  for (size_t k = 0; k < values_.size(); ++k) {
    if (!std::isfinite(values_[k])) {
      return Status::InvalidArgument(
          "non-finite value (" + std::to_string(values_[k]) +
          ") at segment " + std::to_string(k / p_) + ", dimension " +
          std::to_string(k % p_));
    }
  }
  return Status::Ok();
}

Result<TemporalRelation> SequentialRelation::ToTemporalRelation(
    const Schema& group_schema) const {
  std::vector<AttributeDef> attrs = group_schema.attributes();
  for (size_t d = 0; d < p_; ++d) {
    const std::string name =
        value_names_.empty() ? "B" + std::to_string(d + 1) : value_names_[d];
    attrs.push_back({name, ValueType::kDouble});
  }
  TemporalRelation out{Schema(std::move(attrs))};
  out.Reserve(size());
  const std::vector<GroupKey>& keys = group_keys();
  for (size_t i = 0; i < size(); ++i) {
    std::vector<Value> row;
    row.reserve(group_schema.num_attributes() + p_);
    if (!keys.empty()) {
      const size_t gid = static_cast<size_t>(groups_[i]);
      if (gid >= keys.size()) {
        return Status::FailedPrecondition("group id without group key");
      }
      const GroupKey& key = keys[gid];
      if (key.size() != group_schema.num_attributes()) {
        return Status::InvalidArgument(
            "group schema arity does not match stored group keys");
      }
      for (const Value& v : key) row.push_back(v);
    } else if (group_schema.num_attributes() != 0) {
      return Status::InvalidArgument(
          "relation has no group keys but group schema is non-empty");
    }
    for (size_t d = 0; d < p_; ++d) row.push_back(Value(value(i, d)));
    PTA_RETURN_IF_ERROR(out.Insert(std::move(row), intervals_[i]));
  }
  return out;
}

bool SequentialRelation::ApproxEquals(const SequentialRelation& other,
                                      double tol) const {
  if (size() != other.size() || p_ != other.p_) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (groups_[i] != other.groups_[i]) return false;
    if (!(intervals_[i] == other.intervals_[i])) return false;
    for (size_t d = 0; d < p_; ++d) {
      if (std::fabs(value(i, d) - other.value(i, d)) > tol) return false;
    }
  }
  return true;
}

bool SequentialRelation::BitwiseEquals(const SequentialRelation& other) const {
  if (size() != other.size() || p_ != other.p_) return false;
  if (empty()) return true;
  if (std::memcmp(groups_.data(), other.groups_.data(),
                  size() * sizeof(int32_t)) != 0) {
    return false;
  }
  for (size_t i = 0; i < size(); ++i) {
    if (!(intervals_[i] == other.intervals_[i])) return false;
  }
  // memcmp, not ==, so signed zeros differ and equal-payload NaNs match.
  return values_.empty() ||
         std::memcmp(values_.data(), other.values_.data(),
                     values_.size() * sizeof(double)) == 0;
}

std::string SequentialRelation::ToString() const {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < size(); ++i) {
    std::snprintf(buf, sizeof(buf), "g=%d ", groups_[i]);
    out += buf;
    out += intervals_[i].ToString();
    out += " (";
    for (size_t d = 0; d < p_; ++d) {
      if (d > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%g", value(i, d));
      out += buf;
    }
    out += ")\n";
  }
  return out;
}

Result<ShardedSegmentSource> ShardedSegmentSource::Partition(
    SegmentSource& source, size_t num_shards,
    const std::vector<uint32_t>& shard_of) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  for (uint32_t s : shard_of) {
    if (s >= num_shards) {
      return Status::InvalidArgument("shard map entry " + std::to_string(s) +
                                     " >= num_shards = " +
                                     std::to_string(num_shards));
    }
  }
  ShardedSegmentSource out;
  out.p_ = source.num_aggregates();
  out.shard_of_ = shard_of;
  out.shards_.assign(num_shards, SequentialRelation(out.p_));

  Segment seg;
  while (source.Next(&seg)) {
    if (seg.group < 0 ||
        static_cast<size_t>(seg.group) >= shard_of.size()) {
      return Status::OutOfRange("group id " + std::to_string(seg.group) +
                                " has no shard map entry");
    }
    SequentialRelation& shard = out.shards_[shard_of[seg.group]];
    if (!shard.empty()) {
      const size_t last = shard.size() - 1;
      const bool ordered =
          shard.group(last) < seg.group ||
          (shard.group(last) == seg.group &&
           shard.interval(last).end < seg.t.begin);
      if (!ordered) {
        return Status::FailedPrecondition(
            "source is not in group-then-time order at segment " +
            std::to_string(out.total_size_));
      }
    }
    shard.Append(seg);
    const size_t group_count = static_cast<size_t>(seg.group) + 1;
    if (group_count > out.num_groups_) out.num_groups_ = group_count;
    ++out.total_size_;
  }
  return out;
}

bool RelationSegmentSource::Next(Segment* out) {
  if (pos_ >= rel_->size()) return false;
  out->group = rel_->group(pos_);
  out->t = rel_->interval(pos_);
  const double* v = rel_->values(pos_);
  out->values.assign(v, v + rel_->num_aggregates());
  ++pos_;
  return true;
}

SequentialRelation FromTimeSeries(
    const std::vector<std::vector<double>>& dims) {
  PTA_CHECK_MSG(!dims.empty(), "need at least one series");
  const size_t n = dims[0].size();
  for (const auto& d : dims) {
    PTA_CHECK_MSG(d.size() == n, "all series must have the same length");
  }
  SequentialRelation rel(dims.size());
  rel.Reserve(n);
  std::vector<double> row(dims.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims.size(); ++d) row[d] = dims[d][i];
    rel.Append(0, Interval(static_cast<Chronon>(i), static_cast<Chronon>(i)),
               row.data());
  }
  rel.SetGroupKeys({GroupKey{}});
  return rel;
}

Result<std::vector<std::vector<double>>> ToTimeSeries(
    const SequentialRelation& rel) {
  if (rel.empty()) {
    return Status::FailedPrecondition("empty relation");
  }
  for (size_t i = 0; i + 1 < rel.size(); ++i) {
    if (!rel.AdjacentPair(i)) {
      return Status::FailedPrecondition(
          "relation has gaps or multiple groups; time-series expansion "
          "requires a single gap-free group");
    }
  }
  const size_t p = rel.num_aggregates();
  std::vector<std::vector<double>> out(p);
  const int64_t total = rel.interval(rel.size() - 1).end -
                        rel.interval(0).begin + 1;
  for (auto& dim : out) dim.reserve(static_cast<size_t>(total));
  for (size_t i = 0; i < rel.size(); ++i) {
    const int64_t len = rel.length(i);
    for (size_t d = 0; d < p; ++d) {
      out[d].insert(out[d].end(), static_cast<size_t>(len), rel.value(i, d));
    }
  }
  return out;
}

}  // namespace pta
