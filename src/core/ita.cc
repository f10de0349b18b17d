#include "core/ita.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

namespace pta {

Result<std::unique_ptr<ItaStream>> ItaStream::Create(
    const TemporalRelation& rel, const ItaSpec& spec) {
  if (spec.aggregates.empty()) {
    return Status::InvalidArgument("ITA requires at least one aggregate");
  }
  auto group_indices = rel.schema().ResolveAll(spec.group_by);
  if (!group_indices.ok()) return group_indices.status();

  std::vector<int> agg_attr_indices;
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.kind == AggKind::kCount) {
      agg_attr_indices.push_back(-1);
      continue;
    }
    const int idx = rel.schema().IndexOf(agg.attr);
    if (idx < 0) {
      return Status::NotFound("unknown aggregate attribute: " + agg.attr);
    }
    const ValueType type = rel.schema().attribute(idx).type;
    if (type != ValueType::kInt64 && type != ValueType::kDouble) {
      return Status::InvalidArgument("aggregate attribute " + agg.attr +
                                     " is not numeric");
    }
    agg_attr_indices.push_back(idx);
  }

  std::unique_ptr<ItaStream> stream(new ItaStream(spec.aggregates));
  PTA_RETURN_IF_ERROR(stream->Load(rel, *group_indices, agg_attr_indices));
  return stream;
}

ItaStream::ItaStream(std::vector<AggregateSpec> aggregates)
    : aggregates_(std::move(aggregates)) {
  aggregators_.reserve(aggregates_.size());
  for (const AggregateSpec& agg : aggregates_) {
    aggregators_.push_back(CreateAggregator(agg.kind));
  }
  current_.resize(aggregates_.size());
  pending_.values.resize(aggregates_.size());
}

Status ItaStream::Load(const TemporalRelation& rel,
                       const std::vector<size_t>& group_indices,
                       const std::vector<int>& agg_attr_indices) {
  const size_t n = rel.size();
  const size_t p = aggregates_.size();

  // Bucket by projecting into one reused key; a key is copied only when it
  // opens a new group. std::map gives the deterministic sorted group order
  // (and with it the dense group ids) the merging phase relies on.
  std::map<GroupKey, uint32_t, decltype(&GroupKeyLess)> buckets(
      &GroupKeyLess);
  // Tuple i's group: its first-sight id, later remapped to the dense id.
  std::vector<uint32_t> group_of(n);
  GroupKey key(group_indices.size());
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = rel.tuple(i);
    for (size_t k = 0; k < group_indices.size(); ++k) {
      key[k] = tuple.value(group_indices[k]);
    }
    auto it = buckets.find(key);
    if (it == buckets.end()) {
      it = buckets.emplace(key, static_cast<uint32_t>(buckets.size())).first;
    }
    group_of[i] = it->second;
  }

  // Dense ids in key order, and each group's first row.
  std::vector<uint32_t> dense(buckets.size());
  group_keys_.reserve(buckets.size());
  for (auto& [group_key, id] : buckets) {
    dense[id] = static_cast<uint32_t>(group_keys_.size());
    group_keys_.push_back(group_key);
  }
  group_begin_.assign(buckets.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    group_of[i] = dense[group_of[i]];
    ++group_begin_[group_of[i] + 1];
  }
  for (size_t g = 0; g < buckets.size(); ++g) {
    group_begin_[g + 1] += group_begin_[g];
  }

  // Scatter intervals and aggregate inputs to their rows, validating each
  // tuple in input order so the first offending one is reported.
  std::vector<size_t> next_row(group_begin_.begin(), group_begin_.end() - 1);
  intervals_.resize(n);
  columns_.resize(n * p);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = rel.tuple(i);
    if (tuple.interval().end == std::numeric_limits<Chronon>::max()) {
      return Status::InvalidArgument(
          "ITA input tuple " + std::to_string(i) +
          " ends at the maximal chronon; its end event is not representable");
    }
    const size_t row = next_row[group_of[i]]++;
    intervals_[row] = tuple.interval();
    double* out = columns_.data() + row * p;
    for (size_t d = 0; d < p; ++d) {
      const int attr = agg_attr_indices[d];
      const double v = attr < 0 ? 0.0 : tuple.value(attr).ToDouble();
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "aggregate attribute '" + aggregates_[d].attr + "' of tuple " +
            std::to_string(i) + " is not finite (" +
            tuple.value(attr).ToString() + ")");
      }
      out[d] = v;
    }
  }
  return Status::Ok();
}

ItaStream::~ItaStream() = default;

std::vector<std::string> ItaStream::value_names() const {
  std::vector<std::string> names;
  names.reserve(aggregates_.size());
  for (const AggregateSpec& agg : aggregates_) names.push_back(agg.output_name);
  return names;
}

bool ItaStream::StartNextGroup() {
  if (current_group_ + 1 >= group_begin_.size()) return false;

  const size_t begin = group_begin_[current_group_];
  const size_t end = group_begin_[current_group_ + 1];
  events_.clear();
  events_.reserve((end - begin) * 2);
  for (size_t row = begin; row < end; ++row) {
    const Interval& t = intervals_[row];
    events_.push_back({t.begin, (row << 1) | 1});
    events_.push_back({t.end + 1, row << 1});
  }
  // End events sort before start events at the same instant so that an
  // aggregator never simultaneously holds a tuple that ended at t-1 and one
  // that starts at t (their order is otherwise irrelevant: segments are
  // emitted before any event at the boundary applies). Same-instant events
  // of one kind keep whatever order the sort leaves them in, and running
  // sums depend on that order — so neither the initial sequence nor the
  // comparator may change without re-pinning the sweep's output bits.
  std::sort(events_.begin(), events_.end(),
            [](const TupleEvent& a, const TupleEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.is_start() < b.is_start();
            });
  event_pos_ = 0;
  active_count_ = 0;
  boundary_ = events_.empty() ? 0 : events_.front().time;
  for (auto& agg : aggregators_) agg->Reset();
  group_active_ = true;
  return true;
}

void ItaStream::StepGroup(Segment* flushed, bool* has_flushed) {
  *has_flushed = false;
  PTA_DCHECK(group_active_);

  // End of the current group: flush the pending coalesced segment.
  if (event_pos_ >= events_.size()) {
    if (pending_valid_) {
      *flushed = pending_;
      *has_flushed = true;
      pending_valid_ = false;
    }
    group_active_ = false;
    ++current_group_;
    return;
  }

  const Chronon t = events_[event_pos_].time;

  // Emit the elementary interval [boundary_, t-1] if tuples are active.
  if (active_count_ > 0 && boundary_ < t) {
    for (size_t d = 0; d < aggregators_.size(); ++d) {
      current_[d] = aggregators_[d]->Current();
    }
    const Interval elementary(boundary_, t - 1);
    // Coalesce value-equivalent adjacent results (Def. 1's final step).
    if (pending_valid_ && pending_.t.MeetsBefore(elementary) &&
        pending_.values == current_) {
      pending_.t.end = elementary.end;
    } else {
      if (pending_valid_) {
        *flushed = pending_;
        *has_flushed = true;
      }
      pending_.group = static_cast<int32_t>(current_group_);
      pending_.t = elementary;
      pending_.values = current_;
      pending_valid_ = true;
    }
  }

  // Apply every event at instant t.
  const size_t p = aggregators_.size();
  while (event_pos_ < events_.size() && events_[event_pos_].time == t) {
    const TupleEvent& ev = events_[event_pos_];
    const double* v = columns_.data() + (ev.tag >> 1) * p;
    if (ev.is_start()) {
      for (size_t d = 0; d < p; ++d) aggregators_[d]->Add(v[d]);
      ++active_count_;
    } else {
      for (size_t d = 0; d < p; ++d) aggregators_[d]->Remove(v[d]);
      --active_count_;
    }
    ++event_pos_;
  }
  boundary_ = t;
}

bool ItaStream::Next(Segment* out) {
  while (true) {
    if (!group_active_ && !StartNextGroup()) {
      // All groups done; a pending segment would have been flushed by the
      // last StepGroup call of its group.
      return false;
    }
    bool has_flushed = false;
    StepGroup(out, &has_flushed);
    if (has_flushed) return true;
  }
}

Result<SequentialRelation> Ita(const TemporalRelation& rel,
                               const ItaSpec& spec) {
  auto stream = ItaStream::Create(rel, spec);
  if (!stream.ok()) return stream.status();
  ItaStream& s = **stream;

  SequentialRelation out(s.num_aggregates(), s.value_names());
  Segment seg;
  while (s.Next(&seg)) out.Append(seg);
  out.SetGroupKeys(s.group_keys());
  return out;
}

Result<std::vector<uint32_t>> GroupShardMap(
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& shard_by, size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  // Resolve shard_by names to positions within the group key.
  std::vector<size_t> positions;
  positions.reserve(shard_by.size());
  for (const std::string& name : shard_by) {
    size_t pos = group_by.size();
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (group_by[i] == name) {
        pos = i;
        break;
      }
    }
    if (pos == group_by.size()) {
      return Status::InvalidArgument("shard_by attribute '" + name +
                                     "' is not a grouping attribute");
    }
    positions.push_back(pos);
  }

  std::vector<uint32_t> shard_of;
  shard_of.reserve(group_keys.size());
  GroupKey projected;
  for (const GroupKey& key : group_keys) {
    if (!group_by.empty() && key.size() != group_by.size()) {
      return Status::InvalidArgument(
          "group key arity does not match group_by");
    }
    uint64_t h;
    if (shard_by.empty()) {
      h = GroupKeyHash(key);
    } else {
      projected.clear();
      for (size_t pos : positions) projected.push_back(key[pos]);
      h = GroupKeyHash(projected);
    }
    shard_of.push_back(static_cast<uint32_t>(h % num_shards));
  }
  return shard_of;
}

}  // namespace pta
