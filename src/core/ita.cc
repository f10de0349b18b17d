#include "core/ita.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>

#include "util/parallel_sort.h"
#include "util/thread_pool.h"

namespace pta {

namespace {

// Tuples per bucketing/scatter range, and the event count whose multiples
// place the unit cuts. Both are constants so that ranges and units depend
// on the input alone; they only need to amortize one task's overhead.
constexpr size_t kMinRangeTuples = 8192;
constexpr size_t kUnitEvents = 8192;
// Units per thread in one wave; a few even out the units' sizes.
constexpr size_t kWaveUnitsPerThread = 2;

// The first problem with tuple i, checked in the order ItaStream documents.
Status CheckTuple(const TemporalRelation& rel, size_t i,
                  const std::vector<size_t>& group_indices,
                  const std::vector<int>& agg_attr_indices,
                  const std::vector<AggregateSpec>& aggregates) {
  PTA_RETURN_IF_ERROR(rel.CheckGroupingValues(i, group_indices));
  const Tuple& tuple = rel.tuple(i);
  if (tuple.interval().end == std::numeric_limits<Chronon>::max()) {
    return Status::InvalidArgument(
        "ITA input tuple " + std::to_string(i) +
        " ends at the maximal chronon; its end event is not representable");
  }
  for (size_t d = 0; d < aggregates.size(); ++d) {
    const int attr = agg_attr_indices[d];
    if (attr >= 0 && !std::isfinite(tuple.value(attr).ToDouble())) {
      return Status::InvalidArgument(
          "aggregate attribute '" + aggregates[d].attr + "' of tuple " +
          std::to_string(i) + " is not finite (" +
          tuple.value(attr).ToString() + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<ItaStream>> ItaStream::Create(
    const TemporalRelation& rel, const ItaSpec& spec, size_t num_threads) {
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

  // Past one thread per kUnitEvents events, threads would find no work.
  const size_t useful = std::max<size_t>(1, 2 * rel.size() / kUnitEvents);
  std::unique_ptr<ItaStream> stream(new ItaStream(
      spec.aggregates,
      std::min(num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                : num_threads,
               useful)));
  PTA_RETURN_IF_ERROR(stream->Load(rel, *group_indices, agg_attr_indices));
  stream->BuildUnits();
  return stream;
}

ItaStream::ItaStream(std::vector<AggregateSpec> aggregates,
                     size_t num_threads)
    : aggregates_(std::move(aggregates)), num_threads_(num_threads) {}

// Joins the workers first: a wave may still be sweeping into next_wave_.
ItaStream::~ItaStream() { pool_.reset(); }

void ItaStream::RunTasks(size_t count,
                         const std::function<void(size_t)>& fn) {
  if (count <= 1 || num_threads_ == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
  pool_->ParallelFor(count, fn);
}

Status ItaStream::Load(const TemporalRelation& rel,
                       const std::vector<size_t>& group_indices,
                       const std::vector<int>& agg_attr_indices) {
  const size_t n = rel.size();
  const size_t p = aggregates_.size();
  const size_t num_ranges =
      std::max<size_t>(1, std::min(num_threads_, n / kMinRangeTuples));
  const auto range_begin = [&](size_t r) { return n * r / num_ranges; };

  // Each contiguous tuple range buckets its tuples by projecting into one
  // reused key; a key is copied only when it opens a group in its range.
  // Equality is GroupKeyLess equivalence once NaN is excluded (-0.0 and
  // +0.0 are one value and hash alike).
  struct Range {
    std::vector<GroupKey> keys;    // by local id, in first-sight order
    std::vector<uint32_t> dense;   // local id -> dense id
    std::vector<size_t> next_row;  // local id -> tuple count, then next row
    size_t first_bad;              // first offending tuple, or n
  };
  std::vector<Range> ranges(num_ranges, Range{{}, {}, {}, n});
  std::vector<uint32_t> local_of(n);
  RunTasks(num_ranges, [&](size_t r) {
    // Locals until the end: neighbouring ranges share cache lines.
    Range local{{}, {}, {}, n};
    std::unordered_map<GroupKey, uint32_t, GroupKeyHasher> ids;
    GroupKey key(group_indices.size());
    for (size_t i = range_begin(r); i < range_begin(r + 1); ++i) {
      const Tuple& tuple = rel.tuple(i);
      for (size_t k = 0; k < group_indices.size(); ++k) {
        const Value& v = tuple.value(group_indices[k]);
        if (v.type() == ValueType::kDouble && std::isnan(v.AsDoubleExact())) {
          ranges[r].first_bad = i;
          return;
        }
        key[k] = v;
      }
      const auto [it, inserted] =
          ids.try_emplace(key, static_cast<uint32_t>(ids.size()));
      if (inserted) local.next_row.push_back(0);
      local_of[i] = it->second;
      ++local.next_row[it->second];
    }
    local.keys.resize(ids.size());
    while (!ids.empty()) {
      // pta-lint: allow(unordered-iteration) -- each key lands in its id slot
      auto node = ids.extract(ids.begin());
      local.keys[node.mapped()] = std::move(node.key());
    }
    ranges[r] = std::move(local);
  });
  // The lowest offending tuple wins, whichever check it fails.
  const auto first_error = [&](size_t last) {
    for (size_t i = 0; i < last; ++i) {
      PTA_RETURN_IF_ERROR(CheckTuple(rel, i, group_indices, agg_attr_indices,
                                     aggregates_));
    }
    return CheckTuple(rel, last, group_indices, agg_attr_indices,
                      aggregates_);
  };
  for (const Range& range : ranges) {
    if (range.first_bad < n) return first_error(range.first_bad);
  }

  // Dense ids in key order: merge the ranges' sorted keys. Equivalent keys
  // meet in range order, so the stored key is the one seen first in input
  // order — the one the first insertion into a std::map would keep.
  std::vector<std::vector<uint32_t>> sorted(num_ranges);
  RunTasks(num_ranges, [&](size_t r) {
    const std::vector<GroupKey>& keys = ranges[r].keys;
    sorted[r].resize(keys.size());
    std::iota(sorted[r].begin(), sorted[r].end(), 0u);
    std::sort(sorted[r].begin(), sorted[r].end(),
              [&keys](uint32_t a, uint32_t b) {
                return GroupKeyLess(keys[a], keys[b]);
              });
    ranges[r].dense.resize(keys.size());
  });
  std::vector<size_t> head(num_ranges, 0);
  std::vector<GroupKey> group_keys;
  while (true) {
    size_t best = num_ranges;
    for (size_t r = 0; r < num_ranges; ++r) {
      if (head[r] == sorted[r].size()) continue;
      if (best == num_ranges ||
          GroupKeyLess(ranges[r].keys[sorted[r][head[r]]],
                       ranges[best].keys[sorted[best][head[best]]])) {
        best = r;
      }
    }
    if (best == num_ranges) break;
    const uint32_t local = sorted[best][head[best]++];
    GroupKey& key = ranges[best].keys[local];
    if (group_keys.empty() || GroupKeyLess(group_keys.back(), key)) {
      group_keys.push_back(std::move(key));
    }
    ranges[best].dense[local] = static_cast<uint32_t>(group_keys.size() - 1);
  }
  const size_t num_groups = group_keys.size();
  group_keys_ =
      std::make_shared<const std::vector<GroupKey>>(std::move(group_keys));

  // Each group's first row, then each range's first row in every group it
  // touches: a group's rows keep input order across ranges.
  group_begin_.assign(num_groups + 1, 0);
  for (const Range& range : ranges) {
    for (size_t l = 0; l < range.dense.size(); ++l) {
      group_begin_[range.dense[l] + 1] += range.next_row[l];
    }
  }
  for (size_t g = 0; g < num_groups; ++g) {
    group_begin_[g + 1] += group_begin_[g];
  }
  std::vector<size_t> next_row(group_begin_.begin(), group_begin_.end() - 1);
  for (Range& range : ranges) {
    for (size_t l = 0; l < range.dense.size(); ++l) {
      const size_t count = range.next_row[l];
      range.next_row[l] = next_row[range.dense[l]];
      next_row[range.dense[l]] += count;
    }
  }

  // Scatter each tuple's two events and its aggregate inputs to its row,
  // range by range. The buffers are left uninitialized: every slot is
  // written exactly once, by the range that owns the row.
  events_.reset(new TupleEvent[2 * n]);
  columns_.reset(new double[n * p]);
  RunTasks(num_ranges, [&](size_t r) {
    Range& range = ranges[r];
    for (size_t i = range_begin(r); i < range_begin(r + 1); ++i) {
      const Tuple& tuple = rel.tuple(i);
      if (tuple.interval().end == std::numeric_limits<Chronon>::max()) {
        range.first_bad = i;
        return;
      }
      const size_t row = range.next_row[local_of[i]]++;
      events_[2 * row] = {tuple.interval().begin, (row << 1) | 1};
      events_[2 * row + 1] = {tuple.interval().end + 1, row << 1};
      double* out = columns_.get() + row * p;
      for (size_t d = 0; d < p; ++d) {
        const int attr = agg_attr_indices[d];
        const double v = attr < 0 ? 0.0 : tuple.value(attr).ToDouble();
        if (!std::isfinite(v)) {
          range.first_bad = i;
          return;
        }
        out[d] = v;
      }
    }
  });
  for (const Range& range : ranges) {
    if (range.first_bad < n) return first_error(range.first_bad);
  }
  return Status::Ok();
}

void ItaStream::BuildUnits() {
  const size_t num_groups = group_begin_.size() - 1;
  const size_t num_events = 2 * group_begin_.back();

  // Tasks of whole groups, about four per thread; a group is one sort.
  std::vector<size_t> task_begin = {0};
  const size_t target =
      std::max(kUnitEvents, num_events / (4 * num_threads_));
  for (size_t g = 0; g < num_groups; ++g) {
    if (2 * (group_begin_[g + 1] - group_begin_[task_begin.back()]) >=
        target) {
      task_begin.push_back(g + 1);
    }
  }
  if (task_begin.back() != num_groups) task_begin.push_back(num_groups);

  // Each task also finds its unit cuts: the first zero-coverage point
  // (group ends included) at or past each multiple of kUnitEvents. Every
  // group end is such a point, so each task knows where the previous one
  // stood at its first group.
  std::vector<std::vector<size_t>> cuts(task_begin.size() - 1);
  // One task runs inline on this thread (RunTasks), so its sorts may use
  // the otherwise idle pool; several tasks already fill it.
  ThreadPool* sort_pool = nullptr;
  if (cuts.size() == 1 && num_threads_ > 1) {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
    sort_pool = pool_.get();
  }
  RunTasks(cuts.size(), [&](size_t task) {
    for (size_t g = task_begin[task]; g < task_begin[task + 1]; ++g) {
      const size_t lo = 2 * group_begin_[g];
      const size_t hi = 2 * group_begin_[g + 1];
      // End events sort before start events at the same instant so that an
      // aggregator never simultaneously holds a tuple that ended at t-1 and
      // one that starts at t (their order is otherwise irrelevant: segments
      // are emitted before any event at the boundary applies). Same-instant
      // events of one kind keep whatever order the sort leaves them in, and
      // running sums depend on that order — so neither the initial sequence
      // (start, end per row, rows in group order) nor the comparator may
      // change without re-pinning the sweep's output bits. ParallelIntroSort
      // leaves std::sort's order, at any thread count.
      ParallelIntroSort(events_.get() + lo, events_.get() + hi,
                        [](const TupleEvent& a, const TupleEvent& b) {
                          if (a.time != b.time) return a.time < b.time;
                          return a.is_start() < b.is_start();
                        },
                        sort_pool);
      int64_t active = 0;
      size_t last_zero = lo;
      for (size_t e = lo; e < hi;) {
        const Chronon t = events_[e].time;
        do {
          active += events_[e].is_start() ? 1 : -1;
          ++e;
        } while (e < hi && events_[e].time == t);
        if (active != 0) continue;
        if (e / kUnitEvents != last_zero / kUnitEvents) {
          cuts[task].push_back(e);
        }
        last_zero = e;
      }
    }
  });
  for (const std::vector<size_t>& task_cuts : cuts) {
    unit_end_.insert(unit_end_.end(), task_cuts.begin(), task_cuts.end());
  }
  if (num_events > 0 &&
      (unit_end_.empty() || unit_end_.back() != num_events)) {
    unit_end_.push_back(num_events);
  }
}

std::vector<std::string> ItaStream::value_names() const {
  std::vector<std::string> names;
  names.reserve(aggregates_.size());
  for (const AggregateSpec& agg : aggregates_) names.push_back(agg.output_name);
  return names;
}

void ItaStream::SweepUnit(size_t begin, size_t end, UnitBuffer* out) const {
  const size_t p = aggregates_.size();
  std::vector<std::unique_ptr<Aggregator>> aggregators;
  aggregators.reserve(p);
  for (const AggregateSpec& agg : aggregates_) {
    aggregators.push_back(CreateAggregator(agg.kind));
  }
  std::vector<double> current(p);
  out->groups.clear();
  out->intervals.clear();
  out->values.clear();

  size_t g = static_cast<size_t>(std::upper_bound(group_begin_.begin(),
                                                  group_begin_.end(),
                                                  begin / 2) -
                                 group_begin_.begin()) -
             1;
  size_t e = begin;
  while (e < end) {
    const size_t group_end = std::min(end, 2 * group_begin_[g + 1]);
    // Whether the last buffered result tuple may still be extended.
    bool open = false;
    int64_t active = 0;
    Chronon boundary = events_[e].time;
    while (e < group_end) {
      const Chronon t = events_[e].time;

      // Emit the elementary interval [boundary, t-1] if tuples are active.
      if (active > 0 && boundary < t) {
        for (size_t d = 0; d < p; ++d) current[d] = aggregators[d]->Current();
        const Interval elementary(boundary, t - 1);
        // Coalesce value-equivalent adjacent results (Def. 1's final step).
        if (open && out->intervals.back().MeetsBefore(elementary) &&
            std::equal(current.begin(), current.end(),
                       out->values.end() - static_cast<ptrdiff_t>(p))) {
          out->intervals.back().end = elementary.end;
        } else {
          out->groups.push_back(static_cast<int32_t>(g));
          out->intervals.push_back(elementary);
          out->values.insert(out->values.end(), current.begin(),
                             current.end());
          open = true;
        }
      }

      // Apply every event at instant t.
      while (e < group_end && events_[e].time == t) {
        const TupleEvent& ev = events_[e];
        const double* v = columns_.get() + (ev.tag >> 1) * p;
        if (ev.is_start()) {
          for (size_t d = 0; d < p; ++d) aggregators[d]->Add(v[d]);
          ++active;
        } else {
          for (size_t d = 0; d < p; ++d) aggregators[d]->Remove(v[d]);
          --active;
        }
        ++e;
      }
      boundary = t;
    }
    ++g;
  }
}

void ItaStream::LaunchWave() {
  const size_t first = next_unit_;
  const size_t count =
      std::min(kWaveUnitsPerThread * num_threads_, unit_end_.size() - first);
  next_unit_ += count;
  next_wave_.resize(count);
  wave_pending_ = true;
  const auto sweep = [this, first](size_t i) {
    // Sweep into a local buffer: the wave's buffer headers share cache
    // lines, and every append would bounce them between cores.
    UnitBuffer local;
    std::swap(local, next_wave_[i]);
    const size_t u = first + i;
    SweepUnit(u == 0 ? 0 : unit_end_[u - 1], unit_end_[u], &local);
    std::swap(local, next_wave_[i]);
  };
  if (num_threads_ == 1 || unit_end_.size() == 1) {
    for (size_t i = 0; i < count; ++i) sweep(i);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
  for (size_t i = 0; i < count; ++i) pool_->Submit([sweep, i] { sweep(i); });
}

bool ItaStream::AdvanceWave() {
  if (!wave_pending_ && next_unit_ < unit_end_.size()) LaunchWave();
  if (!wave_pending_) {
    // Done: release the sweep's input and workers.
    events_.reset();
    columns_.reset();
    pool_.reset();
    return false;
  }
  if (pool_ != nullptr) pool_->Wait();
  std::swap(wave_, next_wave_);
  wave_pending_ = false;
  wave_unit_ = 0;
  wave_row_ = 0;
  // The workers sweep the following wave while the caller drains this one.
  if (next_unit_ < unit_end_.size()) LaunchWave();
  return true;
}

bool ItaStream::Next(Segment* out) {
  while (wave_unit_ == wave_.size() ||
         wave_row_ == wave_[wave_unit_].groups.size()) {
    if (wave_unit_ < wave_.size()) {
      ++wave_unit_;
      wave_row_ = 0;
    } else if (!AdvanceWave()) {
      return false;
    }
  }
  const UnitBuffer& unit = wave_[wave_unit_];
  const size_t p = aggregates_.size();
  const double* v = unit.values.data() + wave_row_ * p;
  out->group = unit.groups[wave_row_];
  out->t = unit.intervals[wave_row_];
  out->values.assign(v, v + p);
  ++wave_row_;
  return true;
}

Result<SequentialRelation> Ita(const TemporalRelation& rel,
                               const ItaSpec& spec, size_t num_threads) {
  auto stream = ItaStream::Create(rel, spec, num_threads);
  if (!stream.ok()) return stream.status();
  ItaStream& s = **stream;
  const size_t p = s.num_aggregates();

  // A group of k tuples yields at most 2k - 1 result tuples. Reserving the
  // bound up front costs no resident memory beyond what is written, and
  // spares the copies of geometric growth.
  const size_t bound = 2 * rel.size() - s.group_keys().size();
  std::vector<int32_t> groups;
  std::vector<Interval> intervals;
  std::vector<double> values;
  groups.reserve(bound);
  intervals.reserve(bound);
  values.reserve(bound * p);
  while (s.AdvanceWave()) {
    for (const ItaStream::UnitBuffer& unit : s.wave_) {
      groups.insert(groups.end(), unit.groups.begin(), unit.groups.end());
      intervals.insert(intervals.end(), unit.intervals.begin(),
                       unit.intervals.end());
      values.insert(values.end(), unit.values.begin(), unit.values.end());
    }
  }
  SequentialRelation out(p, s.value_names());
  out.AdoptColumns(std::move(groups), std::move(intervals),
                   std::move(values));
  out.ShareGroupKeys(s.shared_group_keys());
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
