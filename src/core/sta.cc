#include "core/sta.h"

#include <algorithm>
#include <map>

namespace pta {

std::vector<Interval> MakeSpans(Chronon start, int64_t width, size_t count) {
  PTA_CHECK_MSG(width > 0, "span width must be positive");
  std::vector<Interval> spans;
  spans.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Chronon b = start + static_cast<Chronon>(i) * width;
    spans.emplace_back(b, b + width - 1);
  }
  return spans;
}

Result<TemporalRelation> Sta(const TemporalRelation& rel, const StaSpec& spec) {
  if (spec.aggregates.empty()) {
    return Status::InvalidArgument("STA requires at least one aggregate");
  }
  if (spec.spans.empty()) {
    return Status::InvalidArgument("STA requires at least one span");
  }
  for (size_t i = 0; i < spec.spans.size(); ++i) {
    for (size_t j = i + 1; j < spec.spans.size(); ++j) {
      if (spec.spans[i].Overlaps(spec.spans[j])) {
        return Status::InvalidArgument("STA spans must be disjoint");
      }
    }
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

  // Result schema: group attrs followed by aggregate outputs.
  std::vector<AttributeDef> attrs;
  for (size_t idx : *group_indices) {
    attrs.push_back(rel.schema().attribute(idx));
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    attrs.push_back({agg.output_name, ValueType::kDouble});
  }
  TemporalRelation out{Schema(std::move(attrs))};

  // Bucket tuples per group in deterministic order. A NaN key would break
  // the map's strict weak ordering, so it is rejected first, as ITA does.
  std::map<GroupKey, std::vector<size_t>, decltype(&GroupKeyLess)> buckets(
      &GroupKeyLess);
  for (size_t i = 0; i < rel.size(); ++i) {
    PTA_RETURN_IF_ERROR(rel.CheckGroupingValues(i, *group_indices));
    buckets[rel.tuple(i).Project(*group_indices)].push_back(i);
  }

  std::vector<Interval> spans = spec.spans;
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });

  for (const auto& [key, tuple_idxs] : buckets) {
    for (const Interval& span : spans) {
      std::vector<std::vector<double>> per_agg(spec.aggregates.size());
      bool any = false;
      for (size_t idx : tuple_idxs) {
        const Tuple& t = rel.tuple(idx);
        if (!t.interval().Overlaps(span)) continue;
        any = true;
        for (size_t d = 0; d < spec.aggregates.size(); ++d) {
          const int attr = agg_attr_indices[d];
          per_agg[d].push_back(attr < 0 ? 0.0
                                        : t.value(attr).ToDouble());
        }
      }
      if (!any) continue;
      std::vector<Value> row(key.begin(), key.end());
      for (size_t d = 0; d < spec.aggregates.size(); ++d) {
        auto v = EvaluateAggregate(spec.aggregates[d].kind, per_agg[d]);
        if (!v.ok()) return v.status();
        row.push_back(Value(*v));
      }
      out.InsertUnchecked(Tuple(std::move(row), span));
    }
  }
  return out;
}

}  // namespace pta
