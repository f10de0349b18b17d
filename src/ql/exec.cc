#include "ql/exec.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "advisor/advisor.h"
#include "core/ita.h"
#include "pta/stream_api.h"
#include "ql/lexer.h"

namespace pta {
namespace ql {

namespace {

Status ErrorAt(const std::string& message, Location loc) {
  return Status::InvalidArgument(FormatDiagnostic(message, loc));
}

// A WHERE predicate with its column names resolved to schema indices and
// its literal/column type pairings checked, so evaluation per tuple is
// branch-light and cannot fail.
struct BoundExpr {
  Expr::Kind kind = Expr::Kind::kCmp;

  // kCmp:
  size_t attr_index = 0;
  bool string_compare = false;  // else numeric via ToDouble
  CmpOp op = CmpOp::kEq;
  double num_rhs = 0.0;
  std::string str_rhs;

  // kAnd / kOr (lhs + rhs), kNot (lhs only):
  std::unique_ptr<BoundExpr> lhs;
  std::unique_ptr<BoundExpr> rhs;
};

Result<std::unique_ptr<BoundExpr>> BindExpr(const Expr& expr,
                                            const Schema& schema) {
  auto bound = std::make_unique<BoundExpr>();
  bound->kind = expr.kind;
  if (expr.kind != Expr::Kind::kCmp) {
    auto lhs = BindExpr(*expr.lhs, schema);
    PTA_RETURN_IF_ERROR(lhs.status());
    bound->lhs = std::move(*lhs);
    if (expr.kind != Expr::Kind::kNot) {
      auto rhs = BindExpr(*expr.rhs, schema);
      PTA_RETURN_IF_ERROR(rhs.status());
      bound->rhs = std::move(*rhs);
    }
    return bound;
  }

  const int index = schema.IndexOf(expr.column);
  if (index < 0) {
    return ErrorAt("unknown column '" + expr.column + "'", expr.column_loc);
  }
  bound->attr_index = static_cast<size_t>(index);
  bound->op = expr.op;
  const ValueType type = schema.attribute(bound->attr_index).type;
  const bool literal_is_string = expr.literal.kind == Literal::Kind::kString;
  if (type == ValueType::kString) {
    if (!literal_is_string) {
      return ErrorAt("column '" + expr.column +
                         "' is a string; compare it with a quoted literal",
                     expr.literal.loc);
    }
    bound->string_compare = true;
    bound->str_rhs = expr.literal.string_value;
  } else if (type == ValueType::kInt64 || type == ValueType::kDouble) {
    if (literal_is_string) {
      return ErrorAt("column '" + expr.column +
                         "' is numeric; compare it with a numeric literal",
                     expr.literal.loc);
    }
    bound->num_rhs = expr.literal.kind == Literal::Kind::kInt
                         ? static_cast<double>(expr.literal.int_value)
                         : expr.literal.double_value;
  } else {
    return ErrorAt("column '" + expr.column + "' has type " +
                       ValueTypeName(type) + " and cannot be compared",
                   expr.column_loc);
  }
  return bound;
}

template <typename T>
bool Compare(const T& lhs, CmpOp op, const T& rhs) {
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

// SQL-ish null handling without three-valued logic: a comparison against a
// null value is false, and NOT negates plainly.
bool EvalExpr(const BoundExpr& expr, const Tuple& tuple) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return EvalExpr(*expr.lhs, tuple) && EvalExpr(*expr.rhs, tuple);
    case Expr::Kind::kOr:
      return EvalExpr(*expr.lhs, tuple) || EvalExpr(*expr.rhs, tuple);
    case Expr::Kind::kNot:
      return !EvalExpr(*expr.lhs, tuple);
    case Expr::Kind::kCmp:
      break;
  }
  const Value& value = tuple.value(expr.attr_index);
  if (value.is_null()) return false;
  if (expr.string_compare) {
    return Compare(value.AsString(), expr.op, expr.str_rhs);
  }
  return Compare(value.ToDouble(), expr.op, expr.num_rhs);
}

// Validates the select list and group-by against the schema and lowers them
// to an ItaSpec. Output names must be unique and distinct from the group-by
// attributes (together they form the result schema).
Result<ItaSpec> BuildSpec(const Query& query, const Schema& schema) {
  ItaSpec spec;
  std::set<std::string> group_names;
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    const std::string& name = query.group_by[i];
    if (schema.IndexOf(name) < 0) {
      return ErrorAt("unknown column '" + name + "'", query.group_by_locs[i]);
    }
    if (!group_names.insert(name).second) {
      return ErrorAt("duplicate GROUP BY column '" + name + "'",
                     query.group_by_locs[i]);
    }
  }
  spec.group_by = query.group_by;

  std::set<std::string> output_names;
  for (const SelectItem& item : query.items) {
    if (item.kind != AggKind::kCount) {
      const int index = schema.IndexOf(item.attr);
      if (index < 0) {
        return ErrorAt("unknown column '" + item.attr + "'", item.loc);
      }
      const ValueType type = schema.attribute(static_cast<size_t>(index)).type;
      if (type != ValueType::kInt64 && type != ValueType::kDouble) {
        return ErrorAt("column '" + item.attr + "' has type " +
                           ValueTypeName(type) +
                           " and cannot be aggregated",
                       item.loc);
      }
    }
    const std::string name = item.output_name();
    if (!output_names.insert(name).second) {
      return ErrorAt("duplicate result column '" + name + "'", item.loc);
    }
    if (group_names.count(name) != 0) {
      return ErrorAt("result column '" + name +
                         "' collides with a GROUP BY column",
                     item.loc);
    }
    spec.aggregates.push_back(AggregateSpec{item.kind, item.attr, name});
  }
  return spec;
}

// The streaming engine replays the materialized ITA segments chunk-wise
// with the watermark off — the byte-identical-to-batch-gPTAc mode.
Result<SequentialRelation> RunStreaming(const Query& query,
                                        const SequentialRelation& ita,
                                        const ExecOptions& options,
                                        ExecStats* stats) {
  StreamingOptions streaming;
  if (options.pin_identity) streaming.delta = GreedyOptions::kDeltaInfinity;
  auto handle = PtaQuery::Stream(ita.num_aggregates())
                    .Budget(pta::Budget::Size(query.budget.size))
                    .Streaming(streaming)
                    .Start();
  PTA_RETURN_IF_ERROR(handle.status());
  PTA_RETURN_IF_ERROR(handle->IngestChunk(ita));
  SequentialRelation emitted = handle->TakeEmitted();
  auto tail = handle->Finalize();
  PTA_RETURN_IF_ERROR(tail.status());

  SequentialRelation out(ita.num_aggregates(), ita.value_names());
  out.Reserve(emitted.size() + tail->size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    const SegmentView seg = emitted.view(i);
    out.Append(seg.group, seg.t, seg.values);
  }
  for (size_t i = 0; i < tail->size(); ++i) {
    const SegmentView seg = tail->view(i);
    out.Append(seg.group, seg.t, seg.values);
  }
  out.ShareGroupKeys(ita.shared_group_keys());
  stats->engine = pta::Engine::kStreaming;
  stats->error = handle->total_error();
  return out;
}

Result<SequentialRelation> RunBatch(
    pta::Engine engine, pta::Budget budget,
    const std::shared_ptr<const SequentialRelation>& ita,
    const ExecOptions& options, ExecStats* stats) {
  PtaQuery pq = PtaQuery::OverSequential(ita).Budget(budget).Engine(engine);
  GreedyPtaOptions greedy;
  if (options.pin_identity) {
    // Deferred merging makes the greedy and one-shard parallel engines
    // replay the batch GMS merge sequence exactly (same heap ids, same
    // tie order), which is what PtaIndex cuts reproduce — the regime the
    // differential sweep asserts byte-identity in.
    greedy.eager = false;
    greedy.sample_fraction = 1.0;
  }
  pq.Greedy(greedy);
  if (engine == pta::Engine::kParallel) {
    // One shard: machine-independent and byte-identical to the greedy
    // engine. Shard tuning stays an API-level concern (ParallelOptions).
    ParallelOptions parallel;
    parallel.num_shards = 1;
    pq.Parallel(parallel);
  }
  PtaRunStats run_stats;
  auto result = pq.Run(&run_stats);
  PTA_RETURN_IF_ERROR(result.status());
  stats->engine = run_stats.engine;
  stats->error = result->error;
  return std::move(result->relation);
}

// BUDGET AUTO: one advisor pass over the shared ITA result decides the
// size for every engine — the resolution depends only on the query text
// and the catalog, like everything else in PTA-QL. The probe plan's
// fingerprint is budget-stripped, so the index built here is the same
// cache entry a kIndexed run of this query reuses; the entry lapses with
// the ITA relation when Execute returns.
Result<size_t> ResolveAutoBudget(
    const Query& query, const std::shared_ptr<const SequentialRelation>& ita) {
  PtaQuery probe = PtaQuery::OverSequential(ita).Budget(pta::Budget::Size(1));
  auto plan = probe.Plan();
  PTA_RETURN_IF_ERROR(plan.status());
  auto index = internal::IndexCacheGetOrBuild(*plan, nullptr);
  PTA_RETURN_IF_ERROR(index.status());
  const advisor::AdvisorOptions advisor_options =
      query.budget.kind == BudgetClause::Kind::kAutoError
          ? advisor::AdvisorOptions::TargetRelativeError(query.budget.eps)
          : advisor::AdvisorOptions::Knee();
  auto advice = advisor::Advise(**index, advisor_options);
  PTA_RETURN_IF_ERROR(advice.status());
  return std::max<size_t>(1, advice->budget);
}

}  // namespace

void Catalog::Register(std::string name, const TemporalRelation* rel) {
  relations_[std::move(name)] = rel;
}

const TemporalRelation* Catalog::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Result<ExecResult> Execute(const Query& query, const Catalog& catalog,
                           const ExecOptions& options) {
  const TemporalRelation* base = catalog.Find(query.from);
  if (base == nullptr) {
    std::string known;
    for (const std::string& name : catalog.Names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return ErrorAt("unknown relation '" + query.from + "'" +
                       (known.empty() ? "" : " (catalog: " + known + ")"),
                   query.from_loc);
  }
  const Schema& schema = base->schema();

  auto spec = BuildSpec(query, schema);
  PTA_RETURN_IF_ERROR(spec.status());

  std::unique_ptr<BoundExpr> predicate;
  if (query.where != nullptr) {
    auto bound = BindExpr(*query.where, schema);
    PTA_RETURN_IF_ERROR(bound.status());
    predicate = std::move(*bound);
  }
  if (query.time.has_value() && query.time->begin > query.time->end) {
    return ErrorAt("TIME window begin must be <= end", query.time->loc);
  }
  if (query.budget.kind == BudgetClause::Kind::kNone) {
    return ErrorAt(
        "query needs a BUDGET clause (BUDGET SIZE c, BUDGET ERROR eps, or "
        "BUDGET AUTO)",
        query.end_loc);
  }

  pta::Engine engine = options.force_engine.has_value()
                           ? *options.force_engine
                           : (query.engine.present ? query.engine.engine
                                                   : pta::Engine::kAuto);
  if (engine == pta::Engine::kStreaming &&
      query.budget.kind != BudgetClause::Kind::kSize) {
    return ErrorAt("the streaming engine is size-bounded; use BUDGET SIZE",
                   query.budget.loc);
  }

  ExecResult out;
  out.stats.input_rows = base->size();

  // WHERE selects tuples; WITH TIME keeps overlapping tuples clipped to
  // the window, so the aggregation only sees chronons inside it.
  TemporalRelation filtered(schema);
  const TemporalRelation* input = base;
  if (predicate != nullptr || query.time.has_value()) {
    for (const Tuple& tuple : base->tuples()) {
      if (predicate != nullptr && !EvalExpr(*predicate, tuple)) continue;
      if (query.time.has_value()) {
        const Interval window(query.time->begin, query.time->end);
        if (!tuple.interval().Overlaps(window)) continue;
        filtered.InsertUnchecked(
            Tuple(tuple.values(), tuple.interval().Intersect(window)));
      } else {
        filtered.InsertUnchecked(tuple);
      }
    }
    input = &filtered;
  }
  out.stats.filtered_rows = input->size();

  auto computed = Ita(*input, *spec);
  PTA_RETURN_IF_ERROR(computed.status());
  out.stats.ita_size = computed->size();

  if (computed->empty()) {
    // Nothing to reduce: the result is the (empty) ITA relation itself.
    // The engines disagree on empty input (the parallel scatter wants
    // group keys), so resolve it uniformly here.
    out.relation = std::move(*computed);
    out.stats.engine =
        engine == pta::Engine::kAuto ? pta::Engine::kExactDp : engine;
  } else {
    // Bound shared, so the advisor's index and a kIndexed run's are one
    // cache entry, which lapses when this call returns.
    const auto ita =
        std::make_shared<const SequentialRelation>(std::move(*computed));
    pta::Budget budget = pta::Budget::Size(1);
    switch (query.budget.kind) {
      case BudgetClause::Kind::kSize:
        budget = pta::Budget::Size(query.budget.size);
        break;
      case BudgetClause::Kind::kError:
        budget = pta::Budget::RelativeError(query.budget.eps);
        break;
      default: {  // kAutoKnee / kAutoError (kNone was rejected above)
        auto resolved = ResolveAutoBudget(query, ita);
        if (!resolved.ok()) {
          if (resolved.status().code() == StatusCode::kInvalidArgument) {
            return ErrorAt(resolved.status().message(), query.budget.loc);
          }
          return resolved.status();
        }
        budget = pta::Budget::Size(*resolved);
        out.stats.advised_budget = *resolved;
        break;
      }
    }
    auto reduced =
        engine == pta::Engine::kStreaming
            ? RunStreaming(query, *ita, options, &out.stats)
            : RunBatch(engine, budget, ita, options, &out.stats);
    if (!reduced.ok()) {
      // Engine-level usage errors (e.g. "size bound c is below cmin") are
      // data-dependent and only surface at run time; anchor them at the
      // BUDGET clause so every InvalidArgument this function returns
      // carries a location. Other error classes pass through untouched.
      if (reduced.status().code() == StatusCode::kInvalidArgument) {
        return ErrorAt(reduced.status().message(), query.budget.loc);
      }
      return reduced.status();
    }
    out.relation = std::move(*reduced);
  }
  out.stats.rows = out.relation.size();

  std::vector<AttributeDef> group_attrs;
  for (const std::string& name : query.group_by) {
    group_attrs.push_back(
        schema.attribute(static_cast<size_t>(schema.IndexOf(name))));
  }
  auto table = out.relation.ToTemporalRelation(Schema(std::move(group_attrs)));
  PTA_RETURN_IF_ERROR(table.status());
  out.table = std::move(*table);
  return out;
}

Result<ExecResult> ParseAndExecute(std::string_view text,
                                   const Catalog& catalog,
                                   const ExecOptions& options,
                                   ParseDiagnostic* diag) {
  auto query = ParseQuery(text, diag);
  PTA_RETURN_IF_ERROR(query.status());
  return Execute(*query, catalog, options);
}

}  // namespace ql
}  // namespace pta
