#include "pta/query.h"

#include <utility>

#include "util/stopwatch.h"

namespace pta {

PtaQuery PtaQuery::Over(const TemporalRelation& rel) {
  PtaQuery q;
  q.relation_ = &rel;
  return q;
}

PtaQuery PtaQuery::Over(std::shared_ptr<const TemporalRelation> rel) {
  PtaQuery q;
  q.relation_ = rel.get();
  q.owner_ = std::move(rel);
  return q;
}

PtaQuery PtaQuery::OverSequential(const SequentialRelation& rel) {
  PtaQuery q;
  q.sequential_ = &rel;
  return q;
}

PtaQuery PtaQuery::OverSequential(
    std::shared_ptr<const SequentialRelation> rel) {
  PtaQuery q;
  q.sequential_ = rel.get();
  q.owner_ = std::move(rel);
  return q;
}

PtaQuery PtaQuery::Stream(size_t num_aggregates) {
  PtaQuery q;
  q.is_stream_source_ = true;
  q.stream_arity_ = num_aggregates;
  return q;
}

PtaQuery& PtaQuery::GroupBy(std::string attr) {
  spec_.group_by.push_back(std::move(attr));
  return *this;
}

PtaQuery& PtaQuery::GroupBy(std::vector<std::string> attrs) {
  for (std::string& attr : attrs) spec_.group_by.push_back(std::move(attr));
  return *this;
}

PtaQuery& PtaQuery::Aggregate(AggregateSpec agg) {
  spec_.aggregates.push_back(std::move(agg));
  return *this;
}

PtaQuery& PtaQuery::Aggregates(std::vector<AggregateSpec> aggs) {
  for (AggregateSpec& agg : aggs) spec_.aggregates.push_back(std::move(agg));
  return *this;
}

PtaQuery& PtaQuery::Spec(ItaSpec spec) {
  spec_ = std::move(spec);
  return *this;
}

PtaQuery& PtaQuery::Budget(pta::Budget budget) {
  budget_ = budget;
  has_budget_ = true;
  return *this;
}

PtaQuery PtaQuery::WithBudget(pta::Budget budget) const {
  PtaQuery rebound = *this;
  rebound.Budget(budget);
  return rebound;
}

PtaQuery& PtaQuery::Engine(pta::Engine engine) {
  engine_ = engine;
  return *this;
}

PtaQuery& PtaQuery::Weights(std::vector<double> weights) {
  weights_ = std::move(weights);
  return *this;
}

PtaQuery& PtaQuery::Exact(DpOptions options) {
  exact_ = std::move(options);
  return *this;
}

PtaQuery& PtaQuery::Greedy(GreedyPtaOptions options) {
  greedy_ = std::move(options);
  return *this;
}

PtaQuery& PtaQuery::Parallel(ParallelOptions options) {
  parallel_ = std::move(options);
  has_parallel_ = true;
  return *this;
}

PtaQuery& PtaQuery::Streaming(StreamingOptions options) {
  streaming_ = std::move(options);
  return *this;
}

namespace {

std::string SizeToString(size_t n) { return std::to_string(n); }

// Spec-vs-schema validation of a base-relation query: every group-by and
// aggregate attribute must exist, aggregate inputs must be numeric. One
// pass, uniform Status::InvalidArgument codes.
Status ValidateSpecAgainstSchema(const ItaSpec& spec, const Schema& schema) {
  if (spec.aggregates.empty()) {
    return Status::InvalidArgument("query needs at least one aggregate");
  }
  for (const std::string& attr : spec.group_by) {
    if (schema.IndexOf(attr) < 0) {
      return Status::InvalidArgument("unknown group-by attribute: " + attr);
    }
  }
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.kind == AggKind::kCount) continue;
    const int idx = schema.IndexOf(agg.attr);
    if (idx < 0) {
      return Status::InvalidArgument("unknown aggregate attribute: " +
                                     agg.attr);
    }
    const ValueType type = schema.attribute(idx).type;
    if (type != ValueType::kInt64 && type != ValueType::kDouble) {
      return Status::InvalidArgument("aggregate attribute " + agg.attr +
                                     " is not numeric");
    }
  }
  return Status::Ok();
}

// The uniform weights check every engine shares: empty (all ones) or
// exactly one positive weight per aggregate dimension.
Status ValidateWeights(const std::vector<double>& weights, size_t p) {
  if (weights.empty()) return Status::Ok();
  if (weights.size() != p) {
    return Status::InvalidArgument(
        "weights arity (" + SizeToString(weights.size()) +
        ") does not match the aggregate dimension count (" + SizeToString(p) +
        ")");
  }
  for (const double w : weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("weights must be positive");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<PtaPlan> PtaQuery::Plan() const {
  // --- budget ----------------------------------------------------------
  if (!has_budget_) {
    return Status::InvalidArgument(
        "no budget set; call Budget(Budget::Size(c)) or "
        "Budget(Budget::RelativeError(eps))");
  }
  if (budget_.is_size()) {
    if (budget_.size() == 0) {
      return Status::InvalidArgument("size budget must be positive");
    }
  } else {
    const double eps = budget_.relative_error();
    if (!(eps >= 0.0 && eps <= 1.0)) {
      return Status::InvalidArgument(
          "relative error budget must be in [0, 1]");
    }
  }

  // --- spec vs input binding ------------------------------------------
  size_t p = 0;
  if (relation_ != nullptr) {
    PTA_RETURN_IF_ERROR(ValidateSpecAgainstSchema(spec_, relation_->schema()));
    p = spec_.aggregates.size();
  } else if (sequential_ != nullptr) {
    p = sequential_->num_aggregates();
    if (!spec_.group_by.empty()) {
      return Status::InvalidArgument(
          "group-by does not apply to a pre-aggregated sequential input");
    }
    if (!spec_.aggregates.empty() && spec_.aggregates.size() != p) {
      return Status::InvalidArgument(
          "aggregate count (" + SizeToString(spec_.aggregates.size()) +
          ") does not match the sequential input arity (" + SizeToString(p) +
          ")");
    }
  } else if (is_stream_source_) {
    p = stream_arity_;
    if (p == 0) {
      return Status::InvalidArgument(
          "streaming query needs a positive aggregate arity");
    }
    if (!spec_.aggregates.empty() && spec_.aggregates.size() != p) {
      return Status::InvalidArgument(
          "aggregate count (" + SizeToString(spec_.aggregates.size()) +
          ") does not match the stream arity (" + SizeToString(p) + ")");
    }
  } else {
    return Status::InvalidArgument(
        "no input bound; start from PtaQuery::Over / OverSequential / "
        "Stream");
  }

  // --- engine resolution ----------------------------------------------
  pta::Engine engine = engine_;
  if (is_stream_source_) {
    if (engine != pta::Engine::kAuto && engine != pta::Engine::kStreaming) {
      return Status::InvalidArgument(
          "a Stream(p) query runs on the streaming engine; drop Engine() or "
          "pass Engine::kStreaming");
    }
    engine = pta::Engine::kStreaming;
  } else if (engine == pta::Engine::kStreaming) {
    // A streaming engine never ingests a pre-bound input — accepting this
    // would silently discard the relation behind an OK handle.
    return Status::InvalidArgument(
        "the streaming engine takes no pre-bound input; start from "
        "PtaQuery::Stream(p) and ingest chunks");
  } else if (engine == pta::Engine::kAuto) {
    if (has_parallel_) {
      engine = pta::Engine::kParallel;
    } else {
      const size_t n =
          relation_ != nullptr ? relation_->size() : sequential_->size();
      engine = n <= kAutoExactDpMaxInput ? pta::Engine::kExactDp
                                         : pta::Engine::kGreedy;
    }
  }
  if (engine == pta::Engine::kStreaming && !budget_.is_size()) {
    return Status::InvalidArgument(
        "the streaming engine is size-bounded; use Budget::Size");
  }

  // --- effective weights, validated uniformly for every engine ---------
  const std::vector<double>* engine_weights = &weights_;
  if (weights_.empty()) {
    switch (engine) {
      case pta::Engine::kExactDp:
        engine_weights = &exact_.weights;
        break;
      case pta::Engine::kGreedy:
      case pta::Engine::kParallel:
      case pta::Engine::kIndexed:
        engine_weights = &greedy_.weights;
        break;
      case pta::Engine::kStreaming:
        engine_weights = &streaming_.weights;
        break;
      case pta::Engine::kAuto:
        break;  // unreachable: resolved above
    }
  }
  PTA_RETURN_IF_ERROR(ValidateWeights(*engine_weights, p));

  // --- lower -----------------------------------------------------------
  PtaPlan plan;
  plan.relation = relation_;
  plan.sequential = sequential_;
  plan.owner = owner_;
  plan.stream_arity = is_stream_source_ ? stream_arity_ : 0;
  plan.spec = spec_;
  plan.budget = budget_;
  plan.engine = engine;
  plan.shard_streaming = has_parallel_;
  plan.exact = exact_;
  plan.greedy = greedy_;
  plan.parallel = parallel_;
  plan.streaming = streaming_;
  plan.exact.weights = *engine_weights;
  plan.greedy.weights = *engine_weights;
  plan.streaming.weights = *engine_weights;
  if (engine == pta::Engine::kStreaming) {
    plan.streaming.size_budget = budget_.size();
  }
  return plan;
}

Result<PtaResult> PtaQuery::Run(PtaRunStats* stats) const {
  Stopwatch watch;
  auto plan = Plan();
  const double plan_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) stats->plan_seconds = plan_seconds;
  if (!plan.ok()) return plan.status();
  return plan->Execute(stats);
}

}  // namespace pta
