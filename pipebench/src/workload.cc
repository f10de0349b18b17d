#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "datasets/etds.h"
#include "datasets/synthetic.h"
#include "pta/greedy.h"

namespace pipebench {
namespace {

using namespace pta;

// Rows of the drill-down input: the largest ITA result kAuto still answers
// with the exact DP (pta/plan.h, kAutoExactDpMaxInput).
constexpr size_t kDrillRows = kAutoExactDpMaxInput;

ItaSpec SyntheticSpec() {
  ItaSpec spec;
  spec.group_by = {"G"};
  for (int d = 1; d <= 10; ++d) {
    const std::string attr = "A" + std::to_string(d);
    spec.aggregates.push_back(Avg(attr, "avg_" + attr));
  }
  return spec;
}

std::vector<WorkloadDef> AllWorkloads() {
  WorkloadDef single;
  single.name = "single_group_1m";
  single.shape = {1510000, 64000, 1};
  single.spec = SyntheticSpec();

  WorkloadDef etds;
  etds.name = "etds_churn";
  // 49,995 (EmpNo, Dept) groups at seed 7; the guard is centred there.
  etds.shape = {333000, 56000, 50000};
  etds.spec = EtdsQueryE4();
  etds.reads_csv = true;
  etds.update_every = 64;
  etds.rounds = 5;
  etds.trace_reps = 3;
  etds.oracle_budgets = 3;
  return {single, etds};
}

size_t ScaledCount(size_t base, double scale) {
  const double v = std::round(static_cast<double>(base) * scale);
  return v < 1.0 ? 1 : static_cast<size_t>(v);
}

std::string SyntheticSelect() {
  std::string s = "SELECT ";
  for (int d = 1; d <= 10; ++d) {
    if (d > 1) s += ", ";
    s += "AVG(A" + std::to_string(d) + ")";
  }
  return s;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadDef* out) {
  for (const WorkloadDef& def : AllWorkloads()) {
    if (def.name == name) {
      *out = def;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : AllWorkloads()) names.push_back(def.name);
  return names;
}

Prepared::Prepared(const WorkloadDef& def, uint64_t seed, double scale)
    : def_(def), seed_(seed), scale_(scale) {}

TemporalRelation Prepared::Generate(int g) const {
  const uint64_t seed = seed_ + static_cast<uint64_t>(g);
  if (def_.name == "etds_churn") {
    EtdsOptions options;
    options.num_employees = ScaledCount(20000, scale_);
    options.seed = seed;
    return GenerateEtds(options);
  }
  SyntheticOptions options;
  options.num_tuples = ScaledCount(1000000, scale_);
  options.num_groups = 1;
  options.num_dims = 10;
  options.max_duration = 20;
  options.time_span = static_cast<int64_t>(ScaledCount(4000000, scale_));
  options.seed = seed;
  return GenerateSyntheticRelation(options);
}

bool Prepared::Analyze(const TemporalRelation& gen0,
                       const TemporalRelation& gen1, Report& report) {
  schema_ = gen0.schema();
  auto ita = Ita(gen0, def_.spec);
  if (!report.Ok(ita.status(), "ITA of generation 0")) return false;
  ita_ = std::move(*ita);
  auto ita1 = Ita(gen1, def_.spec);
  if (!report.Ok(ita1.status(), "ITA of generation 1")) return false;
  const size_t n = ita_.size();
  cmin_ = ita_.CMin();
  groups_ = ita_.group_keys().size();

  const bool etds = def_.name == "etds_churn";
  c_ = etds ? cmin_ + (n - cmin_) / 10 : n / 10;
  serve_hi_ = etds ? cmin_ + (n - cmin_) / 5 : std::max(cmin_, n / 5);
  // A served budget must be feasible on both generations.
  serve_lo_ = std::max(cmin_, ita1->CMin());

  // Oracle budgets: c itself, then evenly spread over the serving range.
  oracle_budgets_ = {c_};
  for (size_t i = 1; i < def_.oracle_budgets; ++i) {
    const size_t b =
        serve_lo_ + (serve_hi_ - serve_lo_) * i / def_.oracle_budgets;
    if (std::find(oracle_budgets_.begin(), oracle_budgets_.end(), b) ==
        oracle_budgets_.end()) {
      oracle_budgets_.push_back(b);
    }
  }
  const SequentialRelation* itas[2] = {&ita_, &*ita1};
  for (int g = 0; g < 2; ++g) {
    for (const size_t b : oracle_budgets_) {
      auto gms = GmsReduceToSize(*itas[g], b);
      if (!report.Ok(gms.status(), "GMS oracle of generation " +
                                       std::to_string(g) + " at c=" +
                                       std::to_string(b))) {
        return false;
      }
      oracles_[g].push_back(std::move(*gms));
    }
  }

  // The drill-down: the leading groups whose ITA rows fit kDrillRows (on
  // etds_churn these are exactly the groups of `WHERE EmpNo < k`, since
  // group ids follow the sorted (EmpNo, Dept) keys), or the leading
  // kDrillRows rows of a synthetic group.
  size_t rows = std::min(n, kDrillRows);
  int64_t emp_bound = 0;
  if (etds) {
    rows = 0;
    size_t i = 0;
    while (i < n) {
      const int64_t emp = ita_.group_keys()[ita_.group(i)][0].AsInt64();
      size_t j = i;
      while (j < n && ita_.group_keys()[ita_.group(j)][0].AsInt64() == emp) ++j;
      if (j > kDrillRows) break;
      rows = j;
      emp_bound = emp + 1;
      i = j;
    }
  }
  drill_ = SequentialRelation(ita_.num_aggregates(), ita_.value_names());
  drill_.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    drill_.Append(ita_.group(i), ita_.interval(i), ita_.values(i));
  }
  std::vector<GroupKey> keys(ita_.group_keys().begin(),
                             ita_.group_keys().begin() +
                                 (rows == 0 ? 0 : drill_.group(rows - 1) + 1));
  drill_.SetGroupKeys(std::move(keys));
  const size_t drill_cmin = drill_.CMin();
  drill_c_ = std::max<size_t>(1, drill_cmin + (rows - drill_cmin) / 10);

  const std::string c = std::to_string(c_);
  if (etds) {
    const std::string from = " FROM data";
    const std::string group = " GROUP BY EmpNo, Dept";
    ql_texts_ = {
        "SELECT AVG(Salary)" + from + group + " BUDGET SIZE " + c +
            " USING ENGINE greedy",
        "SELECT MAX(Salary)" + from + group + " BUDGET SIZE " + c,
        "SELECT AVG(Salary)" + from + " WHERE EmpNo < " +
            std::to_string(emp_bound) + group + " BUDGET SIZE " +
            std::to_string(drill_c_),
        "SELECT AVG(Salary)" + from + group +
            " WITH TIME(120, 359) BUDGET ERROR 0.05",
        "SELECT AVG(Salary)" + from + group + " BUDGET AUTO KNEE",
    };
  } else {
    ql_texts_ = {SyntheticSelect() + " FROM data GROUP BY G BUDGET SIZE " + c +
                 " USING ENGINE greedy"};
  }
  return true;
}

void Prepared::GuardShape(Report& report) const {
  const double tol = scale_ == 1.0 ? 0.10 : 0.35;
  auto within = [&](const char* what, size_t got, size_t expect_at_1) {
    const double expect = static_cast<double>(expect_at_1) * scale_;
    const double lo = std::max(1.0, expect * (1.0 - tol));
    const double hi = std::max(1.0, expect * (1.0 + tol));
    const double g = static_cast<double>(got);
    report.Ok(g >= std::floor(lo) && g <= std::ceil(hi),
              std::string("shape guard: ") + what + " = " +
                  std::to_string(got) + ", expected " +
                  std::to_string(static_cast<size_t>(expect)) + " +-" +
                  std::to_string(static_cast<int>(tol * 100)) + "%");
  };
  within("ITA segments", ita_.size(), def_.shape.segments);
  within("cmin", cmin_, def_.shape.cmin);
  // The synthetic group count is a generator parameter, not a data size.
  const size_t groups_at_1 = def_.shape.groups;
  if (def_.name == "etds_churn") {
    within("groups", groups_, groups_at_1);
  } else {
    report.Ok(groups_ == groups_at_1,
              "shape guard: groups = " + std::to_string(groups_) +
                  ", expected " + std::to_string(groups_at_1));
  }
  report.Ok(serve_lo_ <= c_ && c_ <= serve_hi_,
            "shape guard: cmin of both generations " +
                std::to_string(serve_lo_) + " <= c " + std::to_string(c_));
  report.Ok(drill_.size() <= kDrillRows && drill_c_ >= drill_.CMin(),
            "shape guard: drill-down input of " +
                std::to_string(drill_.size()) + " rows fits the exact DP");
}

PtaQuery Prepared::AdHocQuery(const TemporalRelation& rel) const {
  return PtaQuery::Over(rel)
      .Spec(def_.spec)
      .Budget(Budget::Size(c_))
      .Engine(Engine::kGreedy);
}

StreamingOptions Prepared::StreamOptions() const {
  Chronon lo = 0;
  Chronon hi = 0;
  for (size_t i = 0; i < ita_.size(); ++i) {
    lo = i == 0 ? ita_.interval(i).begin : std::min(lo, ita_.interval(i).begin);
    hi = i == 0 ? ita_.interval(i).end : std::max(hi, ita_.interval(i).end);
  }
  StreamingOptions options;
  options.size_budget = c_;
  options.auto_watermark_lag = static_cast<int64_t>(
      static_cast<double>(hi - lo) * 2.0 * static_cast<double>(c_) /
      static_cast<double>(std::max<size_t>(1, ita_.size())));
  return options;
}

std::vector<SequentialRelation> Prepared::StreamChunks() const {
  std::vector<size_t> order(ita_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Chronon ba = ita_.interval(a).begin;
    const Chronon bb = ita_.interval(b).begin;
    if (ba != bb) return ba < bb;
    return ita_.group(a) < ita_.group(b);
  });
  std::vector<SequentialRelation> chunks;
  for (size_t i = 0; i < order.size(); i += kChunkRows) {
    SequentialRelation chunk(ita_.num_aggregates());
    const size_t end = std::min(order.size(), i + kChunkRows);
    chunk.Reserve(end - i);
    for (size_t j = i; j < end; ++j) {
      chunk.Append(ita_.group(order[j]), ita_.interval(order[j]),
                   ita_.values(order[j]));
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

}  // namespace pipebench
