// pta_csv_tool: run parsimonious temporal aggregation on a CSV file.
//
// A small command-line front end for downstream users: reads a temporal
// relation from CSV (columns: declared attributes..., tb, te), evaluates a
// PTA query, and writes the reduced relation back as CSV.
//
// Two ways to state the query:
//   * PTA-QL (docs/QUERY_LANGUAGE.md):
//       pta_csv_tool --input data.csv --schema Dept:string,Sal:double
//                    --query "SELECT AVG(Sal) AS AvgSal FROM input
//                             GROUP BY Dept BUDGET SIZE 100"
//     (--query-file reads the statement from a file; the relation is
//     registered under "input" and under the input file's stem)
//   * classic flags:
//       pta_csv_tool --input data.csv --schema Dept:string,Sal:double
//                    --group-by Dept --agg avg:Sal:AvgSal
//                    (--size 100 | --error 0.05 | --advise) [--greedy]
//                    [--delta 1] [--merge-across-gaps]
//     (--advise asks the granularity advisor for the budget instead of
//     naming one; see docs/ADVISOR.md)
//
// Exit codes: 0 success; 2 for malformed flags or a malformed/invalid
// query (one-line "error: <msg>[ at <line>:<col>]" on stderr); 1 for
// runtime failures (I/O, engine errors).
//
// With no arguments the tool runs a built-in demo on the paper's running
// example so that `./pta_csv_tool` is self-explanatory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/error_curve.h"
#include "core/ita.h"
#include "datasets/csv.h"
#include "pta/index.h"
#include "pta/index_io.h"
#include "pta/pta.h"
#include "ql/ql.h"

namespace {

using namespace pta;

struct Args {
  std::string input;
  std::string output;
  std::string schema;
  std::string group_by;
  std::vector<std::string> aggs;
  std::string query;
  std::string query_file;
  std::string save_index;
  std::string load_index;
  std::string curve_out;
  size_t size = 0;
  double error = -1.0;
  bool advise = false;
  bool per_group = false;
  bool greedy = false;
  size_t delta = 1;
  bool merge_across_gaps = false;
};

void Usage(FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --input FILE --schema NAME:TYPE[,...]\n"
      "          (--query STMT | --query-file FILE |\n"
      "           --agg KIND:ATTR:OUT [--agg ...] [--group-by A[,...]]\n"
      "           (--size C | --error EPS | --advise [--error EPS]\n"
      "            [--per-group] [--curve FILE])\n"
      "           [--greedy] [--delta N]\n"
      "           [--merge-across-gaps] [--save-index FILE])\n"
      "          [--output FILE]\n"
      "   or: %s --load-index FILE (--size C | --error EPS | --advise)\n"
      "          [--schema ...] [--group-by ...] [--output FILE]\n"
      "--save-index persists the flag-mode query's merge-tree index; a\n"
      "later --load-index run answers any budget from it without the\n"
      "input CSV, byte-identical to a direct run (docs/PERSISTENCE.md)\n"
      "--advise picks the budget from the index's recorded error curve\n"
      "(docs/ADVISOR.md): with --error EPS the smallest size meeting that\n"
      "relative-error target, otherwise the knee of the normalized curve;\n"
      "--per-group adds a water-filled per-group allocation and --curve\n"
      "exports the size,sse knots as CSV\n"
      "types: int64, double, string; kinds: avg, sum, count, min, max\n"
      "PTA-QL: SELECT AVG(Sal) AS X FROM input [WHERE ...] [GROUP BY ...]\n"
      "        [WITH TIME(b, e)] BUDGET SIZE c | BUDGET ERROR eps |\n"
      "        BUDGET AUTO [ERROR <= eps | KNEE]\n"
      "        [USING ENGINE exact|greedy|parallel|streaming|indexed|auto]\n"
      "(run without arguments for a built-in demo)\n",
      argv0, argv0);
}

// Malformed command line or query: one-line diagnostic, exit 2.
int FlagError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

// Runtime failure (I/O, engine): one-line diagnostic, exit 1.
int RunError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool ParseSchema(const std::string& text, Schema* schema) {
  for (const std::string& item : Split(text, ',')) {
    const std::vector<std::string> parts = Split(item, ':');
    if (parts.size() != 2) return false;
    ValueType type;
    if (parts[1] == "int64") {
      type = ValueType::kInt64;
    } else if (parts[1] == "double") {
      type = ValueType::kDouble;
    } else if (parts[1] == "string") {
      type = ValueType::kString;
    } else {
      return false;
    }
    if (!schema->AddAttribute(parts[0], type).ok()) return false;
  }
  return true;
}

bool ParseAgg(const std::string& text, std::vector<AggregateSpec>* specs) {
  const std::vector<std::string> parts = Split(text, ':');
  if (parts.size() == 2 && parts[0] == "count") {
    specs->push_back(Count(parts[1]));
    return true;
  }
  if (parts.size() != 3) return false;
  if (parts[0] == "avg") {
    specs->push_back(Avg(parts[1], parts[2]));
  } else if (parts[0] == "sum") {
    specs->push_back(Sum(parts[1], parts[2]));
  } else if (parts[0] == "min") {
    specs->push_back(Min(parts[1], parts[2]));
  } else if (parts[0] == "max") {
    specs->push_back(Max(parts[1], parts[2]));
  } else {
    return false;
  }
  return true;
}

// "data/proj.csv" -> "proj"; the second catalog name of the input.
std::string FileStem(const std::string& path) {
  const size_t slash = path.find_last_of("/\\");
  const size_t start = slash == std::string::npos ? 0 : slash + 1;
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot <= start) dot = path.size();
  return path.substr(start, dot - start);
}

int EmitResult(const TemporalRelation& table, const Args& args) {
  if (args.output.empty()) {
    std::fputs(RelationToCsv(table).c_str(), stdout);
    return 0;
  }
  const Status st = WriteCsvFile(table, args.output);
  if (!st.ok()) {
    return RunError("writing " + args.output + " failed: " + st.message());
  }
  return 0;
}

int RunQuery(const Args& args, const TemporalRelation& rel) {
  std::string text = args.query;
  if (!args.query_file.empty()) {
    std::ifstream in(args.query_file);
    if (!in) {
      return RunError("cannot read query file " + args.query_file);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  ql::Catalog catalog;
  catalog.Register("input", &rel);
  const std::string stem = FileStem(args.input);
  if (!stem.empty()) catalog.Register(stem, &rel);

  auto result = ql::ParseAndExecute(text, catalog);
  if (!result.ok()) {
    // Invalid queries (parse and semantic errors alike) are usage errors;
    // their message already carries the "at <line>:<col>" suffix.
    if (result.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(result.status().message());
    }
    return RunError(result.status().message());
  }

  std::fprintf(stderr,
               "query stats: engine=%s input=%zu filtered=%zu ita=%zu "
               "rows=%zu sse=%.6g\n",
               EngineName(result->stats.engine), result->stats.input_rows,
               result->stats.filtered_rows, result->stats.ita_size,
               result->stats.rows, result->stats.error);
  return EmitResult(result->table, args);
}

int RunFlagQuery(const Args& args, const Schema& schema,
                 const TemporalRelation& rel) {
  ItaSpec spec;
  if (!args.group_by.empty()) spec.group_by = Split(args.group_by, ',');
  for (const std::string& agg : args.aggs) {
    if (!ParseAgg(agg, &spec.aggregates)) {
      return FlagError("bad --agg value: " + agg);
    }
  }

  // One query, assembled from the flags; --greedy/--size/--error only
  // change the engine and budget, never the query shape.
  PtaQuery query = PtaQuery::Over(rel).Spec(spec).Budget(
      args.size > 0 ? Budget::Size(args.size)
                    : Budget::RelativeError(args.error));
  if (args.greedy) {
    GreedyPtaOptions options;
    options.delta = args.delta;
    options.merge_across_gaps = args.merge_across_gaps;
    query.Engine(Engine::kGreedy).Greedy(options);
  } else {
    DpOptions options;
    options.merge_across_gaps = args.merge_across_gaps;
    query.Engine(Engine::kExactDp).Exact(options);
  }
  Result<PtaResult> result = query.Run();
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(result.status().message());
    }
    return RunError("PTA failed: " + result.status().message());
  }

  // Group schema for output: the group-by attributes in spec order.
  std::vector<AttributeDef> group_attrs;
  for (const std::string& name : spec.group_by) {
    const int idx = schema.IndexOf(name);
    PTA_CHECK(idx >= 0);
    group_attrs.push_back(schema.attribute(idx));
  }
  auto out = result->relation.ToTemporalRelation(Schema(group_attrs));
  if (!out.ok()) {
    return RunError("output conversion failed: " + out.status().message());
  }

  std::fprintf(stderr,
               "ITA result: %zu tuples -> reduced to %zu (SSE %.6g)\n",
               result->ita_size, result->relation.size(), result->error);
  return EmitResult(*out, args);
}

// --save-index: the flag query runs on the recorded merge-tree engine —
// build the full dendrogram once, persist it via pta/index_io.h, then
// answer the requested budget as a cut of that same index. A later
// --load-index run at the same budget emits byte-identical CSV.
int RunSaveIndexQuery(const Args& args, const Schema& schema,
                      const TemporalRelation& rel) {
  ItaSpec spec;
  if (!args.group_by.empty()) spec.group_by = Split(args.group_by, ',');
  for (const std::string& agg : args.aggs) {
    if (!ParseAgg(agg, &spec.aggregates)) {
      return FlagError("bad --agg value: " + agg);
    }
  }

  auto ita = Ita(rel, spec);
  if (!ita.ok()) {
    if (ita.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(ita.status().message());
    }
    return RunError("ITA failed: " + ita.status().message());
  }
  const size_t ita_size = ita->size();

  PtaIndexOptions options;
  options.merge_across_gaps = args.merge_across_gaps;
  auto index = PtaIndex::Build(std::move(*ita), options);
  if (!index.ok()) {
    return RunError("index build failed: " + index.status().message());
  }
  const Status saved = SaveIndex(*index, args.save_index);
  if (!saved.ok()) {
    return RunError("writing index " + args.save_index +
                    " failed: " + saved.message());
  }

  auto cut = args.size > 0 ? index->CutToSize(args.size)
                           : index->CutToError(args.error);
  if (!cut.ok()) {
    if (cut.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(cut.status().message());
    }
    return RunError("cut failed: " + cut.status().message());
  }

  std::vector<AttributeDef> group_attrs;
  for (const std::string& name : spec.group_by) {
    const int idx = schema.IndexOf(name);
    PTA_CHECK(idx >= 0);
    group_attrs.push_back(schema.attribute(idx));
  }
  auto out = cut->relation.ToTemporalRelation(Schema(group_attrs));
  if (!out.ok()) {
    return RunError("output conversion failed: " + out.status().message());
  }

  std::fprintf(stderr, "index: %zu leaves, %zu merges (cmin %zu) saved to %s\n",
               index->input_size(), index->merges(), index->cmin(),
               args.save_index.c_str());
  std::fprintf(stderr, "ITA result: %zu tuples -> reduced to %zu (SSE %.6g)\n",
               ita_size, cut->relation.size(), cut->error);
  return EmitResult(*out, args);
}

// --advise: let the granularity advisor pick the budget from the index's
// recorded error curve, report the recommendation on stderr, then answer
// it as a cut of that same index. --error EPS (when present) selects the
// target-relative-error criterion; otherwise the knee of the normalized
// curve decides (docs/ADVISOR.md).
int AdviseAndEmit(const PtaIndex& index, const Args& args,
                  const std::vector<AttributeDef>& group_attrs) {
  advisor::AdvisorOptions options =
      args.error >= 0.0 ? advisor::AdvisorOptions::TargetRelativeError(args.error)
                        : advisor::AdvisorOptions::Knee();
  options.per_group = args.per_group;
  auto advice = advisor::Advise(index, options);
  if (!advice.ok()) {
    if (advice.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(advice.status().message());
    }
    return RunError("advise failed: " + advice.status().message());
  }

  const advisor::ErrorCurve curve = advisor::ErrorCurve::FromIndex(index);
  if (!args.curve_out.empty()) {
    std::ofstream curve_file(args.curve_out);
    if (!curve_file) {
      return RunError("cannot write curve file " + args.curve_out);
    }
    curve_file << curve.ToCsv();
  }
  std::fprintf(stderr,
               "error curve: sizes %zu..%zu over %zu knots, Emax %.6g\n",
               curve.coarsest_size(), curve.finest_size(), curve.num_knots(),
               curve.scale());
  std::fprintf(stderr,
               "advice: criterion=%s budget=%zu sse=%.6g relative=%.6g\n",
               advisor::CriterionName(advice->criterion), advice->budget,
               advice->sse, advice->relative_error);
  for (const advisor::GroupBudget& gb : advice->group_budgets) {
    std::fprintf(stderr, "  group %d: budget %zu (sse %.6g)\n", gb.group,
                 gb.budget, gb.sse);
  }
  if (!advice->group_budgets.empty()) {
    std::fprintf(stderr, "  per-group total sse %.6g\n",
                 advice->group_total_sse);
  }

  if (advice->budget == 0) {
    return RunError("the input relation is empty; nothing to cut");
  }
  auto cut = index.CutToSize(advice->budget);
  if (!cut.ok()) {
    return RunError("cut failed: " + cut.status().message());
  }
  auto out = cut->relation.ToTemporalRelation(Schema(group_attrs));
  if (!out.ok()) {
    return FlagError("output conversion failed: " + out.status().message());
  }
  return EmitResult(*out, args);
}

// --advise over a CSV input: build the merge-tree index like --save-index
// does, then hand the recommendation and the cut to AdviseAndEmit.
int RunAdviseQuery(const Args& args, const Schema& schema,
                   const TemporalRelation& rel) {
  ItaSpec spec;
  if (!args.group_by.empty()) spec.group_by = Split(args.group_by, ',');
  for (const std::string& agg : args.aggs) {
    if (!ParseAgg(agg, &spec.aggregates)) {
      return FlagError("bad --agg value: " + agg);
    }
  }

  auto ita = Ita(rel, spec);
  if (!ita.ok()) {
    if (ita.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(ita.status().message());
    }
    return RunError("ITA failed: " + ita.status().message());
  }

  PtaIndexOptions options;
  options.merge_across_gaps = args.merge_across_gaps;
  auto index = PtaIndex::Build(std::move(*ita), options);
  if (!index.ok()) {
    return RunError("index build failed: " + index.status().message());
  }
  std::fprintf(stderr, "index: %zu leaves, %zu merges (cmin %zu)\n",
               index->input_size(), index->merges(), index->cmin());

  std::vector<AttributeDef> group_attrs;
  for (const std::string& name : spec.group_by) {
    const int idx = schema.IndexOf(name);
    PTA_CHECK(idx >= 0);
    group_attrs.push_back(schema.attribute(idx));
  }
  return AdviseAndEmit(*index, args, group_attrs);
}

// --load-index: answer a budget straight from a persisted index — no input
// CSV, no rebuild. --schema/--group-by (when given) type the emitted group
// columns exactly like a flag-mode run of the original query would. With
// --advise the budget comes from the advisor instead of the flags.
int RunLoadIndex(const Args& args) {
  auto index = LoadIndex(args.load_index);
  if (!index.ok()) {
    if (index.status().code() == StatusCode::kInvalidArgument) {
      // Malformed or corrupt index bytes: a usage error, like a bad flag.
      return FlagError(index.status().message());
    }
    return RunError("reading " + args.load_index +
                    " failed: " + index.status().message());
  }

  Schema schema;
  if (!args.schema.empty() && !ParseSchema(args.schema, &schema)) {
    return FlagError("bad --schema value: " + args.schema);
  }
  std::vector<AttributeDef> group_attrs;
  if (!args.group_by.empty()) {
    for (const std::string& name : Split(args.group_by, ',')) {
      const int idx = schema.IndexOf(name);
      if (idx < 0) {
        return FlagError("--group-by attribute " + name +
                         " is not in --schema");
      }
      group_attrs.push_back(schema.attribute(idx));
    }
  }

  std::fprintf(stderr,
               "index: %zu leaves, %zu merges (cmin %zu) loaded from %s\n",
               index->input_size(), index->merges(), index->cmin(),
               args.load_index.c_str());
  if (args.advise) return AdviseAndEmit(*index, args, group_attrs);

  auto cut = args.size > 0 ? index->CutToSize(args.size)
                           : index->CutToError(args.error);
  if (!cut.ok()) {
    if (cut.status().code() == StatusCode::kInvalidArgument) {
      return FlagError(cut.status().message());
    }
    return RunError("cut failed: " + cut.status().message());
  }
  auto out = cut->relation.ToTemporalRelation(Schema(group_attrs));
  if (!out.ok()) {
    // The saved index knows its group-key arity; a --group-by that does
    // not match the recorded query surfaces here.
    return FlagError("output conversion failed: " + out.status().message());
  }

  std::fprintf(stderr, "reduced to %zu rows (SSE %.6g)\n",
               cut->relation.size(), cut->error);
  return EmitResult(*out, args);
}

int RunDemo() {
  std::printf("no arguments given; running the built-in demo "
              "(the paper's Fig. 1 example)\n\n");
  TemporalRelation proj{Schema({{"Empl", ValueType::kString},
                                {"Proj", ValueType::kString},
                                {"Sal", ValueType::kDouble}})};
  PTA_CHECK(proj.Insert({"John", "A", 800.0}, Interval(1, 4)).ok());
  PTA_CHECK(proj.Insert({"Ann", "A", 400.0}, Interval(3, 6)).ok());
  PTA_CHECK(proj.Insert({"Tom", "A", 300.0}, Interval(4, 7)).ok());
  PTA_CHECK(proj.Insert({"John", "B", 500.0}, Interval(4, 5)).ok());
  PTA_CHECK(proj.Insert({"John", "B", 500.0}, Interval(7, 8)).ok());

  std::printf("input CSV:\n%s\n", RelationToCsv(proj).c_str());
  auto result = PtaQuery::Over(proj)
                    .GroupBy("Proj")
                    .Aggregate(Avg("Sal", "AvgSal"))
                    .Budget(Budget::Size(4))
                    .Engine(Engine::kExactDp)
                    .Run();
  PTA_CHECK(result.ok());
  const Schema group_schema({{"Proj", ValueType::kString}});
  auto out = result->relation.ToTemporalRelation(group_schema);
  PTA_CHECK(out.ok());
  std::printf("PTA(c = 4) output CSV (SSE %.2f):\n%s", result->error,
              RelationToCsv(*out).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return RunDemo();

  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      Usage(stdout, argv[0]);
      return 0;
    } else if (flag == "--input") {
      const char* v = next();
      if (v == nullptr) return FlagError("--input needs a value");
      args.input = v;
    } else if (flag == "--output") {
      const char* v = next();
      if (v == nullptr) return FlagError("--output needs a value");
      args.output = v;
    } else if (flag == "--schema") {
      const char* v = next();
      if (v == nullptr) return FlagError("--schema needs a value");
      args.schema = v;
    } else if (flag == "--group-by") {
      const char* v = next();
      if (v == nullptr) return FlagError("--group-by needs a value");
      args.group_by = v;
    } else if (flag == "--agg") {
      const char* v = next();
      if (v == nullptr) return FlagError("--agg needs a value");
      args.aggs.push_back(v);
    } else if (flag == "--query") {
      const char* v = next();
      if (v == nullptr) return FlagError("--query needs a value");
      args.query = v;
    } else if (flag == "--query-file") {
      const char* v = next();
      if (v == nullptr) return FlagError("--query-file needs a value");
      args.query_file = v;
    } else if (flag == "--save-index") {
      const char* v = next();
      if (v == nullptr) return FlagError("--save-index needs a value");
      args.save_index = v;
    } else if (flag == "--load-index") {
      const char* v = next();
      if (v == nullptr) return FlagError("--load-index needs a value");
      args.load_index = v;
    } else if (flag == "--size") {
      const char* v = next();
      if (v == nullptr) return FlagError("--size needs a value");
      args.size = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--error") {
      const char* v = next();
      if (v == nullptr) return FlagError("--error needs a value");
      args.error = std::atof(v);
    } else if (flag == "--curve") {
      const char* v = next();
      if (v == nullptr) return FlagError("--curve needs a value");
      args.curve_out = v;
    } else if (flag == "--advise") {
      args.advise = true;
    } else if (flag == "--per-group") {
      args.per_group = true;
    } else if (flag == "--delta") {
      const char* v = next();
      if (v == nullptr) return FlagError("--delta needs a value");
      args.delta = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--greedy") {
      args.greedy = true;
    } else if (flag == "--merge-across-gaps") {
      args.merge_across_gaps = true;
    } else {
      return FlagError("unknown flag: " + flag + " (see --help)");
    }
  }

  const bool query_mode = !args.query.empty() || !args.query_file.empty();
  if (!args.query.empty() && !args.query_file.empty()) {
    return FlagError("--query and --query-file are mutually exclusive");
  }
  if (query_mode && (!args.aggs.empty() || !args.group_by.empty() ||
                     args.size > 0 || args.error >= 0.0 || args.greedy ||
                     args.advise)) {
    return FlagError(
        "--query states the whole query; it cannot be combined with "
        "--agg/--group-by/--size/--error/--greedy/--advise "
        "(use BUDGET AUTO inside the statement)");
  }
  if (args.advise && (args.size > 0 || args.greedy)) {
    return FlagError(
        "--advise picks the budget from the merge-tree index; it cannot "
        "be combined with --size/--greedy (--error EPS, when given, "
        "selects the target-relative-error criterion)");
  }
  if ((args.per_group || !args.curve_out.empty()) && !args.advise) {
    return FlagError("--per-group and --curve require --advise");
  }
  if (!args.save_index.empty() && (query_mode || args.greedy || args.advise)) {
    return FlagError(
        "--save-index records the merge-tree index of a flag-mode query; "
        "it cannot be combined with --query/--query-file/--greedy/--advise");
  }
  if (!args.load_index.empty()) {
    if (query_mode || !args.input.empty() || !args.aggs.empty() ||
        !args.save_index.empty() || args.greedy) {
      return FlagError(
          "--load-index replays a saved index; combine it only with a "
          "budget or --advise, --schema/--group-by, and --output");
    }
    if (!args.advise && args.size == 0 && args.error < 0.0) {
      return FlagError(
          "a budget is required: --size C, --error EPS, or --advise");
    }
    return RunLoadIndex(args);
  }
  if (args.input.empty() || args.schema.empty()) {
    return FlagError("--input and --schema are required (see --help)");
  }
  if (!query_mode && args.aggs.empty()) {
    return FlagError("state a query with --query/--query-file or --agg");
  }
  if (!query_mode && !args.advise && args.size == 0 && args.error < 0.0) {
    return FlagError(
        "a budget is required: --size C, --error EPS, or --advise");
  }

  Schema schema;
  if (!ParseSchema(args.schema, &schema)) {
    return FlagError("bad --schema value: " + args.schema);
  }

  auto rel = ReadCsvFile(args.input, schema);
  if (!rel.ok()) {
    return RunError("reading " + args.input + " failed: " +
                    rel.status().message());
  }

  if (query_mode) return RunQuery(args, *rel);
  if (args.advise) return RunAdviseQuery(args, schema, *rel);
  if (!args.save_index.empty()) return RunSaveIndexQuery(args, schema, *rel);
  return RunFlagQuery(args, schema, *rel);
}
