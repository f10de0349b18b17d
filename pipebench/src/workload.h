// The benchmark's two seeded workloads and the per-run preparation that
// both modes share: data generation, the ITA shape and its guard, the
// budgets, the GMS oracles, the PTA-QL texts and the stream feed.
//
//   single_group_1m  one huge group: ITA sort/sweep, the full-input GMS
//                    heap and a single-chunk index build carry the time;
//   etds_churn       ~50k tiny groups with int and string keys, CSV input,
//                    the PTA-QL mix and write-heavy dataset churn.
//
// The program under test only ever sees the generated relations; the seed
// stays inside the benchmark.

#ifndef PIPEBENCH_WORKLOAD_H_
#define PIPEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ita.h"
#include "core/relation.h"
#include "pta/error.h"
#include "pta/plan.h"
#include "pta/query.h"
#include "pta/segment.h"
#include "pta/stream_options.h"
#include "report.h"

namespace pipebench {

/// The ITA result shape a workload is defined by (at scale 1).
struct Shape {
  size_t segments = 0;
  size_t cmin = 0;
  size_t groups = 0;
};

/// Static description of a workload; see workload.cc for the two.
struct WorkloadDef {
  std::string name;
  Shape shape;  // expected at scale 1, guarded within +-10%
  pta::ItaSpec spec;
  bool reads_csv = false;
  /// Dataset churn: an UpdateDataset after every `update_every` warm cuts
  /// of a serving window; 0 serves one generation for the whole window.
  size_t update_every = 0;
  /// Rounds of the end-to-end run; each runs every phase once.
  size_t rounds = 3;
  /// Repetitions of each layer call in the traced mode.
  size_t trace_reps = 1;
  /// Oracle (GMS) budgets sampled per dataset generation.
  size_t oracle_budgets = 1;
};

/// Looks a workload up by name; false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadDef* out);
std::vector<std::string> WorkloadNames();

/// Everything a run derives from its seed before measuring.
class Prepared {
 public:
  Prepared(const WorkloadDef& def, uint64_t seed, double scale);

  const WorkloadDef& def() const { return def_; }
  uint64_t seed() const { return seed_; }

  /// The base relation of dataset generation g (0 or 1); generation 1 is
  /// generated from seed + 1.
  pta::TemporalRelation Generate(int g) const;

  /// Runs ITA over both generations and derives the shape (of generation
  /// 0), the budgets, the GMS oracles of both generations and the query
  /// texts. Counts a failure in `report` and returns false on one.
  bool Analyze(const pta::TemporalRelation& gen0,
               const pta::TemporalRelation& gen1, Report& report);

  /// The +-10% shape guard (looser below scale 1, where the boundary
  /// effects of a small relation distort the linear extrapolation) and
  /// cmin <= c. Every check counts in `report`.
  void GuardShape(Report& report) const;

  const pta::SequentialRelation& ita() const { return ita_; }
  size_t c() const { return c_; }
  size_t cmin() const { return cmin_; }
  size_t groups() const { return groups_; }
  /// The seeded serving budgets lie in [serve_lo, serve_hi]; serve_lo is
  /// the larger cmin of the two generations, so every budget is feasible.
  size_t serve_lo() const { return serve_lo_; }
  size_t serve_hi() const { return serve_hi_; }
  const std::vector<size_t>& oracle_budgets() const { return oracle_budgets_; }
  /// GmsReduceToSize of generation g at oracle_budgets()[i].
  const pta::Reduction& oracle(int g, size_t i) const { return oracles_[g][i]; }

  /// The analyst's ad-hoc query over `rel` at budget c on kGreedy.
  pta::PtaQuery AdHocQuery(const pta::TemporalRelation& rel) const;

  const std::vector<std::string>& ql_texts() const { return ql_texts_; }

  /// The drill-down input: the ITA rows of the leading groups, at most
  /// kDrillRows of them (PTA-QL `WHERE EmpNo < k` on etds_churn; the same
  /// prefix of the synthetic ITA result otherwise), and its budget.
  const pta::SequentialRelation& drill() const { return drill_; }
  size_t drill_c() const { return drill_c_; }

  /// The ITA result of generation 0 as a live feed: chronological across
  /// groups (begin, then group id), cut into chunks of kChunkRows rows.
  std::vector<pta::SequentialRelation> StreamChunks() const;

  /// The live feed's engine settings: budget c and an auto-watermark lag
  /// covering about 2c rows of the feed, so budget pressure has to merge
  /// (with no lag every row is sealed before it could merge) while the
  /// unsealed window's cmin stays below c.
  pta::StreamingOptions StreamOptions() const;
  /// The gate on StreamingStats::max_live_rows: with the watermark on, the
  /// engine pins live rows at the budget, plus at most one chunk ingested
  /// before the watermark advances: budget + chunk + 1.
  size_t StreamLiveBound() const { return c_ + kChunkRows + 1; }

  /// Schema of the CSV file generation 0 is written to (etds_churn).
  const pta::Schema& schema() const { return schema_; }

  static constexpr size_t kChunkRows = 4096;

 private:
  WorkloadDef def_;
  uint64_t seed_;
  double scale_;
  pta::Schema schema_;
  pta::SequentialRelation ita_;
  size_t c_ = 0;
  size_t cmin_ = 0;
  size_t groups_ = 0;
  size_t serve_lo_ = 0;
  size_t serve_hi_ = 0;
  std::vector<size_t> oracle_budgets_;
  std::vector<pta::Reduction> oracles_[2];
  std::vector<std::string> ql_texts_;
  pta::SequentialRelation drill_;
  size_t drill_c_ = 0;
};

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOAD_H_
