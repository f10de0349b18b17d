#include "pta/parallel.h"

#include <algorithm>
#include <cmath>

#include "pta/error.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pta {

namespace {

// Per-shard maximal errors (the budget allocator's weights), on the pool.
std::vector<double> ShardMaxErrors(const ShardedSegmentSource& shards,
                                   const GreedyOptions& greedy,
                                   ThreadPool& pool) {
  std::vector<double> emax(shards.num_shards(), 0.0);
  pool.ParallelFor(shards.num_shards(), [&](size_t s) {
    const SequentialRelation& shard = shards.shard(s);
    if (shard.empty()) return;
    const ErrorContext ctx(shard, greedy.weights, greedy.merge_across_gaps);
    emax[s] = ctx.MaxError();
  });
  return emax;
}

// The driver both sharded reducers share. On a pool sized to the shards,
// `weigh(pool)` sets up the per-shard budgets (timed as the estimate
// phase), then `reduce(s, shard, stats)` runs on every non-empty shard and
// the results are gathered in global group order. The lowest failing
// shard's status wins.
template <typename Weigh, typename Reduce>
Result<Reduction> ReduceShards(const ShardedSegmentSource& shards,
                               const ParallelReduceOptions& options,
                               ParallelStats* stats, Weigh weigh,
                               Reduce reduce) {
  const size_t num_shards = shards.num_shards();
  const size_t requested = options.num_threads == 0
                               ? ThreadPool::DefaultThreadCount()
                               : options.num_threads;
  // More threads than shards would only idle.
  ThreadPool pool(std::max<size_t>(1, std::min(requested, num_shards)));
  if (stats != nullptr) {
    *stats = ParallelStats{};
    stats->num_shards = num_shards;
    stats->threads_used = pool.num_threads();
    stats->total_segments = shards.total_size();
    for (size_t s = 0; s < num_shards; ++s) {
      stats->shard_sizes.push_back(shards.shard(s).size());
    }
  }
  Stopwatch watch;
  PTA_RETURN_IF_ERROR(weigh(pool));
  if (stats != nullptr) stats->estimate_seconds = watch.ElapsedSeconds();

  watch.Restart();
  std::vector<Reduction> results(num_shards);
  std::vector<Status> statuses(num_shards, Status::Ok());
  std::vector<GreedyStats> gstats(num_shards);
  pool.ParallelFor(num_shards, [&](size_t s) {
    const SequentialRelation& shard = shards.shard(s);
    results[s].relation = SequentialRelation(shards.num_aggregates());
    if (shard.empty()) return;
    auto reduced = reduce(s, shard, &gstats[s]);
    if (reduced.ok()) {
      results[s] = std::move(*reduced);
    } else {
      statuses[s] = reduced.status();
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  if (stats != nullptr) stats->reduce_seconds = watch.ElapsedSeconds();

  watch.Restart();
  Reduction out;
  std::vector<SequentialRelation> parts(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    out.error += results[s].error;
    parts[s] = std::move(results[s].relation);
  }
  out.relation = GatherGroupMajor(shards.num_aggregates(), parts);
  if (stats != nullptr) {
    stats->merge_seconds = watch.ElapsedSeconds();
    stats->shard_greedy = std::move(gstats);
    for (const Reduction& r : results) stats->shard_errors.push_back(r.error);
  }
  return out;
}

}  // namespace

Result<std::vector<size_t>> AllocateSizeBudgets(
    const std::vector<size_t>& shard_sizes,
    const std::vector<size_t>& shard_cmins,
    const std::vector<double>& shard_errors, size_t c) {
  const size_t num_shards = shard_sizes.size();
  if (num_shards == 0) {
    return Status::InvalidArgument("at least one shard is required");
  }
  if (shard_cmins.size() != num_shards || shard_errors.size() != num_shards) {
    return Status::InvalidArgument(
        "shard_sizes, shard_cmins and shard_errors must have equal size");
  }
  size_t sum_cmin = 0;
  size_t total_size = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_cmins[s] > shard_sizes[s]) {
      return Status::InvalidArgument("shard cmin exceeds shard size");
    }
    if (shard_errors[s] < 0.0) {
      return Status::InvalidArgument("shard error weights must be >= 0");
    }
    sum_cmin += shard_cmins[s];
    total_size += shard_sizes[s];
  }
  if (c < sum_cmin) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below global cmin = " +
        std::to_string(sum_cmin));
  }
  std::vector<size_t> budgets = shard_cmins;
  if (c >= total_size) return std::vector<size_t>(shard_sizes);

  // Remaining budget over the cmins, distributed proportionally to the
  // error weights (headroom when all weights vanish), capped per shard.
  size_t remaining = c - sum_cmin;
  std::vector<size_t> headroom(num_shards);
  double weight_sum = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    headroom[s] = shard_sizes[s] - shard_cmins[s];
    weight_sum += shard_errors[s];
  }
  std::vector<double> weights(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    weights[s] = weight_sum > 0.0 ? shard_errors[s]
                                  : static_cast<double>(headroom[s]);
  }

  // Iteratively fix shards whose proportional share exceeds their headroom;
  // the leftover re-flows to the others. Terminates in <= num_shards rounds.
  std::vector<bool> capped(num_shards, false);
  std::vector<size_t> extra(num_shards, 0);
  bool changed = true;
  while (changed && remaining > 0) {
    changed = false;
    double active_weight = 0.0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!capped[s]) active_weight += weights[s];
    }
    if (active_weight <= 0.0) break;
    for (size_t s = 0; s < num_shards; ++s) {
      if (capped[s]) continue;
      const double share =
          static_cast<double>(remaining) * weights[s] / active_weight;
      if (share >= static_cast<double>(headroom[s] - extra[s])) {
        // This shard saturates: give it all its headroom and retry.
        remaining -= headroom[s] - extra[s];
        extra[s] = headroom[s];
        capped[s] = true;
        changed = true;
      }
    }
  }
  if (remaining > 0) {
    // Final proportional round over the uncapped shards: floor allocation,
    // then largest remainders (ties toward the lower shard index). When the
    // remaining weight sits entirely on capped shards, fall back to the
    // uncapped shards' headroom so the budget is still fully assigned.
    double active_weight = 0.0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (!capped[s]) active_weight += weights[s];
    }
    std::vector<double> final_weights(num_shards, 0.0);
    for (size_t s = 0; s < num_shards; ++s) {
      if (capped[s]) continue;
      final_weights[s] = active_weight > 0.0
                             ? weights[s]
                             : static_cast<double>(headroom[s] - extra[s]);
    }
    if (active_weight <= 0.0) {
      active_weight = 0.0;
      for (size_t s = 0; s < num_shards; ++s) active_weight += final_weights[s];
    }
    std::vector<std::pair<double, size_t>> remainders;
    size_t assigned = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (capped[s] || active_weight <= 0.0) continue;
      const double share =
          static_cast<double>(remaining) * final_weights[s] / active_weight;
      const size_t base = std::min(static_cast<size_t>(share),
                                   headroom[s] - extra[s]);
      extra[s] += base;
      assigned += base;
      remainders.push_back({share - static_cast<double>(base), s});
    }
    size_t leftover = remaining - assigned;
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    while (leftover > 0) {
      bool placed = false;
      for (const auto& [frac, s] : remainders) {
        if (leftover == 0) break;
        if (extra[s] < headroom[s]) {
          ++extra[s];
          --leftover;
          placed = true;
        }
      }
      if (!placed) break;  // all shards at cap; c >= total_size handled above
    }
  }
  for (size_t s = 0; s < num_shards; ++s) budgets[s] += extra[s];
  return budgets;
}

SequentialRelation GatherGroupMajor(
    size_t num_aggregates, const std::vector<SequentialRelation>& parts) {
  SequentialRelation out(num_aggregates);
  size_t total = 0;
  for (const SequentialRelation& part : parts) total += part.size();
  out.Reserve(total);
  // Repeatedly copy the whole run of the smallest current group id.
  std::vector<size_t> cursor(parts.size(), 0);
  while (true) {
    size_t best = parts.size();
    int32_t best_group = 0;
    for (size_t s = 0; s < parts.size(); ++s) {
      if (cursor[s] >= parts[s].size()) continue;
      const int32_t group = parts[s].group(cursor[s]);
      if (best == parts.size() || group < best_group) {
        best = s;
        best_group = group;
      }
    }
    if (best == parts.size()) break;
    const SequentialRelation& part = parts[best];
    size_t& pos = cursor[best];
    while (pos < part.size() && part.group(pos) == best_group) {
      out.Append(part.group(pos), part.interval(pos), part.values(pos));
      ++pos;
    }
  }
  return out;
}

Result<Reduction> ParallelReduceToSize(const ShardedSegmentSource& shards,
                                       size_t c,
                                       const ParallelReduceOptions& options,
                                       ParallelStats* stats) {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  const size_t num_shards = shards.num_shards();
  std::vector<size_t> budgets;
  auto weigh = [&](ThreadPool& pool) -> Status {
    // The error weights only matter when there is an actual split to make:
    // with one shard (it gets the whole budget) or c at/above the input
    // size (nothing merges) the allocator never consults them, so skip the
    // full MaxError pass.
    std::vector<double> emax(num_shards, 0.0);
    if (num_shards > 1 && c < shards.total_size()) {
      emax = ShardMaxErrors(shards, options.greedy, pool);
    }
    std::vector<size_t> sizes(num_shards), cmins(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      sizes[s] = shards.shard(s).size();
      cmins[s] = shards.shard(s).CMin();
    }
    auto allocated = AllocateSizeBudgets(sizes, cmins, emax, c);
    if (!allocated.ok()) return allocated.status();
    budgets = std::move(*allocated);
    if (stats != nullptr) {
      stats->shard_max_errors = std::move(emax);
      stats->shard_budgets = budgets;
    }
    return Status::Ok();
  };
  auto reduce = [&](size_t s, const SequentialRelation& shard,
                    GreedyStats* greedy_stats) {
    RelationSegmentSource src(shard);
    return GreedyReduceToSize(src, budgets[s], options.greedy, greedy_stats);
  };
  return ReduceShards(shards, options, stats, weigh, reduce);
}

Result<Reduction> ParallelReduceToError(const ShardedSegmentSource& shards,
                                        double eps,
                                        const ParallelReduceOptions& options,
                                        ParallelStats* stats) {
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  std::vector<double> emax;
  auto weigh = [&](ThreadPool& pool) -> Status {
    emax = ShardMaxErrors(shards, options.greedy, pool);
    if (stats != nullptr) stats->shard_max_errors = emax;
    return Status::Ok();
  };
  auto reduce = [&](size_t s, const SequentialRelation& shard,
                    GreedyStats* greedy_stats) {
    // The global absolute budget eps * Emax splits proportionally to the
    // per-shard maximal errors, which is exactly "the global eps against
    // each shard's own Emax"; n̂_s is the shard size (known exactly here).
    GreedyErrorEstimates estimates{emax[s], shard.size()};
    RelationSegmentSource src(shard);
    return GreedyReduceToError(src, eps, estimates, options.greedy,
                               greedy_stats);
  };
  return ReduceShards(shards, options, stats, weigh, reduce);
}

}  // namespace pta
