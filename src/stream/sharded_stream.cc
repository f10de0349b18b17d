#include "stream/sharded_stream.h"

#include <algorithm>

namespace pta {

namespace {

// Even split of the global live-row budget: base share everywhere, the
// remainder to the lower shard indices, and at least one row per shard so
// every engine stays constructible. Matches AllocateSizeBudgets' ties-to-
// lower-indices convention without its (unknowable online) error weights.
std::vector<size_t> EvenBudgets(size_t c, size_t num_shards) {
  std::vector<size_t> budgets(num_shards, std::max<size_t>(1, c / num_shards));
  const size_t base = c / num_shards;
  if (base >= 1) {
    for (size_t s = 0; s < c % num_shards; ++s) budgets[s] = base + 1;
  }
  return budgets;
}

}  // namespace

uint32_t StreamShardOfGroup(int32_t group, size_t num_shards) {
  // FNV-1a over the little-endian bytes of the id: byte-stable everywhere.
  const uint32_t u = static_cast<uint32_t>(group);
  uint32_t hash = 2166136261u;
  for (int shift = 0; shift < 32; shift += 8) {
    hash ^= (u >> shift) & 0xffu;
    hash *= 16777619u;
  }
  return hash % static_cast<uint32_t>(num_shards);
}

ShardedStreamingEngine::ShardedStreamingEngine(size_t num_aggregates,
                                               StreamingOptions options,
                                               const ParallelOptions& parallel,
                                               std::vector<uint32_t> shard_of)
    : p_(num_aggregates), shard_of_(std::move(shard_of)) {
  size_t num_shards = parallel.num_shards;
  const size_t threads = parallel.num_threads == 0
                             ? ThreadPool::DefaultThreadCount()
                             : parallel.num_threads;
  if (num_shards == 0) num_shards = threads;
  PTA_CHECK_MSG(num_shards > 0, "shard count must be positive");
  PTA_CHECK_MSG(options.size_budget > 0, "size_budget must be positive");
  for (uint32_t s : shard_of_) {
    PTA_CHECK_MSG(s < num_shards, "shard_of entry exceeds the shard count");
  }
  const std::vector<size_t> budgets =
      EvenBudgets(options.size_budget, num_shards);
  engines_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    StreamingOptions shard_options = options;
    shard_options.size_budget = budgets[s];
    engines_.push_back(
        std::make_unique<StreamingPtaEngine>(p_, std::move(shard_options)));
  }
  // More threads than shards would only idle.
  pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, std::min(threads, num_shards)));
}

uint32_t ShardedStreamingEngine::ShardOf(int32_t group) const {
  if (group >= 0 && static_cast<size_t>(group) < shard_of_.size()) {
    return shard_of_[static_cast<size_t>(group)];
  }
  return StreamShardOfGroup(group, engines_.size());
}

Status ShardedStreamingEngine::IngestChunk(const SequentialRelation& chunk) {
  if (chunk.num_aggregates() != p_) {
    return Status::InvalidArgument("chunk arity mismatch");
  }
  // Scatter: per-shard sub-chunks, preserving chunk order (so each shard
  // sees a group-major subsequence, exactly like the batch
  // ShardedSegmentSource's partition). Delegating whole sub-chunks keeps
  // the engines' IngestChunk semantics — notably the auto-watermark
  // policy, which each shard applies against its own feed.
  std::vector<SequentialRelation> sub(engines_.size(),
                                      SequentialRelation(p_));
  for (size_t i = 0; i < chunk.size(); ++i) {
    sub[ShardOf(chunk.group(i))].Append(chunk.group(i), chunk.interval(i),
                                        chunk.values(i));
  }
  std::vector<Status> statuses(engines_.size(), Status::Ok());
  pool_->ParallelFor(engines_.size(), [&](size_t s) {
    statuses[s] = engines_[s]->IngestChunk(sub[s]);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status ShardedStreamingEngine::AdvanceWatermark(Chronon watermark) {
  std::vector<Status> statuses(engines_.size(), Status::Ok());
  pool_->ParallelFor(engines_.size(), [&](size_t s) {
    statuses[s] = engines_[s]->AdvanceWatermark(watermark);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

SequentialRelation ShardedStreamingEngine::TakeEmitted() {
  std::vector<SequentialRelation> parts(engines_.size());
  pool_->ParallelFor(engines_.size(), [&](size_t s) {
    parts[s] = engines_[s]->TakeEmitted();
  });
  return GatherGroupMajor(p_, parts);
}

SequentialRelation ShardedStreamingEngine::Snapshot() const {
  std::vector<SequentialRelation> parts(engines_.size());
  pool_->ParallelFor(engines_.size(), [&](size_t s) {
    parts[s] = engines_[s]->Snapshot();
  });
  return GatherGroupMajor(p_, parts);
}

Result<SequentialRelation> ShardedStreamingEngine::Finalize() {
  std::vector<Result<SequentialRelation>> results(
      engines_.size(), Result<SequentialRelation>(SequentialRelation()));
  pool_->ParallelFor(engines_.size(), [&](size_t s) {
    results[s] = engines_[s]->Finalize();
  });
  std::vector<SequentialRelation> parts;
  parts.reserve(engines_.size());
  for (Result<SequentialRelation>& result : results) {
    if (!result.ok()) return result.status();
    parts.push_back(std::move(*result));
  }
  return GatherGroupMajor(p_, parts);
}

size_t ShardedStreamingEngine::live_rows() const {
  size_t total = 0;
  for (const auto& engine : engines_) total += engine->live_rows();
  return total;
}

size_t ShardedStreamingEngine::pending_rows() const {
  size_t total = 0;
  for (const auto& engine : engines_) total += engine->pending_rows();
  return total;
}

double ShardedStreamingEngine::total_error() const {
  double total = 0.0;
  for (const auto& engine : engines_) total += engine->total_error();
  return total;
}

StreamingStats ShardedStreamingEngine::AggregateStats() const {
  StreamingStats out;
  for (const auto& engine : engines_) {
    const StreamingStats& s = engine->stats();
    out.ingested += s.ingested;
    out.merges += s.merges;
    out.early_merges += s.early_merges;
    out.emitted += s.emitted;
    out.max_live_rows += s.max_live_rows;  // sum of per-shard peaks
    out.merge_sse += s.merge_sse;
  }
  return out;
}

}  // namespace pta
