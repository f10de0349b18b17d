// Parallel composition of streaming engines: one StreamingPtaEngine per
// group shard, ingesting concurrently on a fixed ThreadPool.
//
// This is the streaming sibling of the PR 2 batch engine
// (pta/parallel.*): adjacency never crosses an aggregation group, so a
// chunked feed scatters cleanly along group boundaries, each shard's
// engine runs the bounded-memory online reduction independently, and
// snapshots/emissions/final results gather back in global group order.
//
//   chunk ──scatter (stable group hash)──▶ engine 0  (thread pool)
//                                          engine 1
//                                          engine S-1
//            gather (k-way concat in group order) ──▶ SequentialRelation
//
// Determinism mirrors the batch engine: for a fixed shard count the
// output is a pure function of the ingested sequence — num_threads only
// changes the wall clock — and with one shard every operation is
// byte-identical to a lone StreamingPtaEngine fed the same chunks.
//
// The global size budget is split evenly across shards (cheapest-first
// remainder to the lower shard indices). The streaming setting cannot use
// PR 2's Êmax-proportional AllocateSizeBudgets up front — per-shard error
// mass is unknown until data arrives — so the even split is the
// documented approximation; see docs/STREAMING.md §5.

#ifndef PTA_STREAM_SHARDED_STREAM_H_
#define PTA_STREAM_SHARDED_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pta/parallel.h"
#include "pta/segment.h"
#include "stream/stream.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pta {

/// Stable shard of a dense group id: FNV-1a over the id's little-endian
/// bytes, modulo num_shards — byte-stable across platforms and runs, like
/// core/ita.h's GroupShardMap. Exposed so callers can predict placement.
uint32_t StreamShardOfGroup(int32_t group, size_t num_shards);

/// \brief One streaming engine per group shard on a shared thread pool.
///
/// Single-writer like StreamingPtaEngine: no member — including the const
/// Snapshot()/live_rows()/stats accessors — may race any other; drive the
/// engine from one thread (or under one lock) and let the concurrency
/// happen inside, where worker threads only ever touch disjoint shard
/// engines.
class ShardedStreamingEngine {
 public:
  /// `parallel.num_shards` = 0 derives the shard count from the resolved
  /// thread count (pin it for cross-machine reproducibility);
  /// `parallel.shard_by` is batch-only and ignored here.
  /// `options.size_budget` is the *global* live-row budget, split evenly
  /// across shards (every shard gets at least 1).
  /// `shard_of` optionally pins dense group ids to shards, composing with
  /// core/ita.h's GroupShardMap: group id g < shard_of.size() routes to
  /// shard_of[g] (must be < num_shards), ids beyond the map fall back to
  /// the StreamShardOfGroup hash.
  ShardedStreamingEngine(size_t num_aggregates, StreamingOptions options,
                         const ParallelOptions& parallel = {},
                         std::vector<uint32_t> shard_of = {});

  size_t num_shards() const { return engines_.size(); }
  size_t num_aggregates() const { return p_; }
  /// Threads the shared pool runs with.
  size_t num_threads() const { return pool_->num_threads(); }
  /// Read-only view of one shard's engine (stats, live rows, ...).
  const StreamingPtaEngine& shard(size_t s) const { return *engines_[s]; }

  /// Scatters the chunk by group shard, then every shard engine ingests
  /// its slice concurrently. Per-group ordering rules are those of
  /// StreamingPtaEngine::Ingest; the first failing shard's status is
  /// returned (lowest shard index wins, deterministically). Not atomic:
  /// rows before the failing one — and sibling shards' whole sub-chunks —
  /// stay ingested; resubmit only corrected data, not the same chunk.
  [[nodiscard]] Status IngestChunk(const SequentialRelation& chunk);

  /// Advances every shard's watermark (fan-out on the pool).
  [[nodiscard]] Status AdvanceWatermark(Chronon watermark);

  /// Drains all shards' emission buffers, gathered in global group order.
  SequentialRelation TakeEmitted();

  /// Current summary across all shards in global group order.
  SequentialRelation Snapshot() const;

  /// Finalizes every shard and gathers the results in global group order.
  [[nodiscard]] Result<SequentialRelation> Finalize();

  /// Sums over the shard engines.
  size_t live_rows() const;
  size_t pending_rows() const;
  double total_error() const;
  StreamingStats AggregateStats() const;

 private:
  uint32_t ShardOf(int32_t group) const;

  size_t p_;
  std::vector<uint32_t> shard_of_;
  /// unique_ptr for address stability across the vector; the pool hands
  /// each worker one engine only.
  std::vector<std::unique_ptr<StreamingPtaEngine>> engines_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pta

#endif  // PTA_STREAM_SHARDED_STREAM_H_
