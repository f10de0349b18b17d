// StreamingQuery — the online binding of a planned PtaQuery.
//
// PtaQuery::Start() (or StreamingQuery::Start(query)) runs the same
// planning/validation path as the batch Run(), then binds the plan to an
// online engine: a lone StreamingPtaEngine, or — when the query carries
// Parallel() tuning — a ShardedStreamingEngine with one engine per group
// shard on a thread pool. The handle re-exposes the engine surface
// (Ingest/IngestChunk/AdvanceWatermark/TakeEmitted/Snapshot/Finalize) with
// the query's value names attached to every emitted relation.
//
// This header is the streaming side of the pta.h umbrella split: including
// it (and calling Start()) requires linking the pta_stream library; the
// batch surface (PtaQuery::Run, re-exported by pta/pta.h) needs pta_algo
// only.
//
//   auto sq = PtaQuery::Stream(/*num_aggregates=*/1)
//                 .Budget(Budget::Size(240))
//                 .Streaming({.auto_watermark_lag = 1440})
//                 .Start();
//   for (...) { sq->IngestChunk(chunk); sink(sq->TakeEmitted()); }
//   auto tail = sq->Finalize();

#ifndef PTA_PTA_STREAM_API_H_
#define PTA_PTA_STREAM_API_H_

#include <memory>
#include <string>
#include <vector>

#include "pta/query.h"
#include "stream/sharded_stream.h"
#include "stream/stream.h"
#include "util/status.h"

namespace pta {

/// \brief An online PTA query bound to a streaming engine.
///
/// Single-writer like the engines it wraps: drive one handle from one
/// thread (or under one lock); a sharded handle parallelizes internally.
/// A default-constructed handle is unbound — every operation fails with
/// FailedPrecondition until Start() produced it.
class StreamingQuery {
 public:
  StreamingQuery() = default;
  StreamingQuery(StreamingQuery&&) = default;
  StreamingQuery& operator=(StreamingQuery&&) = default;

  /// Plans `query` (same validation as PtaQuery::Run) and binds it to an
  /// online engine. Requires a streaming plan: Engine::kStreaming — the
  /// default for a PtaQuery::Stream(p) source — and a size budget.
  /// Equivalent to `query.Start()`.
  [[nodiscard]] static Result<StreamingQuery> Start(const PtaQuery& query);

  /// True once bound to an engine.
  bool started() const { return single_ != nullptr || sharded_ != nullptr; }
  size_t num_aggregates() const;
  /// Shard engines behind this handle; 1 for the unsharded binding.
  size_t num_shards() const;

  /// Ingests one segment (see StreamingPtaEngine::Ingest for the ordering
  /// contract). On a sharded handle this wraps the segment in a one-row
  /// chunk — batch segments into IngestChunk for throughput there.
  [[nodiscard]] Status Ingest(const Segment& seg);
  /// Ingests every segment of `chunk` in order, then applies the
  /// auto-watermark policy if configured. Not atomic on failure.
  [[nodiscard]] Status IngestChunk(const SequentialRelation& chunk);
  /// Declares that no future segment will begin before `watermark`.
  [[nodiscard]] Status AdvanceWatermark(Chronon watermark);

  /// Drains sealed rows (group-major, value names attached).
  SequentialRelation TakeEmitted();
  /// The current summary (pending + live rows) without disturbing state.
  SequentialRelation Snapshot() const;
  /// Terminal drain down to the size budget; ends the engine.
  [[nodiscard]] Result<SequentialRelation> Finalize();

  size_t live_rows() const;
  size_t pending_rows() const;
  /// Cumulative SSE introduced by merging so far.
  double total_error() const;
  /// Aggregated counters (summed over shards on a sharded handle).
  StreamingStats stats() const;

 private:
  [[nodiscard]] Status RequireStarted() const;
  SequentialRelation WithNames(SequentialRelation rel) const;

  std::unique_ptr<StreamingPtaEngine> single_;
  std::unique_ptr<ShardedStreamingEngine> sharded_;
  std::vector<std::string> value_names_;
};

}  // namespace pta

#endif  // PTA_PTA_STREAM_API_H_
