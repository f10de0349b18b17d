// The online (streaming) PTA engine: bounded-memory greedy reduction over
// an unbounded, chunked segment feed.
//
// The paper's gPTAc (Sec. 6.2) already merges while ITA tuples are being
// produced, but its driver is batch-shaped: one SegmentSource, drained to
// exhaustion, one result. StreamingPtaEngine turns the same greedy core
// into a long-lived service primitive:
//
//   * segments arrive chunk by chunk (IngestChunk / Ingest), interleaved
//     across groups — each group keeps its own chronological chain in the
//     shared merge core (pta/merge_heap.h), so a live feed does not have
//     to be group-major like a materialized SequentialRelation;
//   * merge candidates, their Δ-cost keys (dsim, Prop. 2), the Def. 3 fold
//     and the Prop. 3 / δ early-merge test are the core's, the same code
//     gPTAc runs — the engine adds only policy: groups, watermark sealing
//     and the emission buffer;
//   * a watermark (AdvanceWatermark) finalizes rows that can no longer
//     meet any future arrival and moves them to an emission buffer the
//     caller drains with TakeEmitted — this is what bounds memory on an
//     unbounded stream;
//   * Snapshot() renders the current summary (pending emissions + live
//     rows) at any time without disturbing the engine, and Finalize()
//     performs the terminal GMS drain down to the size budget.
//
// Equivalence contract: if the watermark is never advanced and segments
// arrive in group-then-time order (any chunking), Finalize() is
// byte-identical to batch GreedyReduceToSize on the concatenated input —
// same merge schedule, same tie-breaks, same floating-point operation
// order. Once the watermark is in use the engine instead behaves as a
// sliding-window GMS: budget pressure merges the globally cheapest live
// pair without waiting for the Prop. 3 / δ confirmations (a pair's dsim
// never changes with future arrivals, so this is what GMS over the
// resident window would do), which pins live memory at size_budget + 1
// between gaps. The result then deviates from batch gPTAc by a bounded
// amount; docs/STREAMING.md quantifies the trade.

#ifndef PTA_STREAM_STREAM_H_
#define PTA_STREAM_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval.h"
#include "pta/error.h"
#include "pta/greedy.h"
#include "pta/merge_heap.h"
#include "pta/segment.h"
// StreamingOptions lives in the pta layer so the query planner can carry
// streaming tuning without depending on this library.
#include "pta/stream_options.h"
#include "util/status.h"

namespace pta {

/// \brief Observability counters of one streaming engine.
struct StreamingStats {
  /// Segments accepted by Ingest/IngestChunk.
  size_t ingested = 0;
  /// Total merges performed (ingest-time + Finalize drain).
  size_t merges = 0;
  /// Merges performed while ingestion was still open (the gPTAc "early"
  /// merges; Finalize's terminal drain is not counted here).
  size_t early_merges = 0;
  /// Rows finalized by the watermark and handed to the emission buffer.
  size_t emitted = 0;
  /// Peak number of live rows (the c + β of Sec. 6.2, Fig. 20).
  size_t max_live_rows = 0;
  /// Cumulative SSE (Def. 5) introduced by all merges so far.
  double merge_sse = 0.0;
};

/// \brief Online, bounded-memory greedy PTA over a chunked segment feed.
///
/// Not thread-safe: one engine is a single-writer object. For parallel
/// ingestion across many groups, use ShardedStreamingEngine
/// (stream/sharded_stream.h), which runs one engine per group shard.
class StreamingPtaEngine {
 public:
  /// Creates an engine for segments with `num_aggregates` values. Aborts
  /// (programmer error) on a zero size budget or mismatched weight arity.
  StreamingPtaEngine(size_t num_aggregates, StreamingOptions options);

  size_t num_aggregates() const { return p_; }
  const StreamingOptions& options() const { return options_; }

  /// Ingests one segment. Within a group, segments must arrive
  /// chronologically with disjoint intervals; groups may interleave
  /// freely. Segments must not begin before the current watermark.
  /// Fails with FailedPrecondition on ordering violations and with
  /// InvalidArgument on a wrong arity, a non-finite value, an inverted
  /// interval, or a group whose live rows would cover more than INT64_MAX
  /// chronons, after which the engine state is unchanged (the offending
  /// segment is dropped).
  [[nodiscard]] Status Ingest(const Segment& seg);

  /// Ingests every segment of `chunk` in order, then applies the
  /// auto-watermark policy if configured. The chunk's arity must match.
  /// Not atomic: on failure the rows before the offending one stay
  /// ingested (the error message names the failing row's group), so
  /// resubmit only the corrected remainder, not the whole chunk.
  [[nodiscard]] Status IngestChunk(const SequentialRelation& chunk);

  /// Declares that no future segment will begin before `watermark`. Every
  /// live row that can no longer meet a future arrival (row end + 1 <
  /// watermark; with merge_across_gaps, group tails are additionally kept
  /// live) is sealed and moved to the emission buffer. Monotone: a
  /// watermark strictly below the current one fails with InvalidArgument;
  /// re-announcing the current watermark is an idempotent no-op.
  [[nodiscard]] Status AdvanceWatermark(Chronon watermark);

  /// The current watermark (minimum begin of any future segment).
  /// kNoWatermark until the first advance.
  Chronon watermark() const { return watermark_; }
  static constexpr Chronon kNoWatermark =
      std::numeric_limits<Chronon>::min();

  /// Drains the emission buffer: all sealed rows not yet taken, as a valid
  /// sequential relation (group id order, chronological within groups).
  /// Groups with no remaining state are released, so long-running feeds
  /// with churning group populations stay bounded.
  SequentialRelation TakeEmitted();

  /// The current summary without disturbing the engine: sealed-but-untaken
  /// rows followed by the live rows of every group, in group id order.
  SequentialRelation Snapshot() const;

  /// Terminal GMS drain (Fig. 11 lines 15-18): merges live rows down to
  /// the size budget while mergeable pairs remain, then returns pending
  /// emissions + the reduced live rows. Unlike batch GreedyReduceToSize,
  /// an infeasible budget (c below the live cmin) does not fail — the
  /// drain stops at the cmin. Fails with FailedPrecondition on a second
  /// call or on ingestion after finalization.
  [[nodiscard]] Result<SequentialRelation> Finalize();

  /// Serializes the complete engine state (options, watermark, Prop. 3
  /// counters, stats, pending emissions, and every live merge chain) into
  /// a versioned, checksummed byte string (stream/snapshot.cc; format in
  /// docs/PERSISTENCE.md). RestoreSnapshot on the result yields an engine
  /// that replays the rest of the stream byte-identically to one that was
  /// never interrupted: keys, tie-break ids, and the floating-point
  /// accumulator state are all preserved bitwise.
  std::string SaveSnapshot() const;

  /// Rebuilds an engine from SaveSnapshot bytes. Every live row goes back
  /// through the merge core's insert path with its stored id and covered
  /// count; the recomputed key is verified bitwise against the stored one.
  /// Malformed input (truncation, bit flips, bad magic, future version,
  /// non-finite values, structural lies) is rejected as InvalidArgument,
  /// never a crash.
  [[nodiscard]] static Result<std::unique_ptr<StreamingPtaEngine>> RestoreSnapshot(
      std::string_view bytes);

  /// Live (unsealed, unfinalized) rows currently held.
  size_t live_rows() const { return heap_.size(); }
  /// Rows sealed but not yet taken by TakeEmitted().
  size_t pending_rows() const { return pending_; }
  /// Cumulative SSE introduced by merging, equal (up to floating-point
  /// accumulation) to StepFunctionSse(input, emitted + live output).
  double total_error() const { return stats_.merge_sse; }
  const StreamingStats& stats() const { return stats_; }

 private:
  struct Group {
    /// The group's live chain in heap_ (MergeHeap::kNoNode when empty).
    int32_t head = MergeHeap::kNoNode;
    int32_t tail = MergeHeap::kNoNode;
    /// Chronons the live chain covers. Merging sums covered counts within
    /// the chain, so Ingest keeps this within int64_t.
    int64_t covered = 0;
    /// Sealed rows awaiting TakeEmitted, chronologically ordered; always a
    /// prefix of the group's history before the live chain.
    std::vector<Segment> pending;
    /// Whether seal_queue_ holds an entry for this group.
    bool queued = false;
  };

  /// Merges the (finite-key) heap top into its chain predecessor and books
  /// the merge; `early` while ingestion is still open.
  void MergeTop(bool early);
  /// The gPTAc ingest-time merge loop (Prop. 3 + δ read-ahead).
  void MergeWhileOverBudget();
  /// Seals every live prefix row of `group` that is settled under
  /// watermark `w`.
  void SealSettledPrefix(Group& group, Chronon w);
  /// Enters group `id`, which has a live chain, into seal_queue_.
  void QueueForSealing(int32_t id, Group& group);
  /// Every group id, ascending: the order of all group-major output.
  std::vector<int32_t> SortedGroupIds() const;

  size_t p_;
  StreamingOptions options_;
  /// Every group's live chain, the Δ-cost heap and the Prop. 3 counters.
  MergeHeap heap_;
  /// Group id -> chain + emission state. Unordered: every group-major
  /// output sorts the ids it visits, so no per-row lookup pays for order.
  std::unordered_map<int32_t, Group> groups_;
  /// (head end, group id), at most one entry per group with a live chain,
  /// minimum first. A key may be stale, but only low: a head's end never
  /// decreases (merges extend it, sealing exposes a later row). So a
  /// watermark advance visits only the groups that may have settled rows.
  using SealEntry = std::pair<Chronon, int32_t>;
  std::priority_queue<SealEntry, std::vector<SealEntry>, std::greater<>>
      seal_queue_;
  /// Groups that gained a pending row since the last TakeEmitted.
  std::vector<int32_t> emitting_;

  size_t pending_ = 0;
  Chronon watermark_ = kNoWatermark;
  Chronon max_begin_seen_ = kNoWatermark;
  bool finalized_ = false;
  StreamingStats stats_;
};

}  // namespace pta

#endif  // PTA_STREAM_STREAM_H_
