#include "stream/stream.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pta {

StreamingPtaEngine::StreamingPtaEngine(size_t num_aggregates,
                                       StreamingOptions options)
    : p_(num_aggregates),
      options_(std::move(options)),
      heap_(p_, options_.weights, options_.merge_across_gaps) {
  PTA_CHECK_MSG(options_.size_budget > 0, "size_budget must be positive");
}

void StreamingPtaEngine::MergeTop(bool early) {
  const int32_t top = heap_.Peek().node;
  if (heap_.next(top) == MergeHeap::kNoNode) {
    groups_[heap_.group(top)].tail = heap_.prev(top);
  }
  stats_.merge_sse += early ? heap_.EarlyMergeTop() : heap_.MergeTop();
  ++stats_.merges;
  if (early) ++stats_.early_merges;
}

void StreamingPtaEngine::MergeWhileOverBudget() {
  // The gPTAc ingest loop (Fig. 11): merge the globally cheapest pair while
  // over budget, but only when Prop. 3 or the δ read-ahead confirms the
  // merge is one GMS would also perform.
  //
  // Watermark mode drops that confirmation: the engine is then a
  // sliding-window GMS, not a replay of full-stream gPTAc (that equivalence
  // needs the whole stream and is only promised while the watermark stays
  // disabled). A pair's dsim never changes with future arrivals, so
  // merging the current cheapest pair under budget pressure is exactly
  // what GMS over the resident window would do — and it keeps live rows at
  // c + 1 even after sealing has drained the Prop. 3 counters.
  while (heap_.size() > options_.size_budget &&
         heap_.Peek().key < kInfiniteError &&
         (watermark_ != kNoWatermark ||
          heap_.ClassifyTop(static_cast<int64_t>(options_.size_budget),
                            options_.delta) != MergeHeap::EarlyMerge::kNone)) {
    MergeTop(/*early=*/true);
  }
}

Status StreamingPtaEngine::Ingest(const Segment& seg) {
  if (finalized_) {
    return Status::FailedPrecondition("engine is finalized");
  }
  if (seg.values.size() != p_) {
    return Status::InvalidArgument("segment arity mismatch: got " +
                                   std::to_string(seg.values.size()) +
                                   ", engine expects " + std::to_string(p_));
  }
  for (size_t d = 0; d < p_; ++d) {
    if (!std::isfinite(seg.values[d])) {
      return Status::InvalidArgument(
          "segment value " + std::to_string(d) + " is not finite (" +
          std::to_string(seg.values[d]) + ")");
    }
  }
  if (watermark_ != kNoWatermark && seg.t.begin < watermark_) {
    return Status::FailedPrecondition(
        "segment begins at " + std::to_string(seg.t.begin) +
        ", before the watermark " + std::to_string(watermark_));
  }
  // Validate against the group's live chain without creating the group, so
  // a rejected segment leaves no trace.
  auto it = groups_.find(seg.group);
  int64_t chain_covered = 0;
  if (it != groups_.end() && it->second.tail >= 0) {
    if (heap_.interval(it->second.tail).end >= seg.t.begin) {
      return Status::FailedPrecondition(
          "segments of group " + std::to_string(seg.group) +
          " must arrive chronologically with disjoint intervals");
    }
    chain_covered = it->second.covered;
  }
  // Covered counts and Δ-cost denominators sum lengths within one live
  // chain (as SequentialRelation::Validate bounds them per group).
  if (!LengthFitsInt64(seg.t.begin, seg.t.end) ||
      seg.t.length() > INT64_MAX - chain_covered) {
    return Status::InvalidArgument(
        "segment " + seg.t.ToString() + " of group " +
        std::to_string(seg.group) +
        " is inverted or makes its live rows cover more than INT64_MAX "
        "chronons");
  }
  if (it == groups_.end()) it = groups_.emplace(seg.group, Group{}).first;
  Group& group = it->second;
  group.tail = heap_.Insert(seg, group.tail);
  if (group.head < 0) group.head = group.tail;
  group.covered += seg.t.length();
  if (!group.queued) QueueForSealing(seg.group, group);

  ++stats_.ingested;
  if (heap_.size() > stats_.max_live_rows) {
    stats_.max_live_rows = heap_.size();
  }
  if (max_begin_seen_ == kNoWatermark || seg.t.begin > max_begin_seen_) {
    max_begin_seen_ = seg.t.begin;
  }

  MergeWhileOverBudget();
  return Status::Ok();
}

Status StreamingPtaEngine::IngestChunk(const SequentialRelation& chunk) {
  if (chunk.num_aggregates() != p_) {
    return Status::InvalidArgument("chunk arity mismatch");
  }
  Segment seg;
  seg.values.resize(p_);
  for (size_t i = 0; i < chunk.size(); ++i) {
    seg.group = chunk.group(i);
    seg.t = chunk.interval(i);
    const double* v = chunk.values(i);
    std::copy(v, v + p_, seg.values.begin());
    PTA_RETURN_IF_ERROR(Ingest(seg));
  }
  if (options_.auto_watermark_lag >= 0 && max_begin_seen_ != kNoWatermark) {
    const Chronon target = max_begin_seen_ - options_.auto_watermark_lag;
    if (watermark_ == kNoWatermark || target > watermark_) {
      PTA_RETURN_IF_ERROR(AdvanceWatermark(target));
    }
  }
  return Status::Ok();
}

void StreamingPtaEngine::SealSettledPrefix(Group& group, Chronon w) {
  while (group.head >= 0) {
    const int32_t h = group.head;
    // Settled: no future arrival (all begin >= w) can meet this row. With
    // gap merging any future same-group segment can fold into the chain
    // tail, so tails stay live there. (w > kNoWatermark here, so w - 1
    // cannot overflow.)
    if (heap_.interval(h).end >= w - 1) break;
    if (options_.merge_across_gaps && h == group.tail) break;

    if (group.pending.empty()) emitting_.push_back(heap_.group(h));
    Segment sealed;
    sealed.group = heap_.group(h);
    sealed.t = heap_.interval(h);
    sealed.values.assign(heap_.values(h), heap_.values(h) + p_);
    group.pending.push_back(std::move(sealed));
    ++pending_;
    ++stats_.emitted;

    // The sealed row leaves the live set and the Prop. 3 counts.
    group.covered -= heap_.covered(h);
    group.head = heap_.RemoveHead(h);
    if (group.head < 0) group.tail = MergeHeap::kNoNode;
  }
}

void StreamingPtaEngine::QueueForSealing(int32_t id, Group& group) {
  seal_queue_.emplace(heap_.interval(group.head).end, id);
  group.queued = true;
}

std::vector<int32_t> StreamingPtaEngine::SortedGroupIds() const {
  std::vector<int32_t> ids;
  ids.reserve(groups_.size());
  for (const auto& entry : groups_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status StreamingPtaEngine::AdvanceWatermark(Chronon watermark) {
  if (finalized_) {
    return Status::FailedPrecondition("engine is finalized");
  }
  if (watermark_ != kNoWatermark && watermark < watermark_) {
    return Status::InvalidArgument(
        "watermark must be monotone: " + std::to_string(watermark) +
        " is below the current " + std::to_string(watermark_));
  }
  // Re-announcing the current watermark is an idempotent no-op (retried
  // upstream frames do this routinely); only a strictly lower advance is an
  // error. Skip the sealing scan — nothing new can settle.
  if (watermark == watermark_) return Status::Ok();
  watermark_ = watermark;
  while (!seal_queue_.empty() && seal_queue_.top().first < watermark - 1) {
    const int32_t id = seal_queue_.top().second;
    seal_queue_.pop();
    Group& group = groups_[id];
    group.queued = false;
    SealSettledPrefix(group, watermark);
    // A remaining head below the watermark is a lone gap-merging tail; its
    // group's next Ingest queues it again.
    if (group.head >= 0 && heap_.interval(group.head).end >= watermark - 1) {
      QueueForSealing(id, group);
    }
  }
  return Status::Ok();
}

SequentialRelation StreamingPtaEngine::TakeEmitted() {
  SequentialRelation out(p_);
  out.Reserve(pending_);
  // Only a group that sealed rows can have lost its live chain, so the
  // groups that emitted are also the only ones to release.
  std::sort(emitting_.begin(), emitting_.end());
  for (const int32_t id : emitting_) {
    const auto it = groups_.find(id);
    Group& group = it->second;
    for (const Segment& seg : group.pending) out.Append(seg);
    group.pending.clear();
    // A group with no live chain and no pending rows holds no state; drop
    // it so churning group populations do not grow the engine forever.
    if (group.head < 0) groups_.erase(it);
  }
  emitting_.clear();
  pending_ = 0;
  return out;
}

SequentialRelation StreamingPtaEngine::Snapshot() const {
  SequentialRelation out(p_);
  out.Reserve(pending_ + heap_.size());
  for (const int32_t id : SortedGroupIds()) {
    const Group& group = groups_.at(id);
    for (const Segment& seg : group.pending) out.Append(seg);
    heap_.AppendChain(group.head, &out);
  }
  return out;
}

Result<SequentialRelation> StreamingPtaEngine::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("engine is already finalized");
  }
  finalized_ = true;
  // Terminal GMS drain: no more arrivals can confirm safety, so merge the
  // globally cheapest pair until the budget is met or only non-adjacent
  // pairs remain (the live cmin — unlike batch gPTAc this is not an
  // error, because a long-running stream legitimately outlives any fixed
  // feasibility precondition).
  while (heap_.size() > options_.size_budget &&
         heap_.Peek().key < kInfiniteError) {
    MergeTop(/*early=*/false);
  }
  SequentialRelation out = Snapshot();
  // emitting_ stays: a later TakeEmitted still releases the sealed groups.
  for (auto& entry : groups_) entry.second.pending.clear();
  pending_ = 0;
  return out;
}

}  // namespace pta
