#include "stream/stream.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pta {

namespace {

// Mirrors greedy.cc: true when the δ read-ahead heuristic allows merging.
bool DeltaAllows(size_t delta, bool has_delta_successors) {
  if (delta == GreedyOptions::kDeltaInfinity) return false;
  if (delta == 0) return true;
  return has_delta_successors;
}

}  // namespace

StreamingPtaEngine::StreamingPtaEngine(size_t num_aggregates,
                                       StreamingOptions options)
    : p_(num_aggregates),
      options_(std::move(options)),
      weights_(WeightsOrOnes(p_, options_.weights)) {
  PTA_CHECK_MSG(options_.size_budget > 0, "size_budget must be positive");
}

double StreamingPtaEngine::KeyFor(int32_t a, int32_t b) const {
  if (a < 0) return kInfiniteError;
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (!Mergeable(na, nb)) return kInfiniteError;
  return Dsim(na.covered, ValuesOf(a), nb.covered, ValuesOf(b), p_,
              weights_.data());
}

int32_t StreamingPtaEngine::AllocNode() {
  if (!free_.empty()) {
    const int32_t h = free_.back();
    free_.pop_back();
    // Preserve the version counter so candidates for the slot's previous
    // occupant stay invalid.
    const uint32_t version = nodes_[h].version;
    nodes_[h] = Node{};
    nodes_[h].version = version;
    return h;
  }
  nodes_.emplace_back();
  values_.resize(nodes_.size() * p_, 0.0);
  return static_cast<int32_t>(nodes_.size() - 1);
}

void StreamingPtaEngine::FreeNode(int32_t h) {
  nodes_[h].alive = false;
  ++nodes_[h].version;
  free_.push_back(h);
}

void StreamingPtaEngine::SetKey(int32_t h, double new_key) {
  Node& node = nodes_[h];
  if (new_key == node.key) return;
  node.key = new_key;
  ++node.version;
  if (new_key < kInfiniteError) {
    heap_.push(Candidate{new_key, node.id, h, node.version});
  }
}

bool StreamingPtaEngine::PeekTop(Candidate* top) {
  while (!heap_.empty()) {
    const Candidate& cand = heap_.top();
    const Node& node = nodes_[cand.node];
    if (node.alive && node.version == cand.version) {
      *top = cand;
      return true;
    }
    heap_.pop();  // lazy invalidation: stale entry dies here
  }
  return false;
}

void StreamingPtaEngine::CompactHeapIfNeeded() {
  if (heap_.size() <= 4 * live_ + 64) return;
  std::vector<Candidate> fresh;
  fresh.reserve(live_);
  for (const auto& [group_id, group] : groups_) {
    (void)group_id;
    for (int32_t h = group.head; h >= 0; h = nodes_[h].next) {
      const Node& node = nodes_[h];
      if (node.key < kInfiniteError) {
        fresh.push_back(Candidate{node.key, node.id, h, node.version});
      }
    }
  }
  heap_ = std::priority_queue<Candidate, std::vector<Candidate>,
                              std::greater<Candidate>>(
      std::greater<Candidate>(), std::move(fresh));
}

double StreamingPtaEngine::MergeCandidate(const Candidate& top, Group& group) {
  const int32_t nh = top.node;
  Node& n = nodes_[nh];
  const double introduced = n.key;
  const int32_t ph = n.prev;
  Node& p = nodes_[ph];

  // Fold N into P (Def. 3) with the exact arithmetic of
  // MergeHeap::MergeTop, so the batch and streaming engines agree bit for
  // bit: weighted-average values, concatenated timestamps (hull when gap
  // merging is enabled; the weights are the covered lengths).
  const double lp = static_cast<double>(p.covered);
  const double ln = static_cast<double>(n.covered);
  double* pv = ValuesOf(ph);
  const double* nv = ValuesOf(nh);
  for (size_t d = 0; d < p_; ++d) {
    pv[d] = (lp * pv[d] + ln * nv[d]) / (lp + ln);
  }
  p.t.end = n.t.end;
  p.covered += n.covered;

  // Unlink N from the group chain.
  p.next = n.next;
  if (n.next >= 0) {
    nodes_[n.next].prev = ph;
  } else {
    group.tail = ph;
  }
  FreeNode(nh);
  --live_;

  // P's value and length changed: re-key P against its predecessor and
  // P's new successor against P.
  SetKey(ph, KeyFor(p.prev, ph));
  if (p.next >= 0) SetKey(p.next, KeyFor(ph, p.next));

  stats_.merge_sse += introduced;
  ++stats_.merges;
  return introduced;
}

bool StreamingPtaEngine::HasDeltaSuccessors(int32_t h) const {
  size_t count = 0;
  int32_t cur = h;
  while (count < options_.delta) {
    const int32_t next = nodes_[cur].next;
    if (next < 0) break;
    if (!Mergeable(nodes_[cur], nodes_[next])) break;
    cur = next;
    ++count;
  }
  return count >= options_.delta;
}

void StreamingPtaEngine::MergeWhileOverBudget() {
  // The gPTAc ingest loop (Fig. 11 / greedy.cc): merge the globally
  // cheapest pair while over budget, but only when Prop. 3 (a later gap
  // with strictly more than c live rows before it) or the δ read-ahead
  // confirms the merge is one GMS would also perform.
  const int64_t c = static_cast<int64_t>(options_.size_budget);
  while (live_ > options_.size_budget) {
    Candidate top;
    if (!PeekTop(&top)) break;  // every live pair is non-adjacent
    Node& node = nodes_[top.node];
    Group& group = groups_[node.group];
    // Strict bound, mirroring greedy.cc: only merges the stream has already
    // proven forced (pre-gap count must fall below c, not merely to c - 1
    // eventually) keep the replay byte-identical to batch gPTAc.
    if (top.id < last_gap_id_ && before_gap_ > c) {
      --before_gap_;
      MergeCandidate(top, group);
      ++stats_.early_merges;
    } else if (top.id > last_gap_id_ &&
               DeltaAllows(options_.delta, HasDeltaSuccessors(top.node))) {
      --after_gap_;
      MergeCandidate(top, group);
      ++stats_.early_merges;
    } else if (watermark_ != kNoWatermark) {
      // Watermark mode: the engine is a sliding-window GMS, not a replay
      // of full-stream gPTAc (that equivalence needs the whole stream and
      // is only promised while the watermark stays disabled). A pair's
      // dsim never changes with future arrivals, so merging the current
      // cheapest pair under budget pressure is exactly what GMS over the
      // resident window would do — and it keeps live rows at c + 1 even
      // after sealing has drained the Prop. 3 counters. Never fires while
      // the watermark is disabled, preserving batch byte-identity.
      if (top.id < last_gap_id_) {
        if (before_gap_ > 0) --before_gap_;
      } else if (after_gap_ > 0) {
        --after_gap_;
      }
      MergeCandidate(top, group);
      ++stats_.early_merges;
    } else {
      break;
    }
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
  Group& group = groups_[seg.group];
  if (group.tail >= 0 && nodes_[group.tail].t.end >= seg.t.begin) {
    return Status::FailedPrecondition(
        "segments of group " + std::to_string(seg.group) +
        " must arrive chronologically with disjoint intervals");
  }

  const int32_t h = AllocNode();
  Node& node = nodes_[h];
  node.id = next_id_++;
  node.group = seg.group;
  node.t = seg.t;
  node.covered = seg.t.length();
  node.prev = group.tail;
  node.next = -1;
  node.alive = true;
  for (size_t d = 0; d < p_; ++d) ValuesOf(h)[d] = seg.values[d];
  if (group.tail >= 0) {
    nodes_[group.tail].next = h;
  } else {
    group.head = h;
  }
  group.tail = h;
  node.key = KeyFor(node.prev, h);
  if (node.key < kInfiniteError) {
    heap_.push(Candidate{node.key, node.id, h, node.version});
  }

  // Prop. 3 bookkeeping (greedy.cc): a non-adjacent arrival (chain head or
  // gap) marks a merge boundary in global insertion order.
  if (node.key == kInfiniteError) {
    last_gap_id_ = node.id;
    before_gap_ += after_gap_;
    after_gap_ = 1;
  } else {
    ++after_gap_;
  }

  ++live_;
  ++stats_.ingested;
  if (live_ > stats_.max_live_rows) stats_.max_live_rows = live_;
  if (max_begin_seen_ == kNoWatermark || seg.t.begin > max_begin_seen_) {
    max_begin_seen_ = seg.t.begin;
  }

  MergeWhileOverBudget();
  CompactHeapIfNeeded();
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
  int32_t cur = group.head;
  while (cur >= 0) {
    Node& node = nodes_[cur];
    // Settled: no future arrival (all begin >= w) can meet this row. With
    // gap merging any future same-group segment can fold into the chain
    // tail, so tails stay live there.
    if (node.t.end + 1 >= w) break;
    if (options_.merge_across_gaps && node.next < 0) break;

    Segment sealed;
    sealed.group = node.group;
    sealed.t = node.t;
    sealed.values.assign(ValuesOf(cur), ValuesOf(cur) + p_);
    group.pending.push_back(std::move(sealed));
    ++pending_;
    ++stats_.emitted;

    // The sealed row leaves the live set: update the Prop. 3 counters the
    // same way a merge that consumed it would have.
    if (node.id < last_gap_id_) {
      if (before_gap_ > 0) --before_gap_;
    } else if (after_gap_ > 0) {
      --after_gap_;
    }

    const int32_t next = node.next;
    group.head = next;
    if (next >= 0) {
      nodes_[next].prev = -1;
      SetKey(next, kInfiniteError);  // the new chain head cannot merge down
    } else {
      group.tail = -1;
    }
    FreeNode(cur);
    --live_;
    cur = next;
  }
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
  for (auto& [group_id, group] : groups_) {
    (void)group_id;
    SealSettledPrefix(group, watermark);
  }
  CompactHeapIfNeeded();
  return Status::Ok();
}

SequentialRelation StreamingPtaEngine::TakeEmitted() {
  SequentialRelation out(p_);
  out.Reserve(pending_);
  for (auto it = groups_.begin(); it != groups_.end();) {
    Group& group = it->second;
    for (const Segment& seg : group.pending) out.Append(seg);
    group.pending.clear();
    // A group with no live chain and no pending rows holds no state; drop
    // it so churning group populations do not grow the engine forever.
    if (group.head < 0) {
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
  pending_ = 0;
  return out;
}

SequentialRelation StreamingPtaEngine::Snapshot() const {
  SequentialRelation out(p_);
  out.Reserve(pending_ + live_);
  for (const auto& [group_id, group] : groups_) {
    (void)group_id;
    for (const Segment& seg : group.pending) out.Append(seg);
    for (int32_t h = group.head; h >= 0; h = nodes_[h].next) {
      out.Append(nodes_[h].group, nodes_[h].t, ValuesOf(h));
    }
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
  while (live_ > options_.size_budget) {
    Candidate top;
    if (!PeekTop(&top)) break;
    MergeCandidate(top, groups_[nodes_[top.node].group]);
  }
  SequentialRelation out = Snapshot();
  for (auto& [group_id, group] : groups_) {
    (void)group_id;
    group.pending.clear();
  }
  pending_ = 0;
  return out;
}

}  // namespace pta
