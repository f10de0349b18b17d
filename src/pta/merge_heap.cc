#include "pta/merge_heap.h"

#include "pta/greedy.h"

namespace pta {

MergeHeap::MergeHeap(size_t p, const std::vector<double>& weights,
                     bool merge_across_gaps)
    : p_(p),
      weights_(WeightsOrOnes(p, weights)),
      merge_across_gaps_(merge_across_gaps) {}

double MergeHeap::KeyFor(int32_t a, int32_t b) const {
  if (a < 0) return kInfiniteError;
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (!Mergeable(na, nb)) return kInfiniteError;
  return Dsim(na.covered, ValuesOf(a), nb.covered, ValuesOf(b), p_,
              weights_.data());
}

int32_t MergeHeap::AllocNode() {
  if (!free_.empty()) {
    const int32_t h = free_.back();
    free_.pop_back();
    nodes_[h] = Node{};
    return h;
  }
  nodes_.emplace_back();
  values_.resize(nodes_.size() * p_, 0.0);
  return static_cast<int32_t>(nodes_.size() - 1);
}

void MergeHeap::FreeNode(int32_t h) { free_.push_back(h); }

void MergeHeap::SiftUp(size_t pos) {
  const int32_t h = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Less(h, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    nodes_[heap_[pos]].heap_pos = static_cast<int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = h;
  nodes_[h].heap_pos = static_cast<int32_t>(pos);
}

void MergeHeap::SiftDown(size_t pos) {
  const int32_t h = heap_[pos];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
    if (!Less(heap_[child], h)) break;
    heap_[pos] = heap_[child];
    nodes_[heap_[pos]].heap_pos = static_cast<int32_t>(pos);
    pos = child;
  }
  heap_[pos] = h;
  nodes_[h].heap_pos = static_cast<int32_t>(pos);
}

void MergeHeap::HeapRemove(size_t pos) {
  const int32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    nodes_[last].heap_pos = static_cast<int32_t>(pos);
    SiftDown(pos);
    SiftUp(nodes_[last].heap_pos);
  }
}

void MergeHeap::Rekey(int32_t h, double new_key) {
  Node& node = nodes_[h];
  const double old_key = node.key;
  if (new_key == old_key) return;
  node.key = new_key;
  if (new_key < old_key) {
    SiftUp(static_cast<size_t>(node.heap_pos));
  } else {
    SiftDown(static_cast<size_t>(node.heap_pos));
  }
}

int32_t MergeHeap::InsertRestored(int32_t after, int64_t id, int32_t group,
                                  const Interval& t, int64_t covered,
                                  const double* values) {
  if (after >= 0) {
    const Node& tail = nodes_[after];
    PTA_CHECK_MSG(tail.next < 0 &&
                      (tail.group < group ||
                       (tail.group == group && tail.t.end < t.begin)),
                  "segments must arrive sorted by group then time");
  }
  const int32_t h = AllocNode();
  Node& node = nodes_[h];
  node.id = id;
  node.group = group;
  node.t = t;
  node.covered = covered;
  node.prev = after;
  node.next = -1;
  for (size_t d = 0; d < p_; ++d) ValuesOf(h)[d] = values[d];
  if (after >= 0) nodes_[after].next = h;
  node.key = KeyFor(after, h);

  heap_.push_back(h);
  node.heap_pos = static_cast<int32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
  if (heap_.size() > max_size_) max_size_ = heap_.size();
  return h;
}

int32_t MergeHeap::Insert(const Segment& seg, int32_t after) {
  PTA_CHECK_MSG(seg.values.size() == p_, "segment arity mismatch");
  const int64_t id = next_id_++;
  const int32_t h = InsertRestored(after, id, seg.group, seg.t,
                                   seg.t.length(), seg.values.data());
  if (nodes_[h].key == kInfiniteError) {
    // A non-adjacent pair (or a chain head) marks a merge boundary.
    last_gap_id_ = id;
    before_gap_ += after_gap_;
    after_gap_ = 1;
  } else {
    ++after_gap_;
  }
  return h;
}

void MergeHeap::RestoreCounters(int64_t next_id, int64_t last_gap_id,
                                int64_t before_gap, int64_t after_gap) {
  next_id_ = next_id;
  last_gap_id_ = last_gap_id;
  before_gap_ = before_gap;
  after_gap_ = after_gap;
}

MergeHeap::TopInfo MergeHeap::Peek() const {
  PTA_CHECK_MSG(!heap_.empty(), "Peek on empty heap");
  const int32_t h = heap_[0];
  return {nodes_[h].id, nodes_[h].key, h};
}

bool MergeHeap::TopHasDeltaSuccessors(size_t delta) const {
  if (delta == GreedyOptions::kDeltaInfinity) return false;
  size_t count = 0;
  int32_t cur = heap_[0];
  while (count < delta) {
    const int32_t next = nodes_[cur].next;
    if (next < 0 || !Mergeable(nodes_[cur], nodes_[next])) break;
    cur = next;
    ++count;
  }
  return count >= delta;
}

MergeHeap::EarlyMerge MergeHeap::ClassifyTop(int64_t pre_gap_floor,
                                             size_t delta) const {
  PTA_CHECK_MSG(!heap_.empty(), "ClassifyTop on empty heap");
  const int64_t id = nodes_[heap_[0]].id;
  // Prop. 3: a later non-adjacent pair exists and *more than* the floor's
  // live tuples precede it, so GMS is forced to perform this merge too (the
  // post-gap region keeps at least one tuple, capping the final pre-gap
  // count at c - 1). The bound is strict: merging while before_gap == c
  // would take the pre-gap region down to c - 1 one step before the stream
  // proves the step is needed, and the merge's re-keying can expose a
  // cheaper pair to the final drain than GMS ever sees at its stop-at-c
  // cutoff — the budget-boundary bug the PtaIndex regression sweep caught.
  if (id < last_gap_id_ && before_gap_ > pre_gap_floor) {
    return EarlyMerge::kPreGap;
  }
  if (id > last_gap_id_ && TopHasDeltaSuccessors(delta)) {
    return EarlyMerge::kPostGap;
  }
  return EarlyMerge::kNone;
}

void MergeHeap::Uncount(int64_t id) {
  if (id < last_gap_id_) {
    if (before_gap_ > 0) --before_gap_;
  } else if (after_gap_ > 0) {
    --after_gap_;
  }
}

double MergeHeap::MergeTop(MergeRecord* record) {
  PTA_CHECK_MSG(!heap_.empty(), "MergeTop on empty heap");
  const int32_t nh = heap_[0];
  Node& n = nodes_[nh];
  PTA_CHECK_MSG(n.key < kInfiniteError, "top node has no adjacent predecessor");
  const double introduced = n.key;
  const int32_t ph = n.prev;
  Node& p = nodes_[ph];
  if (record != nullptr) {
    record->top_id = n.id;
    record->pred_id = p.id;
    record->key = introduced;
    record->group = p.group;
  }

  // Fold N into P (Def. 3): weighted-average values, concatenate timestamps
  // (hull when gap merging is enabled; the weights are the covered lengths).
  const double lp = static_cast<double>(p.covered);
  const double ln = static_cast<double>(n.covered);
  double* pv = ValuesOf(ph);
  const double* nv = ValuesOf(nh);
  for (size_t d = 0; d < p_; ++d) pv[d] = MergedValue(lp, pv[d], ln, nv[d]);
  p.t.end = n.t.end;
  p.covered += n.covered;
  if (record != nullptr) {
    record->t = p.t;
    record->covered = p.covered;
    record->values = pv;
  }

  // Unlink N.
  p.next = n.next;
  if (n.next >= 0) nodes_[n.next].prev = ph;
  HeapRemove(0);
  FreeNode(nh);

  // P's value and length changed: re-key P against its predecessor and P's
  // new successor against P.
  Rekey(ph, KeyFor(p.prev, ph));
  if (p.next >= 0) Rekey(p.next, KeyFor(ph, p.next));
  return introduced;
}

double MergeHeap::EarlyMergeTop() {
  PTA_CHECK_MSG(!heap_.empty(), "EarlyMergeTop on empty heap");
  Uncount(nodes_[heap_[0]].id);
  return MergeTop();
}

int32_t MergeHeap::RemoveHead(int32_t h) {
  Node& node = nodes_[h];
  PTA_CHECK_MSG(node.prev < 0, "RemoveHead on a non-head node");
  Uncount(node.id);
  const int32_t next = node.next;
  HeapRemove(static_cast<size_t>(node.heap_pos));
  FreeNode(h);
  if (next >= 0) {
    nodes_[next].prev = -1;
    Rekey(next, kInfiniteError);  // the new head cannot merge down
  }
  return next;
}

void MergeHeap::AppendChain(int32_t head, SequentialRelation* out) const {
  for (int32_t h = head; h >= 0; h = nodes_[h].next) {
    out->Append(nodes_[h].group, nodes_[h].t, ValuesOf(h));
  }
}

SequentialRelation MergeHeap::ExtractRelation(int32_t head) const {
  SequentialRelation rel(p_);
  rel.Reserve(heap_.size());
  AppendChain(head, &rel);
  return rel;
}

}  // namespace pta
