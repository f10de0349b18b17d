// The chain-and-heap core of every greedy PTA engine (Sec. 6.2.2): heap
// nodes represent (possibly merged) ITA result tuples linked into
// chronological chains; a node's key is the error of merging it into its
// chain predecessor (dsim, Prop. 2), infinity when the pair is non-adjacent
// or the node heads its chain. MERGE pops the minimum-key node, folds it
// into its predecessor (Def. 3), and re-keys the two affected neighbours.
//
// GMS, gPTAc/gPTAε (pta/greedy.cc), the index recorder (pta/index.cc) and
// the streaming engine (stream/stream.cc) all drive this one class. Batch
// drivers keep a single chain across groups (group changes key to
// infinity); the streaming engine keeps one chain per group so groups may
// interleave. The Prop. 3 counters that license gPTA's early merges live
// here too, so every driver asks the same question (ClassifyTop).

#ifndef PTA_PTA_MERGE_HEAP_H_
#define PTA_PTA_MERGE_HEAP_H_

#include <cstdint>
#include <vector>

#include "pta/error.h"
#include "pta/segment.h"

namespace pta {

/// \brief Min-heap over chronologically linked segments with re-keying.
///
/// Node storage is recycled through a free list, so memory is proportional
/// to the maximum number of *live* nodes (the c + beta of Sec. 6.2), not the
/// stream length. Ties on the key are broken by the smaller sequence id,
/// which makes merging deterministic (the paper merges the pair with the
/// smallest timestamp). Nodes are addressed by int32 handles, stable while
/// the node lives.
class MergeHeap {
 public:
  /// The `after` handle that starts a new chain.
  static constexpr int32_t kNoNode = -1;

  /// Creates a heap for segments with p aggregate values and the given
  /// per-dimension weights (empty = all ones). With `merge_across_gaps`
  /// (the paper's future-work extension) same-group tuples separated by a
  /// temporal gap are mergeable too: the merged timestamp is the hull and
  /// values/keys weigh each side by its *covered* chronons.
  MergeHeap(size_t p, const std::vector<double>& weights,
            bool merge_across_gaps = false);

  /// \brief Key, id and handle of the minimum node.
  struct TopInfo {
    int64_t id = 0;
    double key = kInfiniteError;
    int32_t node = kNoNode;
  };

  /// \brief One executed merge, as observed by MergeTop(MergeRecord*).
  ///
  /// Everything a dendrogram recorder (pta/index.h) needs: which two chain
  /// nodes were folded (by their stable insertion ids) and the surviving
  /// node's post-merge payload. `values` points into heap-owned storage and
  /// is valid only until the next Insert/MergeTop — copy it out.
  struct MergeRecord {
    /// Id of the node folded away (the heap top).
    int64_t top_id = 0;
    /// Id of the surviving node (the top's chain predecessor).
    int64_t pred_id = 0;
    /// The introduced error (the top's key), also MergeTop's return value.
    double key = 0.0;
    int32_t group = 0;
    /// Post-merge interval (the hull when gap merging is enabled).
    Interval t;
    /// Post-merge covered chronons (== t.length() unless gap-merged).
    int64_t covered = 0;
    /// Post-merge values of the surviving node (p doubles, borrowed).
    const double* values = nullptr;
  };

  /// \brief The Prop. 3 / δ verdict on the top node while input is still
  /// arriving (Fig. 11 lines 8-12).
  enum class EarlyMerge {
    /// Neither condition holds: wait for more input.
    kNone,
    /// The top precedes the last gap and more than the floor's live nodes
    /// precede that gap, so GMS is forced to perform this merge too.
    kPreGap,
    /// The top follows the last gap and the δ read-ahead allows it.
    kPostGap,
  };

  /// Appends `seg` to the chain whose tail is `after` (kNoNode starts a new
  /// chain) and returns the new node's handle. The node takes the next
  /// sequence id (1-based); its key is infinity when it does not follow
  /// `after` adjacently. An infinite key marks a new last gap for the
  /// Prop. 3 counters. `after` must be a chain tail whose group is below
  /// seg.group, or equal with an earlier end (checked).
  int32_t Insert(const Segment& seg, int32_t after);

  /// The insert path behind Insert, called directly by snapshot restore
  /// with a stored id and covered count (== t.length() unless gap-merged).
  /// Leaves the id sequence and the Prop. 3 counters alone;
  /// RestoreCounters sets them afterwards.
  int32_t InsertRestored(int32_t after, int64_t id, int32_t group,
                         const Interval& t, int64_t covered,
                         const double* values);

  /// Sets the id sequence and the Prop. 3 counters saved with a snapshot.
  void RestoreCounters(int64_t next_id, int64_t last_gap_id,
                       int64_t before_gap, int64_t after_gap);

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  /// Largest size() observed since construction (Fig. 20's metric).
  size_t max_size() const { return max_size_; }

  /// Minimum-key node; requires a non-empty heap.
  TopInfo Peek() const;

  /// May the (finite-key) top merge before the input ends? gPTAc passes
  /// its size budget as `pre_gap_floor`, gPTAε passes 0. `delta` is the
  /// read-ahead of Sec. 6.2.1: 0 always allows a post-gap merge,
  /// GreedyOptions::kDeltaInfinity never does. Requires a non-empty heap.
  EarlyMerge ClassifyTop(int64_t pre_gap_floor, size_t delta) const;

  /// Merges the top node into its predecessor and returns the introduced
  /// error (its key). Requires the top key to be finite. When `record` is
  /// non-null it is filled with the executed merge (see MergeRecord). The
  /// Prop. 3 counters are left alone: this is the final drain's merge.
  double MergeTop(MergeRecord* record = nullptr);

  /// MergeTop for a merge made while input is still arriving: the folded
  /// node also leaves the Prop. 3 count of its side of the last gap.
  double EarlyMergeTop();

  /// Removes chain head `h` (its key is infinite) and returns its
  /// successor, which becomes the head with an infinite key (kNoNode when
  /// the chain is gone). The node leaves the Prop. 3 counts like a merged
  /// one.
  int32_t RemoveHead(int32_t h);

  // Node accessors; `h` must be a live handle.
  int64_t id(int32_t h) const { return nodes_[h].id; }
  int32_t group(int32_t h) const { return nodes_[h].group; }
  const Interval& interval(int32_t h) const { return nodes_[h].t; }
  int64_t covered(int32_t h) const { return nodes_[h].covered; }
  double key(int32_t h) const { return nodes_[h].key; }
  const double* values(int32_t h) const { return ValuesOf(h); }
  int32_t prev(int32_t h) const { return nodes_[h].prev; }
  int32_t next(int32_t h) const { return nodes_[h].next; }

  /// The id the next Insert assigns, and the Prop. 3 counters: the id of
  /// the last node inserted with an infinite key, and the live nodes before
  /// it and from it onward.
  int64_t next_id() const { return next_id_; }
  int64_t last_gap_id() const { return last_gap_id_; }
  int64_t before_gap() const { return before_gap_; }
  int64_t after_gap() const { return after_gap_; }

  /// Appends the chain starting at `head` to `out`, in chronological order.
  void AppendChain(int32_t head, SequentialRelation* out) const;
  /// The chain starting at `head` as a SequentialRelation (group keys not
  /// attached).
  SequentialRelation ExtractRelation(int32_t head) const;

 private:
  struct Node {
    double key = kInfiniteError;
    int64_t id = 0;
    int32_t group = 0;
    Interval t;
    /// Chronons actually covered (== t.length() unless gap merging folded
    /// segments across holes).
    int64_t covered = 0;
    int32_t prev = -1;
    int32_t next = -1;
    int32_t heap_pos = -1;
  };

  /// True if b may be merged into its predecessor a.
  bool Mergeable(const Node& a, const Node& b) const {
    if (a.group != b.group) return false;
    return merge_across_gaps_ || a.t.MeetsBefore(b.t);
  }

  bool Less(int32_t a, int32_t b) const {
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.key != nb.key) return na.key < nb.key;
    return na.id < nb.id;
  }

  double* ValuesOf(int32_t h) { return values_.data() + static_cast<size_t>(h) * p_; }
  const double* ValuesOf(int32_t h) const {
    return values_.data() + static_cast<size_t>(h) * p_;
  }

  /// dsim of node b with its predecessor a; infinity if not adjacent.
  double KeyFor(int32_t a, int32_t b) const;

  /// True when `delta` adjacent successors follow the top in its chain.
  bool TopHasDeltaSuccessors(size_t delta) const;
  /// Takes a removed node with id `id` out of the Prop. 3 counts.
  void Uncount(int64_t id);
  int32_t AllocNode();
  void FreeNode(int32_t h);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void HeapRemove(size_t pos);
  void Rekey(int32_t h, double new_key);

  size_t p_;
  std::vector<double> weights_;
  bool merge_across_gaps_;
  std::vector<Node> nodes_;
  std::vector<double> values_;   // nodes_.size() * p_
  std::vector<int32_t> free_;    // recycled node handles
  std::vector<int32_t> heap_;    // node handles ordered as a binary min-heap
  int64_t next_id_ = 1;
  size_t max_size_ = 0;
  // Prop. 3 bookkeeping over insertion order (Fig. 11): BG and AG.
  int64_t last_gap_id_ = 0;
  int64_t before_gap_ = 0;
  int64_t after_gap_ = 0;
};

}  // namespace pta

#endif  // PTA_PTA_MERGE_HEAP_H_
