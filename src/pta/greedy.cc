#include "pta/greedy.h"

#include "pta/merge_heap.h"

namespace pta {

namespace {

void FillStats(const MergeHeap& heap, size_t merges, size_t early_merges,
               GreedyStats* stats) {
  if (stats == nullptr) return;
  stats->max_heap_size = heap.max_size();
  stats->merges = merges;
  stats->early_merges = early_merges;
}

// Accumulates the exact Emax = SSE(s, rho(s, cmin)) while segments stream
// by: per maximal adjacent run, Emax grows by the SSE of merging the whole
// run into one tuple, computable from running (sum L, sum L*v, sum L*v^2).
class RunErrorAccumulator {
 public:
  RunErrorAccumulator(size_t p, const std::vector<double>& weights)
      : p_(p),
        weights_(WeightsOrOnes(p, weights)),
        sum_lv_(p, 0.0),
        sum_lv2_(p, 0.0) {}

  void Add(const Segment& seg) {
    const double len = static_cast<double>(seg.t.length());
    sum_l_ += len;
    for (size_t d = 0; d < p_; ++d) {
      sum_lv_[d] += len * seg.values[d];
      sum_lv2_[d] += len * seg.values[d] * seg.values[d];
    }
  }

  /// SSE of collapsing the accumulated run into one tuple; resets the run.
  double FinishAndReset() {
    if (sum_l_ <= 0.0) return 0.0;
    double acc = 0.0;
    for (size_t d = 0; d < p_; ++d) {
      const double w = weights_[d];
      acc += w * w * (sum_lv2_[d] - sum_lv_[d] * sum_lv_[d] / sum_l_);
      sum_lv_[d] = 0.0;
      sum_lv2_[d] = 0.0;
    }
    sum_l_ = 0.0;
    return acc < 0.0 ? 0.0 : acc;
  }

 private:
  size_t p_;
  std::vector<double> weights_;
  double sum_l_ = 0.0;
  std::vector<double> sum_lv_;
  std::vector<double> sum_lv2_;
};

}  // namespace

Result<Reduction> GmsReduceToSize(const SequentialRelation& ita, size_t c,
                                  const GreedyOptions& options,
                                  GreedyStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  // GMS is gPTAc with every early merge deferred to the final drain.
  GreedyOptions gms = options;
  gms.eager = false;
  RelationSegmentSource source(ita);
  auto out = GreedyReduceToSize(source, c, gms, stats);
  if (!out.ok()) return out;
  out->relation.ShareGroupKeys(ita.shared_group_keys());
  out->relation.SetValueNames(ita.value_names());
  return out;
}

Result<Reduction> GmsReduceToError(const SequentialRelation& ita, double eps,
                                   const GreedyOptions& options,
                                   GreedyStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  const ErrorContext ctx(ita, options.weights, options.merge_across_gaps);
  const double budget = eps * ctx.MaxError();

  MergeHeap heap(ita.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  Segment seg;
  RelationSegmentSource src(ita);
  int32_t head = MergeHeap::kNoNode;
  int32_t tail = MergeHeap::kNoNode;
  while (src.Next(&seg)) {
    tail = heap.Insert(seg, tail);
    if (head == MergeHeap::kNoNode) head = tail;
  }

  double total = 0.0;
  size_t merges = 0;
  while (!heap.empty()) {
    const MergeHeap::TopInfo top = heap.Peek();
    if (top.key == kInfiniteError || total + top.key > budget) break;
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, 0, stats);
  Reduction out{heap.ExtractRelation(head), total};
  out.relation.ShareGroupKeys(ita.shared_group_keys());
  out.relation.SetValueNames(ita.value_names());
  return out;
}

Result<Reduction> GreedyReduceToSize(SegmentSource& source, size_t c,
                                     const GreedyOptions& options,
                                     GreedyStats* stats) {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  MergeHeap heap(source.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  double total = 0.0;
  size_t merges = 0;
  size_t early_merges = 0;

  Segment seg;
  int32_t head = MergeHeap::kNoNode;
  int32_t tail = MergeHeap::kNoNode;
  while (source.Next(&seg)) {
    tail = heap.Insert(seg, tail);
    if (head == MergeHeap::kNoNode) head = tail;
    while (options.eager && heap.size() > c) {
      const MergeHeap::TopInfo top = heap.Peek();
      // An infinite top key means every live pair is non-adjacent; nothing
      // can merge until more tuples arrive (if c < cmin, the final drain
      // reports the error).
      if (top.key == kInfiniteError ||
          heap.ClassifyTop(static_cast<int64_t>(c), options.delta) ==
              MergeHeap::EarlyMerge::kNone) {
        break;
      }
      if (top.node == tail) tail = heap.prev(tail);
      total += heap.EarlyMergeTop();
      ++merges;
      ++early_merges;
    }
  }

  // Input exhausted: finish the reduction with plain GMS.
  while (heap.size() > c) {
    if (heap.Peek().key == kInfiniteError) {
      return Status::InvalidArgument(
          "size bound " + std::to_string(c) + " is below cmin = " +
          std::to_string(heap.size()));
    }
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, early_merges, stats);
  return Reduction{heap.ExtractRelation(head), total};
}

Result<Reduction> GreedyReduceToError(SegmentSource& source, double eps,
                                      const GreedyErrorEstimates& estimates,
                                      const GreedyOptions& options,
                                      GreedyStats* stats) {
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  if (estimates.estimated_n == 0 || estimates.estimated_max_error < 0.0) {
    return Status::InvalidArgument(
        "gPTAeps requires positive estimated_n and non-negative "
        "estimated_max_error");
  }
  // Prop. 4's per-step allowance: merges cheaper than eps * Emax / n are
  // safe to take as soon as a later non-adjacent pair (or delta successors)
  // confirms their key can no longer change.
  const double step_budget =
      eps * estimates.estimated_max_error /
      static_cast<double>(estimates.estimated_n);

  MergeHeap heap(source.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  RunErrorAccumulator run(source.num_aggregates(), options.weights);
  double total = 0.0;
  double emax = 0.0;  // exact Emax, finalized once the stream ends
  size_t merges = 0;
  size_t early_merges = 0;

  Segment seg;
  int32_t head = MergeHeap::kNoNode;
  int32_t tail = MergeHeap::kNoNode;
  while (source.Next(&seg)) {
    tail = heap.Insert(seg, tail);
    if (head == MergeHeap::kNoNode) head = tail;
    if (heap.key(tail) == kInfiniteError) emax += run.FinishAndReset();
    run.Add(seg);

    while (options.eager && !heap.empty()) {
      const MergeHeap::TopInfo top = heap.Peek();
      // The step budget also stops on infinite keys.
      if (top.key > step_budget ||
          heap.ClassifyTop(0, options.delta) == MergeHeap::EarlyMerge::kNone) {
        break;
      }
      if (top.node == tail) tail = heap.prev(tail);
      total += heap.EarlyMergeTop();
      ++merges;
      ++early_merges;
    }
  }
  emax += run.FinishAndReset();

  // Input exhausted: the exact Emax is now known; continue with GMS while
  // the global budget allows (Fig. 13 lines 22-28).
  const double budget = eps * emax;
  while (!heap.empty()) {
    const MergeHeap::TopInfo top = heap.Peek();
    if (top.key == kInfiniteError || total + top.key > budget) break;
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, early_merges, stats);
  return Reduction{heap.ExtractRelation(head), total};
}

}  // namespace pta
