#include "pta/merge_heap.h"

#include <cmath>

#include <gtest/gtest.h>

#include "pta/greedy.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;

Segment MakeSeg(int32_t g, Chronon b, Chronon e, double v) {
  return Segment{g, Interval(b, e), {v}};
}

// Loads the running example's ITA result (Fig. 9/10) as one batch chain
// whose head handle is 0.
MergeHeap LoadProjHeap() {
  MergeHeap heap(1, {});
  const SequentialRelation ita = MakeProjIta();
  RelationSegmentSource src(ita);
  Segment seg;
  int32_t tail = MergeHeap::kNoNode;
  while (src.Next(&seg)) tail = heap.Insert(seg, tail);
  return heap;
}

TEST(MergeHeapTest, KeysAreDsimWithPredecessor) {
  MergeHeap heap(1, {});
  // First tuple: no predecessor -> infinite key.
  int32_t h = heap.Insert(MakeSeg(0, 1, 2, 800.0), MergeHeap::kNoNode);
  EXPECT_TRUE(std::isinf(heap.key(h)));
  EXPECT_EQ(heap.id(h), 1);
  // s2 follows adjacently: dsim = 26 666.67 (Example 5).
  h = heap.Insert(MakeSeg(0, 3, 3, 600.0), h);
  EXPECT_NEAR(heap.key(h), 26666.67, 0.01);
  EXPECT_EQ(heap.id(h), 2);
  // Gap -> infinite key.
  h = heap.Insert(MakeSeg(0, 5, 5, 500.0), h);
  EXPECT_TRUE(std::isinf(heap.key(h)));
  // Different group -> infinite key.
  h = heap.Insert(MakeSeg(1, 6, 6, 500.0), h);
  EXPECT_TRUE(std::isinf(heap.key(h)));
  // A new chain starts with an infinite key even when it would meet the
  // previous insert, and ids keep counting across chains.
  h = heap.Insert(MakeSeg(1, 7, 7, 500.0), MergeHeap::kNoNode);
  EXPECT_TRUE(std::isinf(heap.key(h)));
  EXPECT_EQ(heap.id(h), 5);
}

TEST(MergeHeapTest, PeekReturnsMostSimilarPair) {
  MergeHeap heap = LoadProjHeap();
  // Fig. 10(a): the most similar pair is s4, s5 with error 1 666.67; the
  // top node is s5 (id 5).
  const MergeHeap::TopInfo top = heap.Peek();
  EXPECT_EQ(top.id, 5);
  EXPECT_NEAR(top.key, 1666.67, 0.01);
  EXPECT_EQ(heap.id(top.node), 5);
  EXPECT_EQ(heap.key(top.node), top.key);
}

TEST(MergeHeapTest, MergeTopFoldsIntoPredecessorAndRekeys) {
  MergeHeap heap = LoadProjHeap();
  const double introduced = heap.MergeTop();  // merge s4, s5
  EXPECT_NEAR(introduced, 1666.67, 0.01);
  EXPECT_EQ(heap.size(), 6u);
  // Fig. 10(b): the new top is s3 with key 5 000 (merge s2, s3 next).
  const MergeHeap::TopInfo top = heap.Peek();
  EXPECT_EQ(top.id, 3);
  EXPECT_NEAR(top.key, 5000.0, 0.01);
  // The merged node s4 ⊕ s5 = (A, 333.33, [5,7]).
  const SequentialRelation segs = heap.ExtractRelation(0);
  ASSERT_EQ(segs.size(), 6u);
  EXPECT_EQ(segs.interval(3), Interval(5, 7));
  EXPECT_NEAR(segs.value(3, 0), 1000.0 / 3.0, 1e-9);
}

TEST(MergeHeapTest, MergeRecordReportsTheExecutedMerge) {
  MergeHeap heap = LoadProjHeap();
  MergeHeap::MergeRecord rec;
  const double introduced = heap.MergeTop(&rec);  // s5 folds into s4
  EXPECT_EQ(rec.top_id, 5);
  EXPECT_EQ(rec.pred_id, 4);
  EXPECT_EQ(rec.key, introduced);
  EXPECT_EQ(rec.group, 0);
  EXPECT_EQ(rec.t, Interval(5, 7));
  EXPECT_EQ(rec.covered, 3);
  ASSERT_NE(rec.values, nullptr);
  EXPECT_NEAR(rec.values[0], 1000.0 / 3.0, 1e-9);
}

TEST(MergeHeapTest, MergeRecordCarriesCoveredChrononsUnderWeightedGapMerge) {
  // The PR 5 audit: the record (like the key) must report *covered*
  // chronons, not the hull, when a non-uniformly-weighted heap merges
  // across a gap — the dendrogram recorder depends on it.
  MergeHeap heap(2, {4.0, 0.5}, /*merge_across_gaps=*/true);
  const int32_t head = heap.Insert(Segment{0, Interval(0, 2), {10.0, 4.0}},
                                   MergeHeap::kNoNode);      // 3 chronons
  heap.Insert(Segment{0, Interval(10, 10), {16.0, 8.0}}, head);  // 1
  const double expected_key =
      (3.0 * 1.0 / 4.0) * (16.0 * 36.0 + 0.25 * 16.0);
  EXPECT_DOUBLE_EQ(heap.Peek().key, expected_key);
  MergeHeap::MergeRecord rec;
  heap.MergeTop(&rec);
  EXPECT_EQ(rec.t, Interval(0, 10));  // hull timestamp...
  EXPECT_EQ(rec.covered, 4);          // ...but covered chronons weigh
  EXPECT_DOUBLE_EQ(rec.values[0], (3.0 * 10.0 + 1.0 * 16.0) / 4.0);
  EXPECT_DOUBLE_EQ(rec.values[1], (3.0 * 4.0 + 1.0 * 8.0) / 4.0);
}

TEST(MergeHeapTest, FullDrainFollowsFig9Dendrogram) {
  MergeHeap heap = LoadProjHeap();
  // Greedy merge order: (s4,s5) 1666.67, (s2,s3) 5000, then the two merged
  // nodes at dsim((550,[3,4]), (333.33,[5,7])) = 56 333.33.
  EXPECT_NEAR(heap.MergeTop(), 1666.67, 0.01);
  EXPECT_NEAR(heap.MergeTop(), 5000.0, 0.01);
  EXPECT_NEAR(heap.MergeTop(), 56333.33, 0.01);
  // Result of reducing to c = 4 (Example 17): total error 63 000.
  EXPECT_EQ(heap.size(), 4u);
  const SequentialRelation segs = heap.ExtractRelation(0);
  EXPECT_EQ(segs.interval(0), Interval(1, 2));
  EXPECT_NEAR(segs.value(0, 0), 800.0, 1e-9);  // z1
  EXPECT_EQ(segs.interval(1), Interval(3, 7));
  EXPECT_NEAR(segs.value(1, 0), 420.0, 1e-9);  // z2 = (A, 420)
}

TEST(MergeHeapTest, ExtractRelationPreservesChronologicalOrder) {
  MergeHeap heap = LoadProjHeap();
  heap.MergeTop();
  const SequentialRelation rel = heap.ExtractRelation(0);
  EXPECT_TRUE(rel.Validate().ok());
  EXPECT_EQ(rel.size(), 6u);
}

TEST(MergeHeapTest, ClassifyTopAppliesProp3AndTheDeltaReadAhead) {
  // The Fig. 9 chain: s6 starts group B and s7 follows a gap, so the last
  // gap is s7 (id 7) with six live tuples before it (BG) and one from it
  // onward (AG).
  MergeHeap heap = LoadProjHeap();
  EXPECT_EQ(heap.last_gap_id(), 7);
  EXPECT_EQ(heap.before_gap(), 6);
  EXPECT_EQ(heap.after_gap(), 1);
  // Top is s5, before the last gap: forced while more than the floor's
  // live tuples precede the gap.
  EXPECT_EQ(heap.ClassifyTop(5, 1), MergeHeap::EarlyMerge::kPreGap);
  EXPECT_EQ(heap.ClassifyTop(6, 1), MergeHeap::EarlyMerge::kNone);
  EXPECT_NEAR(heap.EarlyMergeTop(), 1666.67, 0.01);
  EXPECT_EQ(heap.before_gap(), 5);  // the folded node left the count
  EXPECT_EQ(heap.after_gap(), 1);

  // A post-gap top needs `delta` adjacent successors: here s2 (top of a
  // fresh three-tuple run) has s3 after it, but nothing further.
  MergeHeap run(1, {});
  int32_t tail = run.Insert(MakeSeg(0, 0, 0, 0.0), MergeHeap::kNoNode);
  tail = run.Insert(MakeSeg(0, 1, 1, 1.0), tail);   // id 2, key 0.5
  tail = run.Insert(MakeSeg(0, 2, 2, 10.0), tail);  // id 3, key 40.5
  EXPECT_EQ(run.Peek().id, 2);
  EXPECT_EQ(run.ClassifyTop(0, 0), MergeHeap::EarlyMerge::kPostGap);
  EXPECT_EQ(run.ClassifyTop(0, 1), MergeHeap::EarlyMerge::kPostGap);
  EXPECT_EQ(run.ClassifyTop(0, 2), MergeHeap::EarlyMerge::kNone);
  EXPECT_EQ(run.ClassifyTop(0, GreedyOptions::kDeltaInfinity),
            MergeHeap::EarlyMerge::kNone);
  // A merge without the early bookkeeping (the final drain's) leaves the
  // counters alone; an early one charges the post-gap side.
  EXPECT_EQ(run.after_gap(), 3);
  run.MergeTop();
  EXPECT_EQ(run.after_gap(), 3);
  run.EarlyMergeTop();
  EXPECT_EQ(run.after_gap(), 2);
  EXPECT_EQ(run.size(), 1u);
}

TEST(MergeHeapTest, InterleavedChainsMergeIndependently) {
  // Two groups arriving time-major, one chain each: every key is taken
  // against the node's own chain predecessor, never the previous insert.
  MergeHeap heap(1, {});
  int32_t a = MergeHeap::kNoNode;
  int32_t b = MergeHeap::kNoNode;
  const int32_t a_head = a = heap.Insert(MakeSeg(0, 0, 0, 10.0), a);  // id 1
  const int32_t b_head = b = heap.Insert(MakeSeg(1, 0, 0, 90.0), b);  // id 2
  a = heap.Insert(MakeSeg(0, 1, 1, 14.0), a);  // id 3: key 0.5 * 16 = 8
  b = heap.Insert(MakeSeg(1, 1, 1, 92.0), b);  // id 4: key 0.5 * 4 = 2
  EXPECT_EQ(heap.key(a), 8.0);
  EXPECT_EQ(heap.key(b), 2.0);
  EXPECT_EQ(heap.Peek().id, 4);
  EXPECT_EQ(heap.MergeTop(), 2.0);  // folds b's tail into b's head
  EXPECT_EQ(heap.next(b_head), MergeHeap::kNoNode);
  b = heap.Insert(MakeSeg(1, 2, 2, 91.0), b_head);  // id 5 follows b's head
  EXPECT_EQ(heap.prev(b), b_head);
  EXPECT_EQ(heap.Peek().id, 5);  // dsim(2 x 91, 1 x 91) = 0

  SequentialRelation out(1);
  heap.AppendChain(a_head, &out);
  heap.AppendChain(b_head, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.interval(0), Interval(0, 0));
  EXPECT_EQ(out.interval(1), Interval(1, 1));
  EXPECT_EQ(out.group(2), 1);
  EXPECT_EQ(out.interval(2), Interval(0, 1));
  EXPECT_EQ(out.value(2, 0), 91.0);
  EXPECT_EQ(out.interval(3), Interval(2, 2));
}

TEST(MergeHeapTest, RemovingAHeadRekeysItsSuccessorToInfinity) {
  MergeHeap heap(1, {});
  int32_t tail = MergeHeap::kNoNode;
  const int32_t head = tail = heap.Insert(MakeSeg(0, 0, 0, 1.0), tail);
  const int32_t second = tail = heap.Insert(MakeSeg(0, 1, 1, 2.0), tail);
  tail = heap.Insert(MakeSeg(0, 2, 2, 9.0), tail);
  EXPECT_EQ(heap.Peek().node, second);  // the cheapest pair is (1, 2)
  EXPECT_EQ(heap.after_gap(), 3);
  EXPECT_EQ(heap.RemoveHead(head), second);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.prev(second), MergeHeap::kNoNode);
  EXPECT_TRUE(std::isinf(heap.key(second)));
  EXPECT_EQ(heap.after_gap(), 2);  // the removed head left the count
  // The only finite pair left is (2, 9), keyed at the tail.
  EXPECT_EQ(heap.Peek().node, tail);
  EXPECT_EQ(heap.MergeTop(), 0.5 * 49.0);
  EXPECT_EQ(heap.RemoveHead(second), MergeHeap::kNoNode);
  EXPECT_TRUE(heap.empty());
}

TEST(MergeHeapTest, InsertRestoredRecomputesTheSavedKey) {
  // Restore takes a stored id and covered count through the same insert
  // path; the key comes out bitwise equal to the original heap's.
  MergeHeap original(1, {}, /*merge_across_gaps=*/true);
  const int32_t head =
      original.Insert(MakeSeg(0, 0, 1, 3.0), MergeHeap::kNoNode);
  const int32_t tail = original.Insert(MakeSeg(0, 3, 3, 7.0), head);
  original.Insert(MakeSeg(0, 6, 8, 4.0), tail);
  original.MergeTop();  // [3,3] + [6,8] -> hull [3,8], 4 covered

  MergeHeap restored(1, {}, /*merge_across_gaps=*/true);
  int32_t prev = MergeHeap::kNoNode;
  for (int32_t h = head; h >= 0; h = original.next(h)) {
    prev = restored.InsertRestored(prev, original.id(h), original.group(h),
                                   original.interval(h), original.covered(h),
                                   original.values(h));
    EXPECT_EQ(restored.key(prev), original.key(h));
    EXPECT_EQ(restored.id(prev), original.id(h));
  }
  EXPECT_EQ(restored.interval(restored.Peek().node), Interval(3, 8));
  EXPECT_EQ(restored.covered(restored.Peek().node), 4);
  // Restore leaves the id sequence and the Prop. 3 counters to
  // RestoreCounters.
  EXPECT_EQ(restored.next_id(), 1);
  restored.RestoreCounters(original.next_id(), original.last_gap_id(),
                           original.before_gap(), original.after_gap());
  EXPECT_EQ(restored.next_id(), 4);
  EXPECT_EQ(restored.after_gap(), original.after_gap());
}

TEST(MergeHeapTest, MaxSizeTracksHighWatermark) {
  MergeHeap heap = LoadProjHeap();
  EXPECT_EQ(heap.max_size(), 7u);
  heap.MergeTop();
  EXPECT_EQ(heap.max_size(), 7u);
  EXPECT_EQ(heap.size(), 6u);
}

TEST(MergeHeapTest, NodeStorageIsRecycled) {
  // Stream many tuples through a tiny heap; memory (node slots) must stay
  // bounded by the live count, exercised here via repeated merge cycles.
  MergeHeap heap(1, {});
  int32_t tail = MergeHeap::kNoNode;
  for (int i = 0; i < 1000; ++i) {
    tail = heap.Insert(MakeSeg(0, i, i, static_cast<double>(i % 7)), tail);
    while (heap.size() > 3) {
      if (heap.Peek().node == tail) tail = heap.prev(tail);
      heap.MergeTop();
    }
  }
  EXPECT_LE(heap.max_size(), 4u);
  EXPECT_EQ(heap.size(), 3u);
}

TEST(MergeHeapTest, TieBreaksOnSmallerId) {
  MergeHeap heap(1, {});
  // Two equally similar pairs: (10, 20) and (30, 40) with equal lengths.
  int32_t tail = heap.Insert(MakeSeg(0, 0, 0, 10.0), MergeHeap::kNoNode);
  tail = heap.Insert(MakeSeg(0, 1, 1, 20.0), tail);
  tail = heap.Insert(MakeSeg(0, 2, 2, 30.0), tail);
  heap.Insert(MakeSeg(0, 3, 3, 40.0), tail);
  // keys: id2: 50, id3: 50, id4: 50 — all equal; smallest id wins.
  EXPECT_EQ(heap.Peek().id, 2);
}

TEST(MergeHeapTest, RejectsUnsortedInsert) {
  MergeHeap heap(1, {});
  const int32_t head = heap.Insert(MakeSeg(0, 5, 6, 1.0), MergeHeap::kNoNode);
  EXPECT_DEATH(heap.Insert(MakeSeg(0, 2, 3, 1.0), head), "sorted");
}

}  // namespace
}  // namespace pta
