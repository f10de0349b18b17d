// The streaming engine (stream/stream.h): byte-identical equivalence with
// batch gPTAc when the watermark is off, watermark sealing semantics,
// bounded deviation when it is on, bounded live memory, and the
// Ingest/Snapshot/Finalize state machine.

#include "stream/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "pta/greedy.h"
#include "stream/sharded_stream.h"
#include "test_util.h"
#include "util/binio.h"
#include "util/random.h"

namespace pta {
namespace {

using testing::RandomSequential;

void ExpectExactlyEqual(const SequentialRelation& a,
                        const SequentialRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.group(i), b.group(i)) << "segment " << i;
    EXPECT_EQ(a.interval(i), b.interval(i)) << "segment " << i;
    for (size_t d = 0; d < a.num_aggregates(); ++d) {
      EXPECT_EQ(a.value(i, d), b.value(i, d))
          << "segment " << i << " dim " << d;
    }
  }
}

// Rows [from, to) of rel as a standalone relation.
SequentialRelation Slice(const SequentialRelation& rel, size_t from,
                         size_t to) {
  SequentialRelation out(rel.num_aggregates());
  for (size_t i = from; i < to && i < rel.size(); ++i) {
    out.Append(rel.group(i), rel.interval(i), rel.values(i));
  }
  return out;
}

// Streams `rel` through a fresh engine in chunks of `chunk_rows` and
// finalizes. The watermark stays untouched: the byte-identical mode.
Result<SequentialRelation> StreamInChunks(const SequentialRelation& rel,
                                          size_t chunk_rows,
                                          StreamingOptions options,
                                          StreamingStats* stats = nullptr) {
  StreamingPtaEngine engine(rel.num_aggregates(), std::move(options));
  for (size_t from = 0; from < rel.size(); from += chunk_rows) {
    const Status status =
        engine.IngestChunk(Slice(rel, from, from + chunk_rows));
    if (!status.ok()) return status;
  }
  auto out = engine.Finalize();
  if (stats != nullptr) *stats = engine.stats();
  return out;
}

// A time-major multi-group feed: at every tick each group (minus a
// deterministic subset, producing gaps) appends one unit segment whose
// values random-walk. Arrival order interleaves groups, which a
// group-major SequentialRelation cannot represent — exactly the shape the
// streaming engine exists for. Returns arrival order + the group-major
// equivalent for the batch oracles.
struct LiveFeed {
  std::vector<Segment> arrival;      // time-major
  SequentialRelation group_major;    // sorted by group, the batch input
};

LiveFeed MakeLiveFeed(size_t ticks, size_t num_groups, size_t p,
                      uint64_t seed) {
  Random rng(seed);
  LiveFeed feed;
  feed.group_major = SequentialRelation(p);
  std::vector<std::vector<double>> level(num_groups,
                                         std::vector<double>(p, 50.0));
  std::vector<std::vector<Segment>> per_group(num_groups);
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t g = 0; g < num_groups; ++g) {
      if ((t + g) % 97 == 13) continue;  // deterministic gaps
      Segment seg;
      seg.group = static_cast<int32_t>(g);
      seg.t = Interval(static_cast<Chronon>(t), static_cast<Chronon>(t));
      for (size_t d = 0; d < p; ++d) {
        level[g][d] += rng.Uniform(-1.0, 1.0);
        seg.values.push_back(level[g][d]);
      }
      feed.arrival.push_back(seg);
      per_group[g].push_back(std::move(seg));
    }
  }
  for (size_t g = 0; g < num_groups; ++g) {
    for (const Segment& seg : per_group[g]) feed.group_major.Append(seg);
  }
  return feed;
}

// ------------------------------------------------- batch equivalence (off)

TEST(StreamEquivalenceTest, ByteIdenticalToBatchAcrossChunkings) {
  const SequentialRelation rel = RandomSequential(400, 3, 5, 0.08, 21);
  const size_t cmin = rel.CMin();
  for (size_t c : {cmin, cmin + 40, rel.size() / 2}) {
    GreedyStats batch_stats;
    RelationSegmentSource src(rel);
    auto batch = GreedyReduceToSize(src, c, {}, &batch_stats);
    ASSERT_TRUE(batch.ok());
    for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, rel.size()}) {
      StreamingOptions options;
      options.size_budget = c;
      StreamingStats stats;
      auto streamed = StreamInChunks(rel, chunk_rows, options, &stats);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectExactlyEqual(*streamed, batch->relation);
      EXPECT_EQ(stats.merges, batch_stats.merges) << "chunk " << chunk_rows;
      EXPECT_EQ(stats.early_merges, batch_stats.early_merges);
      EXPECT_EQ(stats.max_live_rows, batch_stats.max_heap_size);
      EXPECT_EQ(stats.emitted, 0u);
    }
  }
}

TEST(StreamEquivalenceTest, ByteIdenticalErrorAcrossChunkings) {
  const SequentialRelation rel = RandomSequential(300, 2, 4, 0.1, 5);
  const size_t c = rel.CMin() + 25;
  RelationSegmentSource src(rel);
  auto batch = GreedyReduceToSize(src, c);
  ASSERT_TRUE(batch.ok());
  StreamingOptions options;
  options.size_budget = c;
  StreamingPtaEngine engine(rel.num_aggregates(), options);
  ASSERT_TRUE(engine.IngestChunk(rel).ok());
  auto streamed = engine.Finalize();
  ASSERT_TRUE(streamed.ok());
  // Same merge schedule, same floating-point operation order: the SSE is
  // bitwise equal, not just close.
  EXPECT_EQ(engine.total_error(), batch->error);
}

TEST(StreamEquivalenceTest, ByteIdenticalUnderDeltaWeightsAndGapMerging) {
  const SequentialRelation rel = RandomSequential(250, 2, 3, 0.12, 77);
  struct Case {
    size_t delta;
    bool gaps;
    std::vector<double> weights;
  };
  const Case cases[] = {
      {0, false, {}},
      {3, false, {2.0, 0.5}},
      {GreedyOptions::kDeltaInfinity, false, {}},
      {1, true, {1.0, 3.0}},
  };
  for (const Case& c : cases) {
    const size_t budget = rel.CMin() + 20;
    GreedyOptions greedy;
    greedy.delta = c.delta;
    greedy.merge_across_gaps = c.gaps;
    greedy.weights = c.weights;
    RelationSegmentSource src(rel);
    auto batch = GreedyReduceToSize(src, budget, greedy);
    ASSERT_TRUE(batch.ok());

    StreamingOptions options;
    options.size_budget = budget;
    options.delta = c.delta;
    options.merge_across_gaps = c.gaps;
    options.weights = c.weights;
    auto streamed = StreamInChunks(rel, 13, options);
    ASSERT_TRUE(streamed.ok());
    ExpectExactlyEqual(*streamed, batch->relation);
  }
}

TEST(StreamEquivalenceTest, SnapshotsDoNotDisturbTheSchedule) {
  const SequentialRelation rel = RandomSequential(200, 2, 3, 0.05, 9);
  const size_t c = rel.CMin() + 15;
  RelationSegmentSource src(rel);
  auto batch = GreedyReduceToSize(src, c);
  ASSERT_TRUE(batch.ok());

  StreamingOptions options;
  options.size_budget = c;
  StreamingPtaEngine engine(rel.num_aggregates(), options);
  for (size_t from = 0; from < rel.size(); from += 17) {
    ASSERT_TRUE(engine.IngestChunk(Slice(rel, from, from + 17)).ok());
    const SequentialRelation snap = engine.Snapshot();
    EXPECT_TRUE(snap.Validate().ok());
    EXPECT_EQ(snap.size(), engine.live_rows());
  }
  auto streamed = engine.Finalize();
  ASSERT_TRUE(streamed.ok());
  ExpectExactlyEqual(*streamed, batch->relation);
}

// ------------------------------------------------------ interleaved groups

TEST(StreamInterleaveTest, TimeMajorArrivalProducesValidConsistentSummary) {
  const LiveFeed feed = MakeLiveFeed(300, 4, 2, 42);
  StreamingOptions options;
  options.size_budget = 64;
  StreamingPtaEngine engine(2, options);
  for (const Segment& seg : feed.arrival) {
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  auto out = engine.Finalize();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Validate().ok());
  EXPECT_LE(out->size(), 64u);
  // The reported cumulative merge SSE is the true Def. 5 distance.
  auto sse = StepFunctionSse(feed.group_major, *out);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, engine.total_error(),
              1e-6 * (1.0 + engine.total_error()));
}

// ------------------------------------------------------------- watermarks

TEST(StreamWatermarkTest, SealsExactlyTheSettledPrefix) {
  StreamingOptions options;
  options.size_budget = 100;
  StreamingPtaEngine engine(1, options);
  for (Chronon t = 0; t < 10; ++t) {
    Segment seg;
    seg.group = 0;
    seg.t = Interval(t, t);
    seg.values = {static_cast<double>(100 * t)};  // distinct: no merging
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  ASSERT_TRUE(engine.AdvanceWatermark(5).ok());
  // Settled: end + 1 < 5, i.e. rows [0,0] ... [3,3]. Row [4,4] could still
  // meet an arrival beginning at 5, so it stays live.
  EXPECT_EQ(engine.pending_rows(), 4u);
  EXPECT_EQ(engine.live_rows(), 6u);
  const SequentialRelation emitted = engine.TakeEmitted();
  ASSERT_EQ(emitted.size(), 4u);
  EXPECT_EQ(emitted.interval(3), Interval(3, 3));
  EXPECT_EQ(engine.pending_rows(), 0u);
  // Sealed rows are final: a later watermark does not re-emit them.
  ASSERT_TRUE(engine.AdvanceWatermark(5).ok());
  EXPECT_EQ(engine.pending_rows(), 0u);
}

TEST(StreamWatermarkTest, EnforcesTheArrivalPromiseAndMonotonicity) {
  StreamingOptions options;
  options.size_budget = 8;
  StreamingPtaEngine engine(1, options);
  Segment seg;
  seg.group = 0;
  seg.t = Interval(10, 12);
  seg.values = {1.0};
  ASSERT_TRUE(engine.Ingest(seg).ok());
  ASSERT_TRUE(engine.AdvanceWatermark(20).ok());
  // Going backwards is an error.
  EXPECT_FALSE(engine.AdvanceWatermark(19).ok());
  // A segment beginning before the watermark violates the promise.
  seg.t = Interval(19, 25);
  seg.group = 1;
  EXPECT_FALSE(engine.Ingest(seg).ok());
  // At the watermark is fine.
  seg.t = Interval(20, 25);
  EXPECT_TRUE(engine.Ingest(seg).ok());
}

TEST(StreamWatermarkTest, ReAnnouncingTheCurrentWatermarkIsIdempotent) {
  // Upstream frame retries routinely re-announce the watermark they just
  // sent; only a *strictly lower* advance is an InvalidArgument. An equal
  // advance must change nothing: no new seals, no emission churn, and the
  // engine keeps accepting segments at the watermark.
  StreamingOptions options;
  options.size_budget = 16;
  StreamingPtaEngine engine(1, options);
  Segment seg;
  seg.group = 0;
  seg.values = {1.0};
  for (Chronon t = 0; t < 6; ++t) {
    seg.t = Interval(t, t);
    seg.values = {static_cast<double>(100 * t)};  // distinct: no merging
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  ASSERT_TRUE(engine.AdvanceWatermark(4).ok());
  const size_t pending = engine.pending_rows();
  const size_t live = engine.live_rows();
  const size_t emitted = engine.stats().emitted;
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Status again = engine.AdvanceWatermark(4);
    EXPECT_TRUE(again.ok()) << again.ToString();
    EXPECT_EQ(engine.watermark(), 4);
    EXPECT_EQ(engine.pending_rows(), pending);
    EXPECT_EQ(engine.live_rows(), live);
    EXPECT_EQ(engine.stats().emitted, emitted);
  }
  EXPECT_EQ(engine.AdvanceWatermark(3).code(),
            StatusCode::kInvalidArgument);
  // The sharded composition and the StreamingQuery handle inherit the
  // no-op semantics.
  ShardedStreamingEngine sharded(1, options, ParallelOptions{2, 2, {}, 1.0, 42});
  ASSERT_TRUE(sharded.AdvanceWatermark(10).ok());
  EXPECT_TRUE(sharded.AdvanceWatermark(10).ok());
  EXPECT_FALSE(sharded.AdvanceWatermark(9).ok());
}

TEST(StreamWatermarkTest, GapMergingKeepsGroupTailsLive) {
  StreamingOptions options;
  options.size_budget = 100;
  options.merge_across_gaps = true;
  StreamingPtaEngine engine(1, options);
  Segment seg;
  seg.group = 0;
  seg.values = {1.0};
  seg.t = Interval(0, 1);
  ASSERT_TRUE(engine.Ingest(seg).ok());
  seg.t = Interval(5, 6);
  ASSERT_TRUE(engine.Ingest(seg).ok());
  // Both rows end long before the watermark, but with gap merging a future
  // arrival can fold into the tail, so only the first row seals.
  ASSERT_TRUE(engine.AdvanceWatermark(50).ok());
  EXPECT_EQ(engine.pending_rows(), 1u);
  EXPECT_EQ(engine.live_rows(), 1u);
}

TEST(StreamWatermarkTest, BoundedDeviationFromBatchAtEqualOutputSize) {
  const LiveFeed feed = MakeLiveFeed(1500, 3, 2, 7);
  StreamingOptions options;
  options.size_budget = 48;
  StreamingPtaEngine engine(2, options);

  // Ingest time-major, advancing the watermark with a lag of 64 ticks and
  // draining emissions as a dashboard would.
  std::map<int32_t, std::vector<Segment>> by_group;
  auto collect = [&by_group](const SequentialRelation& rel) {
    for (size_t i = 0; i < rel.size(); ++i) {
      Segment seg;
      seg.group = rel.group(i);
      seg.t = rel.interval(i);
      seg.values.assign(rel.values(i), rel.values(i) + rel.num_aggregates());
      by_group[seg.group].push_back(std::move(seg));
    }
  };
  size_t ingested = 0;
  for (const Segment& seg : feed.arrival) {
    ASSERT_TRUE(engine.Ingest(seg).ok());
    if (++ingested % 256 == 0) {
      ASSERT_TRUE(engine.AdvanceWatermark(seg.t.begin - 64).ok());
      collect(engine.TakeEmitted());
      // The memory bound of docs/STREAMING.md §4: resident rows never
      // exceed the budget plus what the watermark lag keeps unsealed
      // (3 groups x 64 ticks here) plus the read-ahead overshoot —
      // independent of the total stream length.
      EXPECT_LE(engine.live_rows(), options.size_budget + 3 * 64 + 16);
    }
  }
  auto final_rows = engine.Finalize();
  ASSERT_TRUE(final_rows.ok());
  collect(*final_rows);

  SequentialRelation combined(2);
  for (const auto& [group, segs] : by_group) {
    (void)group;
    for (const Segment& seg : segs) combined.Append(seg);
  }
  ASSERT_TRUE(combined.Validate().ok());

  // Self-consistency: reported SSE == Def. 5 distance to the input.
  auto sse = StepFunctionSse(feed.group_major, combined);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, engine.total_error(),
              1e-6 * (1.0 + engine.total_error()));

  // Bounded deviation: against batch GMS reduced to the same output size,
  // the streamed error stays within a small constant factor. (Streaming
  // merges with less information; GMS picks the global minimum each time.)
  auto batch = GmsReduceToSize(feed.group_major, combined.size());
  ASSERT_TRUE(batch.ok());
  EXPECT_LE(engine.total_error(), 3.0 * batch->error + 1e-9);
  // And it never merges more than the budget demands: the combined output
  // is at least as fine as the batch run at the same budget.
  EXPECT_GE(combined.size(), options.size_budget);
}

TEST(StreamWatermarkTest, AutoWatermarkEmitsWithoutManualCalls) {
  const LiveFeed feed = MakeLiveFeed(600, 2, 1, 11);
  StreamingOptions options;
  options.size_budget = 32;
  options.auto_watermark_lag = 50;
  StreamingPtaEngine engine(1, options);
  // Feed time-major chunks of 100 segments.
  size_t taken = 0;
  SequentialRelation chunk(1);
  for (size_t i = 0; i < feed.arrival.size(); ++i) {
    chunk.Append(feed.arrival[i]);
    if (chunk.size() == 100 || i + 1 == feed.arrival.size()) {
      // Time-major chunks interleave groups, so feed them row-wise is not
      // needed: IngestChunk accepts any per-group-chronological order.
      ASSERT_TRUE(engine.IngestChunk(chunk).ok());
      chunk = SequentialRelation(1);
      taken += engine.TakeEmitted().size();
    }
  }
  EXPECT_GT(taken, 0u);
  EXPECT_GT(engine.watermark(), StreamingPtaEngine::kNoWatermark);
  auto out = engine.Finalize();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Validate().ok());
}

// 64-bit FNV-1a, folded over whatever the watermark battery observes.
struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(v));
  }
  void Relation(const SequentialRelation& rel) {
    Pod(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) {
      Pod(rel.group(i));
      Pod(rel.interval(i).begin);
      Pod(rel.interval(i).end);
      Bytes(rel.values(i), rel.num_aggregates() * sizeof(double));
    }
  }
  void Stats(const StreamingStats& s) {
    Pod(s.ingested);
    Pod(s.merges);
    Pod(s.early_merges);
    Pod(s.emitted);
    Pod(s.max_live_rows);
    Pod(s.merge_sse);
  }
};

// A time-major feed for the watermark battery: groups interleave at every
// tick, skip ticks (short holes every few ticks, long ones now and then)
// and carry values on a 0.5 grid so equal Δ-costs are common and the id
// tie-break is exercised.
std::vector<Segment> MakeWatermarkFeed(size_t ticks, size_t num_groups,
                                       uint64_t seed) {
  Random rng(seed);
  std::vector<double> level(num_groups, 10.0);
  std::vector<Segment> arrival;
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t g = 0; g < num_groups; ++g) {
      if ((t + 3 * g) % 11 == 5 || (t / 40 + g) % 5 == 0) continue;
      level[g] += rng.Uniform(-1.5, 1.5);
      Segment seg;
      seg.group = static_cast<int32_t>(g);
      seg.t = Interval(static_cast<Chronon>(t), static_cast<Chronon>(t));
      seg.values = {std::round(2.0 * level[g]) / 2.0, static_cast<double>(g)};
      arrival.push_back(std::move(seg));
    }
  }
  return arrival;
}

// Feeds `arrival[from, to)` in chunks of 9 rows, draining emissions after
// every chunk into `digest`. Stops at the first error.
Status FeedWatermarkRange(StreamingPtaEngine& engine,
                          const std::vector<Segment>& arrival, size_t from,
                          size_t to, Fnv1a* digest) {
  for (size_t i = from; i < to; i += 9) {
    SequentialRelation chunk(2);
    for (size_t j = i; j < std::min(to, i + 9); ++j) chunk.Append(arrival[j]);
    PTA_RETURN_IF_ERROR(engine.IngestChunk(chunk));
    digest->Relation(engine.TakeEmitted());
  }
  return Status::Ok();
}

TEST(StreamWatermarkTest, AutoWatermarkRunsKeepTheirDigest) {
  // The watermark path's schedule (budget-pressure merges, sealing, the
  // Prop. 3 counters a snapshot carries) pinned by digests recorded before
  // the engine moved onto MergeHeap. Each digest covers every emission, the
  // Finalize output, the stats and the mid-stream and final snapshot bytes.
  // A save/restore in the middle must resume to the same digest.
  const std::vector<Segment> arrival = MakeWatermarkFeed(240, 6, 2024);
  struct Case {
    size_t delta;
    bool gaps;
    Chronon lag;
    uint64_t digest;
  };
  constexpr size_t kInf = GreedyOptions::kDeltaInfinity;
  const Case cases[] = {
      {0, false, 3, 13399179736711413468ull},
      {1, false, 3, 7558069491596916627ull},
      {kInf, false, 3, 7832144944261263708ull},
      {0, true, 3, 5920114137920491498ull},
      {1, true, 3, 18303242372359948544ull},
      {kInf, true, 3, 6636263017696617316ull},
      {0, false, 30, 2010743713000571934ull},
      {1, false, 30, 13191345509708728735ull},
      {kInf, false, 30, 3226977026492393869ull},
      {0, true, 30, 221884619182522646ull},
      {1, true, 30, 9417828793766027668ull},
      {kInf, true, 30, 17194974380660028194ull},
  };
  const size_t half = arrival.size() / 2;
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message() << "delta " << tc.delta << " gaps "
                                      << tc.gaps << " lag " << tc.lag);
    StreamingOptions options;
    options.size_budget = 20;
    options.delta = tc.delta;
    options.merge_across_gaps = tc.gaps;
    options.weights = {1.0, 2.0};
    options.auto_watermark_lag = tc.lag;

    // Uninterrupted run.
    Fnv1a straight;
    StreamingPtaEngine engine(2, options);
    ASSERT_TRUE(FeedWatermarkRange(engine, arrival, 0, half, &straight).ok());
    const std::string mid = engine.SaveSnapshot();
    straight.Bytes(mid.data(), mid.size());
    Fnv1a resumed = straight;
    ASSERT_TRUE(
        FeedWatermarkRange(engine, arrival, half, arrival.size(), &straight)
            .ok());
    auto out = engine.Finalize();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->Validate().ok());
    straight.Relation(*out);
    straight.Stats(engine.stats());
    const std::string last = engine.SaveSnapshot();
    straight.Bytes(last.data(), last.size());
    EXPECT_GT(engine.stats().emitted, 0u);
    EXPECT_GT(engine.stats().early_merges, 0u);
    EXPECT_EQ(straight.h, tc.digest);

    // Interrupted at the same point: restore the mid-stream snapshot and
    // resume.
    auto restored = StreamingPtaEngine::RestoreSnapshot(mid);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    StreamingPtaEngine& back = **restored;
    ASSERT_TRUE(
        FeedWatermarkRange(back, arrival, half, arrival.size(), &resumed)
            .ok());
    auto resumed_out = back.Finalize();
    ASSERT_TRUE(resumed_out.ok());
    resumed.Relation(*resumed_out);
    resumed.Stats(back.stats());
    const std::string resumed_last = back.SaveSnapshot();
    resumed.Bytes(resumed_last.data(), resumed_last.size());
    EXPECT_EQ(resumed.h, straight.h);
    EXPECT_EQ(resumed_last, last);
  }
}

// A time-major feed over many sparse, partly negative group ids, arriving
// in a scrambled id order within each tick. Each group falls silent for 12
// of every 36 ticks (long enough for a small watermark lag to seal and
// release it, so it is re-created when it returns) and skips single ticks
// at random. Values sit on a 0.25 grid so equal Δ-costs are common.
std::vector<Segment> MakeManyGroupFeed(size_t ticks, size_t num_groups,
                                       uint64_t seed) {
  Random rng(seed);
  std::vector<double> level(num_groups, 0.0);
  std::vector<Segment> arrival;
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t k = 0; k < num_groups; ++k) {
      const size_t i = (k * 769) % num_groups;
      if ((t + 5 * i) / 12 % 3 == 2 || rng.Bernoulli(0.25)) continue;
      level[i] += rng.Uniform(-1.0, 1.0);
      Segment seg;
      seg.group = static_cast<int32_t>(i) * 7919 - 5'000'000;
      seg.t = Interval(static_cast<Chronon>(t), static_cast<Chronon>(t));
      seg.values = {std::round(4.0 * level[i]) / 4.0};
      arrival.push_back(std::move(seg));
    }
  }
  return arrival;
}

constexpr size_t kManyGroupChunk = 512;

// Feeds `arrival[from, to)` in 512-row chunks, draining emissions after
// every chunk into `digest`. With `jumps`, every eighth chunk (counted from
// the start of the feed, so a resumed run keeps the schedule) advances the
// watermark straight to the next row's begin, passing many groups at once.
Status FeedManyGroups(StreamingPtaEngine& engine,
                      const std::vector<Segment>& arrival, size_t from,
                      size_t to, bool jumps, Fnv1a* digest) {
  for (size_t i = from; i < to; i += kManyGroupChunk) {
    const size_t end = std::min(to, i + kManyGroupChunk);
    SequentialRelation chunk(1);
    for (size_t j = i; j < end; ++j) chunk.Append(arrival[j]);
    PTA_RETURN_IF_ERROR(engine.IngestChunk(chunk));
    if (jumps && (i / kManyGroupChunk) % 8 == 7 && end < arrival.size()) {
      PTA_RETURN_IF_ERROR(engine.AdvanceWatermark(arrival[end].t.begin));
    }
    digest->Relation(engine.TakeEmitted());
  }
  return Status::Ok();
}

// Runs the rest of a many-group case from `arrival[from]` to the end: the
// remaining feed, a final jump past every group (jump cases), Finalize, the
// stats, and the final snapshot before and after draining once more.
// Returns the final snapshot.
std::string FinishManyGroups(StreamingPtaEngine& engine,
                             const std::vector<Segment>& arrival, size_t from,
                             bool jumps, Fnv1a* digest) {
  EXPECT_TRUE(
      FeedManyGroups(engine, arrival, from, arrival.size(), jumps, digest)
          .ok());
  if (jumps) {
    EXPECT_TRUE(
        engine.AdvanceWatermark(arrival.back().t.begin + 1000).ok());
    digest->Relation(engine.TakeEmitted());
  }
  auto out = engine.Finalize();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return "";
  EXPECT_TRUE(out->Validate().ok());
  digest->Relation(*out);
  digest->Stats(engine.stats());
  const std::string finalized = engine.SaveSnapshot();
  digest->Bytes(finalized.data(), finalized.size());
  digest->Relation(engine.TakeEmitted());
  const std::string drained = engine.SaveSnapshot();
  digest->Bytes(drained.data(), drained.size());
  return drained;
}

TEST(StreamWatermarkTest, ManyGroupRunsKeepTheirDigest) {
  // About 2,000 groups whose chains settle, drain and re-form at different
  // times: which groups get sealed, emitted and released on each watermark
  // advance, in group-id-major order, pinned by digests recorded before the
  // engine stopped visiting every group on every advance.
  const std::vector<Segment> arrival = MakeManyGroupFeed(48, 2000, 1807);
  struct Case {
    size_t delta;
    bool gaps;
    Chronon lag;  // -1: no auto-watermark, explicit jumps instead
    uint64_t digest;
  };
  constexpr size_t kInf = GreedyOptions::kDeltaInfinity;
  const Case cases[] = {
      {0, false, 1, 10835201975362683833ull},
      {kInf, false, 1, 15630141012946982565ull},
      {0, true, 1, 10657263000700818340ull},
      {kInf, true, 1, 7718070991865970436ull},
      {0, false, 20, 11650596838044661905ull},
      {kInf, false, 20, 8446588466474890689ull},
      {0, true, 20, 3710434053993180420ull},
      {kInf, true, 20, 1201129319760161911ull},
      {0, false, -1, 14907371451562138508ull},
      {kInf, false, -1, 6520451845829175541ull},
      {0, true, -1, 2781290811912398167ull},
      {kInf, true, -1, 4094682361696437036ull},
  };
  const size_t half =
      arrival.size() / kManyGroupChunk / 2 * kManyGroupChunk;
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message() << "delta " << tc.delta << " gaps "
                                      << tc.gaps << " lag " << tc.lag);
    StreamingOptions options;
    // Gap merging folds each group down to one live row, which never
    // seals, once the budget falls below the group count.
    options.size_budget = tc.gaps ? 2500 : 1000;
    options.delta = tc.delta;
    options.merge_across_gaps = tc.gaps;
    options.auto_watermark_lag = tc.lag;
    const bool jumps = tc.lag < 0;

    Fnv1a straight;
    StreamingPtaEngine engine(1, options);
    ASSERT_TRUE(
        FeedManyGroups(engine, arrival, 0, half, jumps, &straight).ok());
    const std::string mid = engine.SaveSnapshot();
    straight.Bytes(mid.data(), mid.size());
    Fnv1a resumed = straight;
    const std::string last =
        FinishManyGroups(engine, arrival, half, jumps, &straight);
    EXPECT_GT(engine.stats().emitted, 0u);
    EXPECT_GT(engine.stats().early_merges, 0u);
    EXPECT_EQ(straight.h, tc.digest);

    auto restored = StreamingPtaEngine::RestoreSnapshot(mid);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const std::string resumed_last =
        FinishManyGroups(**restored, arrival, half, jumps, &resumed);
    EXPECT_EQ(resumed.h, straight.h);
    EXPECT_EQ(resumed_last, last);
  }
}

// ----------------------------------------------------------- state machine

TEST(StreamStateTest, RejectsMalformedIngestAndPreservesState) {
  StreamingOptions options;
  options.size_budget = 8;
  StreamingPtaEngine engine(2, options);
  Segment seg;
  seg.group = 0;
  seg.t = Interval(0, 4);
  seg.values = {1.0, 2.0};
  ASSERT_TRUE(engine.Ingest(seg).ok());
  // Arity mismatch.
  Segment bad = seg;
  bad.values = {1.0};
  bad.t = Interval(10, 11);
  EXPECT_FALSE(engine.Ingest(bad).ok());
  // Overlap with the group tail.
  seg.t = Interval(4, 6);
  EXPECT_FALSE(engine.Ingest(seg).ok());
  // Non-finite values.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    bad = seg;
    bad.t = Interval(5, 6);
    bad.values = {1.0, v};
    const Status status = engine.Ingest(bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << v;
    EXPECT_NE(status.message().find("segment value 1 is not finite"),
              std::string::npos)
        << status.message();
  }
  // The engine still works after rejections.
  seg.t = Interval(5, 6);
  EXPECT_TRUE(engine.Ingest(seg).ok());
  EXPECT_EQ(engine.live_rows(), 2u);
  EXPECT_EQ(engine.stats().ingested, 2u);

  // Each length fits in int64_t, but merging would sum them past INT64_MAX
  // (Dsim's la + lb): the group's live rows may not cover that much. An
  // inverted interval in a new group is rejected without creating it.
  Segment huge = seg;
  huge.group = 1;
  huge.t = Interval(std::numeric_limits<Chronon>::min(), -2);
  ASSERT_TRUE(engine.Ingest(huge).ok());
  const std::string before = engine.SaveSnapshot();
  huge.t = Interval(-1, 0);
  Status status = engine.Ingest(huge);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("more than INT64_MAX chronons"),
            std::string::npos)
      << status.message();
  bad = seg;
  bad.group = 2;
  bad.t.begin = 9;
  bad.t.end = 8;
  EXPECT_EQ(engine.Ingest(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.SaveSnapshot(), before);
  auto out = engine.Finalize();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(StreamStateTest, FinalizeIsTerminal) {
  StreamingOptions options;
  options.size_budget = 4;
  StreamingPtaEngine engine(1, options);
  auto empty = engine.Finalize();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(engine.Finalize().ok());
  Segment seg;
  seg.group = 0;
  seg.t = Interval(0, 1);
  seg.values = {1.0};
  EXPECT_FALSE(engine.Ingest(seg).ok());
  EXPECT_FALSE(engine.AdvanceWatermark(10).ok());
}

TEST(StreamStateTest, InfeasibleBudgetStopsAtTheLiveCmin) {
  // Three runs separated by gaps but a budget of 1: batch gPTAc fails;
  // the streaming engine documents the softer contract and returns the
  // cmin rows instead.
  StreamingOptions options;
  options.size_budget = 1;
  StreamingPtaEngine engine(1, options);
  Segment seg;
  seg.group = 0;
  seg.values = {1.0};
  for (Chronon t : {0, 10, 20}) {
    seg.t = Interval(t, t + 1);
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  auto out = engine.Finalize();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(engine.total_error(), 0.0);
}

TEST(StreamStateTest, LiveMemoryStaysNearTheBudgetOnGapFreeStreams) {
  // delta = 0 merges eagerly, so on a gap-free stream the live set can
  // never exceed c + 1: the sharpest online form of Fig. 20's c + beta.
  // (Positive delta defers merges whose top is the stream tail, letting
  // beta drift with the workload, identically to batch gPTAc.)
  StreamingOptions options;
  options.size_budget = 100;
  options.delta = 0;
  StreamingPtaEngine engine(1, options);
  Random rng(3);
  Segment seg;
  seg.group = 0;
  seg.values = {0.0};
  for (Chronon t = 0; t < 20000; ++t) {
    seg.t = Interval(t, t);
    seg.values[0] = rng.Uniform(0.0, 100.0);
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  EXPECT_LE(engine.stats().max_live_rows, options.size_budget + 1);
  auto out = engine.Finalize();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), options.size_budget);
}

TEST(StreamStateTest, TakeEmittedReleasesFinishedGroups) {
  StreamingOptions options;
  options.size_budget = 100;
  StreamingPtaEngine engine(1, options);
  Segment seg;
  seg.values = {1.0};
  for (int32_t g = 0; g < 50; ++g) {
    seg.group = g;
    seg.t = Interval(g, g);
    ASSERT_TRUE(engine.Ingest(seg).ok());
  }
  // Everything is far behind the watermark: all 50 groups seal entirely.
  ASSERT_TRUE(engine.AdvanceWatermark(1000).ok());
  EXPECT_EQ(engine.live_rows(), 0u);
  EXPECT_EQ(engine.TakeEmitted().size(), 50u);
  // Old groups are released; re-appearing groups start fresh chains.
  seg.group = 7;
  seg.t = Interval(2000, 2000);
  EXPECT_TRUE(engine.Ingest(seg).ok());
  EXPECT_EQ(engine.live_rows(), 1u);
}

// Finalize drops the pending rows of a group whose chain sealed entirely
// before it, but keeps the group until TakeEmitted releases it, so the
// finalized snapshot holds a group without state. It restores, re-saves
// to the same bytes, and drains exactly as the original engine does.
TEST(StreamStateTest, FinalizedSnapshotWithASealedGroupRestores) {
  StreamingOptions options;
  options.size_budget = 2;
  StreamingPtaEngine engine(1, options);
  for (const auto& [g, t] : std::vector<std::pair<int32_t, Chronon>>{
           {0, 0}, {0, 1}, {0, 2}, {1, 100}, {1, 101}, {1, 102}}) {
    ASSERT_TRUE(engine.Ingest(Segment{g, Interval(t, t), {1.0 + t}}).ok());
  }
  ASSERT_TRUE(engine.AdvanceWatermark(50).ok());  // group 0 seals entirely
  ASSERT_GT(engine.pending_rows(), 0u);
  ASSERT_TRUE(engine.Finalize().ok());
  const std::string finalized = engine.SaveSnapshot();

  auto restored = StreamingPtaEngine::RestoreSnapshot(finalized);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamingPtaEngine& back = **restored;
  EXPECT_EQ(back.SaveSnapshot(), finalized);
  testing::ExpectByteIdentical(back.TakeEmitted(), engine.TakeEmitted());
  EXPECT_EQ(back.SaveSnapshot(), engine.SaveSnapshot());
  EXPECT_NE(engine.SaveSnapshot(), finalized);  // the group was released

  // Only a finalized engine can hold a group without state: the same
  // bytes with the finalized flag cleared are corrupt.
  std::string live = finalized;
  live[12] = static_cast<char>(live[12] & ~0x02);
  const uint64_t sum = io::Checksum64(live.data(), live.size() - 8);
  for (int i = 0; i < 8; ++i) {
    live[live.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  auto rejected = StreamingPtaEngine::RestoreSnapshot(live);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().message(),
            "corrupt PTA snapshot: group without state");
}

}  // namespace
}  // namespace pta
