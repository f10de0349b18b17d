#include "pta/segment.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>

#include "core/ita.h"
#include "pta/dp.h"
#include "pta/greedy.h"
#include "pta/index.h"
#include "pta/query.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;

TEST(SegmentTest, AccessorsExposeColumnarData) {
  const SequentialRelation rel = MakeProjIta();
  EXPECT_EQ(rel.size(), 7u);
  EXPECT_EQ(rel.num_aggregates(), 1u);
  EXPECT_EQ(rel.group(0), 0);
  EXPECT_EQ(rel.group(5), 1);
  EXPECT_EQ(rel.interval(3), Interval(5, 6));
  EXPECT_EQ(rel.length(3), 2);
  EXPECT_DOUBLE_EQ(rel.value(1, 0), 600.0);
  const SegmentView view = rel.view(2);
  EXPECT_EQ(view.group, 0);
  EXPECT_DOUBLE_EQ(view.values[0], 500.0);
}

TEST(SegmentTest, AdjacentPairFollowsDef2) {
  const SequentialRelation rel = MakeProjIta();
  EXPECT_TRUE(rel.AdjacentPair(0));   // s1 ≺ s2
  EXPECT_TRUE(rel.AdjacentPair(3));   // s4 ≺ s5
  EXPECT_FALSE(rel.AdjacentPair(4));  // s5, s6: different group
  EXPECT_FALSE(rel.AdjacentPair(5));  // s6, s7: temporal gap
}

TEST(SegmentTest, CMinCountsMaximalRuns) {
  // Running example: cmin = 7 - 4 = 3 (Sec. 4.1).
  EXPECT_EQ(MakeProjIta().CMin(), 3u);
  EXPECT_EQ(SequentialRelation(1).CMin(), 0u);
}

TEST(SegmentTest, ValidateCatchesDisorder) {
  EXPECT_TRUE(MakeProjIta().Validate().ok());

  SequentialRelation bad_group(1);
  const double v = 1.0;
  bad_group.Append(1, Interval(0, 1), &v);
  bad_group.Append(0, Interval(2, 3), &v);
  EXPECT_FALSE(bad_group.Validate().ok());

  SequentialRelation overlap(1);
  overlap.Append(0, Interval(0, 5), &v);
  overlap.Append(0, Interval(5, 8), &v);
  EXPECT_FALSE(overlap.Validate().ok());
}

TEST(SegmentTest, ValidateRejectsNonFiniteValues) {
  const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : bads) {
    SequentialRelation rel(2);
    const double good[] = {1.0, 2.0};
    const double poisoned[] = {3.0, bad};
    rel.Append(0, Interval(0, 1), good);
    rel.Append(0, Interval(2, 3), good);
    rel.Append(1, Interval(0, 4), poisoned);
    const Status status = rel.Validate();
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("segment 2, dimension 1"),
              std::string::npos)
        << status.message();
  }
}

constexpr Chronon kMinChronon = std::numeric_limits<Chronon>::min();
constexpr Chronon kMaxChronon = std::numeric_limits<Chronon>::max();

// An interval with arbitrary fields (the constructor checks begin <= end).
Interval RawInterval(Chronon begin, Chronon end) {
  Interval t;
  t.begin = begin;
  t.end = end;
  return t;
}

TEST(SegmentTest, ValidateRejectsImproperIntervals) {
  struct Case {
    Interval t;
    const char* message;
    // A second segment of the same group, appended after t when set.
    std::optional<Interval> next = std::nullopt;
  };
  const Case cases[] = {
      {RawInterval(9, 7), "inverted interval [9, 7] at segment 1"},
      {RawInterval(kMaxChronon, kMinChronon),
       "inverted interval [9223372036854775807, -9223372036854775808] at "
       "segment 1"},
      // One chronon past the longest representable length (INT64_MAX).
      {RawInterval(kMinChronon, -1),
       "interval [-9223372036854775808, -1] at segment 1 is longer than "
       "INT64_MAX chronons"},
      {RawInterval(-1, kMaxChronon - 1),
       "interval [-1, 9223372036854775806] at segment 1 is longer than "
       "INT64_MAX chronons"},
      {RawInterval(kMinChronon + 1, kMaxChronon - 1),
       "interval [-9223372036854775807, 9223372036854775806] at segment 1 "
       "is longer than INT64_MAX chronons"},
      {RawInterval(kMinChronon, kMaxChronon),
       "interval [-9223372036854775808, 9223372036854775807] at segment 1 "
       "is longer than INT64_MAX chronons"},
      // Each segment's length fits, but merging the two would sum them past
      // INT64_MAX (Dsim's la + lb, the merge heap's covered count).
      {RawInterval(kMinChronon, -2),
       "group 1 covers more than INT64_MAX chronons by segment 2",
       RawInterval(-1, 0)},
  };
  const double v = 1.0;
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.message);
    SequentialRelation rel(1);
    rel.Append(0, Interval(0, 1), &v);
    rel.Append(1, tc.t, &v);
    if (tc.next) rel.Append(1, *tc.next, &v);
    const Status status = rel.Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), tc.message);
    // Every consumer that validates its input reports the same error.
    for (const Status& s :
         {PtaIndex::Build(rel).status(), GmsReduceToSize(rel, 1).status(),
          ReduceToSizeDp(rel, 2).status(),
          PtaIndex::FromParts(rel, {}, {}, {}, {0.0}, {}, false).status()}) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(s.message(), tc.message);
    }
  }
}

TEST(SegmentTest, ValidateAcceptsChrononExtremes) {
  const double v[] = {1.0, 4.0, 2.0, 8.0};
  // The longest intervals whose length() is still representable.
  SequentialRelation longest(1);
  longest.Append(0, Interval(kMinChronon, -2), &v[0]);
  longest.Append(1, Interval(0, kMaxChronon - 1), &v[1]);
  longest.Append(2, Interval(1, kMaxChronon), &v[2]);
  EXPECT_TRUE(longest.Validate().ok()) << longest.Validate().ToString();
  for (size_t i = 0; i < longest.size(); ++i) {
    EXPECT_EQ(longest.length(i), kMaxChronon) << "segment " << i;
  }

  // Unit segments at both ends of the chronon domain, one group each
  // side of a gap, plus a group at the INT64_MIN + 1 / INT64_MAX - 1
  // edges: every consumer runs, and the index agrees with GMS and DP.
  SequentialRelation edges(1);
  edges.Append(0, Interval(kMinChronon, kMinChronon), &v[0]);
  edges.Append(0, Interval(kMinChronon + 1, kMinChronon + 1), &v[1]);
  edges.Append(0, Interval(kMaxChronon - 1, kMaxChronon - 1), &v[2]);
  edges.Append(0, Interval(kMaxChronon, kMaxChronon), &v[3]);
  edges.Append(1, Interval(kMinChronon + 1, kMinChronon + 1), &v[0]);
  edges.Append(1, Interval(kMaxChronon - 1, kMaxChronon - 1), &v[1]);
  ASSERT_TRUE(edges.Validate().ok()) << edges.Validate().ToString();
  EXPECT_EQ(edges.CMin(), 4u);
  auto index = PtaIndex::Build(edges);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (size_t c = edges.CMin(); c <= edges.size(); ++c) {
    auto cut = index->CutToSize(c);
    auto gms = GmsReduceToSize(edges, c);
    auto dp = ReduceToSizeDp(edges, c);
    ASSERT_TRUE(cut.ok() && gms.ok() && dp.ok()) << "c=" << c;
    testing::ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(cut->error, gms->error) << "c=" << c;
    EXPECT_EQ(dp->relation.size(), gms->relation.size()) << "c=" << c;
  }
}

TEST(SegmentTest, ToTemporalRelationAttachesGroupKeysAndNames) {
  const SequentialRelation rel = MakeProjIta();
  const Schema group_schema({{"Proj", ValueType::kString}});
  auto out = rel.ToTemporalRelation(group_schema);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 7u);
  EXPECT_EQ(out->schema().ToString(), "(Proj:string, AvgSal:double)");
  EXPECT_EQ(out->tuple(0).value(0).AsString(), "A");
  EXPECT_DOUBLE_EQ(out->tuple(0).value(1).AsDoubleExact(), 800.0);
  EXPECT_EQ(out->tuple(6).value(0).AsString(), "B");

  // Mismatched group schema arity fails.
  const Schema two({{"A", ValueType::kString}, {"B", ValueType::kString}});
  EXPECT_FALSE(rel.ToTemporalRelation(two).ok());
}

// ---- group keys: one immutable vector, shared, never copied ------------

TEST(SegmentTest, CopiesShareGroupKeysAndSettingThemDetachesOnlyTheCopy) {
  const SequentialRelation rel = MakeProjIta();
  const std::vector<GroupKey> before = rel.group_keys();
  SequentialRelation copy = rel;
  EXPECT_EQ(&copy.group_keys(), &rel.group_keys());
  EXPECT_EQ(copy.shared_group_keys(), rel.shared_group_keys());

  copy.SetGroupKeys({{Value("X")}});
  EXPECT_EQ(rel.group_keys(), before);
  ASSERT_EQ(copy.group_keys().size(), 1u);
  EXPECT_EQ(copy.group_keys()[0][0].AsString(), "X");
  copy.ShareGroupKeys(nullptr);
  EXPECT_TRUE(copy.group_keys().empty());
  EXPECT_EQ(rel.group_keys(), before);

  const SequentialRelation none(1);
  EXPECT_TRUE(none.group_keys().empty());
  EXPECT_EQ(none.shared_group_keys(), nullptr);
}

// Every result derived from a relation points at that relation's keys —
// same storage, same values as the deep copies results used to carry.
TEST(SegmentTest, CutsLaddersAndReducerResultsShareTheSourceKeys) {
  const SequentialRelation rel =
      testing::RandomSequential(/*n=*/200, /*p=*/2, /*num_groups=*/6,
                                /*gap_probability=*/0.1, 5);
  const std::vector<GroupKey> before = rel.group_keys();
  const std::vector<GroupKey>* keys = &rel.group_keys();
  const auto expect_shared = [&](const SequentialRelation& out,
                                 const char* what) {
    EXPECT_EQ(&out.group_keys(), keys) << what;
    EXPECT_EQ(out.group_keys(), before) << what;
  };

  auto index = PtaIndex::Build(rel);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  expect_shared(index->input(), "index input");
  auto cut = index->CutToSize(40);
  ASSERT_TRUE(cut.ok());
  expect_shared(cut->relation, "CutToSize");
  auto error_cut = index->CutToError(0.2);
  ASSERT_TRUE(error_cut.ok());
  expect_shared(error_cut->relation, "CutToError");
  auto ladder = index->MultiBudgetCut({30, 60, 120, 200});
  ASSERT_TRUE(ladder.ok());
  for (const Reduction& level : *ladder) {
    expect_shared(level.relation, "MultiBudgetCut level");
  }

  auto gms = GmsReduceToSize(rel, 40);
  ASSERT_TRUE(gms.ok());
  expect_shared(gms->relation, "GmsReduceToSize");
  auto gms_error = GmsReduceToError(rel, 0.2);
  ASSERT_TRUE(gms_error.ok());
  expect_shared(gms_error->relation, "GmsReduceToError");
  auto dp = ReduceToSizeDp(rel, 40);
  ASSERT_TRUE(dp.ok());
  expect_shared(dp->relation, "ReduceToSizeDp");
  for (const Engine engine : {Engine::kGreedy, Engine::kIndexed}) {
    auto run = PtaQuery::OverSequential(rel)
                   .Engine(engine)
                   .Budget(Budget::Size(40))
                   .Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expect_shared(run->relation, "PtaQuery");
  }
  PtaIndexCacheClear();
}

// Over a temporal input the keys come from ITA: Ita() hands its stream's
// keys to the result, and reductions of that result share them in turn.
TEST(SegmentTest, ReductionsOfAnItaResultShareItsKeys) {
  const TemporalRelation rel = testing::MakeProjRelation();
  const ItaSpec spec{{"Proj"}, {Avg("Sal", "AvgSal")}};
  auto ita = Ita(rel, spec);
  ASSERT_TRUE(ita.ok()) << ita.status().ToString();
  EXPECT_EQ(ita->group_keys(), MakeProjIta().group_keys());
  auto gms = GmsReduceToSize(*ita, 4);
  ASSERT_TRUE(gms.ok());
  EXPECT_EQ(&gms->relation.group_keys(), &ita->group_keys());
  auto greedy =
      PtaQuery::Over(rel).Spec(spec).Engine(Engine::kGreedy).Budget(
          Budget::Size(4)).Run();
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_EQ(greedy->relation.group_keys(), ita->group_keys());
}

TEST(SegmentTest, RelationSegmentSourceEnumeratesAll) {
  const SequentialRelation rel = MakeProjIta();
  RelationSegmentSource src(rel);
  EXPECT_EQ(src.num_aggregates(), 1u);
  Segment seg;
  size_t count = 0;
  while (src.Next(&seg)) {
    EXPECT_EQ(seg.group, rel.group(count));
    EXPECT_EQ(seg.t, rel.interval(count));
    EXPECT_DOUBLE_EQ(seg.values[0], rel.value(count, 0));
    ++count;
  }
  EXPECT_EQ(count, rel.size());
}

TEST(SegmentTest, FromTimeSeriesBuildsUnitSegments) {
  const std::vector<std::vector<double>> dims = {{1.0, 2.0, 2.0},
                                                 {5.0, 5.0, 5.0}};
  const SequentialRelation rel = FromTimeSeries(dims);
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.num_aggregates(), 2u);
  EXPECT_EQ(rel.interval(1), Interval(1, 1));
  EXPECT_DOUBLE_EQ(rel.value(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(rel.value(2, 1), 5.0);
  EXPECT_EQ(rel.CMin(), 1u);
}

TEST(SegmentTest, ToTimeSeriesExpandsPerChronon) {
  SequentialRelation rel(1);
  const double a = 4.0, b = 7.0;
  rel.Append(0, Interval(0, 2), &a);
  rel.Append(0, Interval(3, 3), &b);
  auto series = ToTimeSeries(rel);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->size(), 1u);
  EXPECT_EQ((*series)[0], (std::vector<double>{4.0, 4.0, 4.0, 7.0}));
}

TEST(SegmentTest, ToTimeSeriesRejectsGapsAndGroups) {
  EXPECT_FALSE(ToTimeSeries(MakeProjIta()).ok());  // two groups + gap
  SequentialRelation gap(1);
  const double v = 1.0;
  gap.Append(0, Interval(0, 1), &v);
  gap.Append(0, Interval(3, 4), &v);
  EXPECT_FALSE(ToTimeSeries(gap).ok());
}

TEST(SegmentTest, ApproxEqualsUsesTolerance) {
  SequentialRelation a(1), b(1);
  const double va = 1.0, vb = 1.0 + 1e-12;
  a.Append(0, Interval(0, 1), &va);
  b.Append(0, Interval(0, 1), &vb);
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-15));
}

}  // namespace
}  // namespace pta
