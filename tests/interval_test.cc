#include "core/interval.h"

#include <gtest/gtest.h>

#include <limits>

namespace pta {
namespace {

TEST(IntervalTest, LengthCountsChronsonsInclusively) {
  EXPECT_EQ(Interval(1, 4).length(), 4);
  EXPECT_EQ(Interval(3, 3).length(), 1);
  EXPECT_EQ(Interval(-5, 5).length(), 11);
}

TEST(IntervalTest, ContainsIsInclusiveOnBothEnds) {
  const Interval t(2, 5);
  EXPECT_FALSE(t.Contains(1));
  EXPECT_TRUE(t.Contains(2));
  EXPECT_TRUE(t.Contains(4));
  EXPECT_TRUE(t.Contains(5));
  EXPECT_FALSE(t.Contains(6));
}

TEST(IntervalTest, OverlapRequiresSharedChronon) {
  EXPECT_TRUE(Interval(1, 4).Overlaps(Interval(4, 7)));
  EXPECT_TRUE(Interval(4, 7).Overlaps(Interval(1, 4)));
  EXPECT_TRUE(Interval(1, 10).Overlaps(Interval(3, 5)));
  EXPECT_FALSE(Interval(1, 4).Overlaps(Interval(5, 8)));
  EXPECT_FALSE(Interval(5, 8).Overlaps(Interval(1, 4)));
}

TEST(IntervalTest, MeetsBeforeMatchesDef2Adjacency) {
  // s_i.te = s_j.tb - 1 is condition (2) of Def. 2.
  EXPECT_TRUE(Interval(1, 4).MeetsBefore(Interval(5, 8)));
  EXPECT_FALSE(Interval(1, 4).MeetsBefore(Interval(6, 8)));  // gap
  EXPECT_FALSE(Interval(1, 4).MeetsBefore(Interval(4, 8)));  // overlap
  EXPECT_FALSE(Interval(5, 8).MeetsBefore(Interval(1, 4)));  // wrong order
}

TEST(IntervalTest, MeetsBeforeAtTheChrononExtremes) {
  // No `end + 1` is computed, so the maximal chronon neither overflows
  // (UBSan would flag it) nor wraps around to meet the minimal one.
  constexpr Chronon kMin = std::numeric_limits<Chronon>::min();
  constexpr Chronon kMax = std::numeric_limits<Chronon>::max();
  EXPECT_FALSE(Interval(kMax - 3, kMax).MeetsBefore(Interval(kMin, 0)));
  EXPECT_FALSE(Interval(kMax - 3, kMax).MeetsBefore(Interval(kMax, kMax)));
  EXPECT_TRUE(Interval(kMax - 3, kMax - 1).MeetsBefore(Interval(kMax, kMax)));
  EXPECT_TRUE(Interval(kMin, kMin).MeetsBefore(Interval(kMin + 1, 5)));
  EXPECT_FALSE(Interval(kMin, 0).MeetsBefore(Interval(kMin, kMin)));
}

TEST(IntervalTest, HullSpansBothInputs) {
  EXPECT_EQ(Interval::Hull(Interval(1, 2), Interval(3, 3)), Interval(1, 3));
  EXPECT_EQ(Interval::Hull(Interval(5, 9), Interval(1, 2)), Interval(1, 9));
}

TEST(IntervalTest, IntersectReturnsSharedRange) {
  EXPECT_EQ(Interval(1, 6).Intersect(Interval(4, 9)), Interval(4, 6));
  EXPECT_EQ(Interval(2, 8).Intersect(Interval(3, 5)), Interval(3, 5));
}

TEST(IntervalTest, ToStringUsesPaperNotation) {
  EXPECT_EQ(Interval(1, 4).ToString(), "[1, 4]");
  EXPECT_EQ(Interval(-3, 7).ToString(), "[-3, 7]");
}

TEST(IntervalTest, EqualityComparesBothEndpoints) {
  EXPECT_EQ(Interval(1, 2), Interval(1, 2));
  EXPECT_NE(Interval(1, 2), Interval(1, 3));
  EXPECT_NE(Interval(0, 2), Interval(1, 2));
}

}  // namespace
}  // namespace pta
