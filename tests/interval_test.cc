#include "time/interval.h"

#include <gtest/gtest.h>

#include <tuple>

namespace tcob {
namespace {

TEST(IntervalTest, BasicPredicates) {
  Interval iv(10, 20);
  EXPECT_FALSE(iv.empty());
  EXPECT_EQ(iv.length(), 10);
  EXPECT_TRUE(iv.Contains(10));
  EXPECT_TRUE(iv.Contains(19));
  EXPECT_FALSE(iv.Contains(20));
  EXPECT_FALSE(iv.Contains(9));
}

TEST(IntervalTest, EmptyCanonical) {
  EXPECT_TRUE(Interval::Empty().empty());
  EXPECT_TRUE(Interval(5, 5).empty());
  EXPECT_TRUE(Interval(7, 3).empty());
  EXPECT_EQ(Interval(5, 5), Interval(9, 2));  // all empties are equal
}

TEST(IntervalTest, OpenEnded) {
  Interval iv(10, kForever);
  EXPECT_TRUE(iv.open_ended());
  EXPECT_TRUE(iv.Contains(1'000'000'000));
  EXPECT_FALSE(Interval(10, 20).open_ended());
}

TEST(IntervalTest, AtIsSingleChronon) {
  Interval iv = Interval::At(5);
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_FALSE(iv.Contains(6));
  EXPECT_EQ(iv.length(), 1);
}

TEST(IntervalTest, OverlapSymmetric) {
  Interval a(0, 10), b(5, 15), c(10, 20);
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));  // half-open: [0,10) and [10,20) don't meet
  EXPECT_TRUE(a.Meets(c));
  EXPECT_FALSE(a.Overlaps(Interval::Empty()));
}

TEST(IntervalTest, IntersectAndMerge) {
  Interval a(0, 10), b(5, 15);
  EXPECT_EQ(a.Intersect(b), Interval(5, 10));
  EXPECT_EQ(a.Merge(b), Interval(0, 15));
  EXPECT_TRUE(a.Intersect(Interval(20, 30)).empty());
  EXPECT_TRUE(a.Mergeable(Interval(10, 12)));   // adjacent
  EXPECT_FALSE(a.Mergeable(Interval(11, 12)));  // gap
}

TEST(IntervalTest, ContainsInterval) {
  Interval a(0, 100);
  EXPECT_TRUE(a.Contains(Interval(0, 100)));
  EXPECT_TRUE(a.Contains(Interval(10, 20)));
  EXPECT_FALSE(a.Contains(Interval(10, 101)));
  EXPECT_FALSE(a.Contains(Interval::Empty()));
}

TEST(IntervalTest, ToStringRendersForever) {
  EXPECT_EQ(Interval(3, kForever).ToString(), "[3, forever)");
  EXPECT_EQ(Interval(3, 9).ToString(), "[3, 9)");
  EXPECT_EQ(Interval::Empty().ToString(), "[empty)");
}

// Exhaustive check of the 13 Allen relations on canonical witnesses.
struct AllenCase {
  Interval a;
  Interval b;
  AllenRelation expected;
  // gtest prints a parameter type without a printer as its raw bytes,
  // and the test ids carry them; an explicit zeroed tail instead of
  // padding keeps the ids the same from build to build.
  uint32_t tail = 0;
};
static_assert(sizeof(AllenCase) == 2 * sizeof(Interval) + 8,
              "AllenCase must have no padding bytes");

class AllenTest : public ::testing::TestWithParam<AllenCase> {};

TEST_P(AllenTest, Classify) {
  const AllenCase& c = GetParam();
  EXPECT_EQ(ClassifyAllen(c.a, c.b), c.expected)
      << c.a.ToString() << " vs " << c.b.ToString() << " expected "
      << AllenRelationName(c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllThirteen, AllenTest,
    ::testing::Values(
        AllenCase{{0, 5}, {7, 9}, AllenRelation::kBefore},
        AllenCase{{0, 5}, {5, 9}, AllenRelation::kMeets},
        AllenCase{{0, 5}, {3, 9}, AllenRelation::kOverlaps},
        AllenCase{{0, 5}, {0, 9}, AllenRelation::kStarts},
        AllenCase{{3, 5}, {0, 9}, AllenRelation::kDuring},
        AllenCase{{7, 9}, {0, 9}, AllenRelation::kFinishes},
        AllenCase{{0, 9}, {0, 9}, AllenRelation::kEquals},
        AllenCase{{0, 9}, {7, 9}, AllenRelation::kFinishedBy},
        AllenCase{{0, 9}, {3, 5}, AllenRelation::kContains},
        AllenCase{{0, 9}, {0, 5}, AllenRelation::kStartedBy},
        AllenCase{{3, 9}, {0, 5}, AllenRelation::kOverlappedBy},
        AllenCase{{5, 9}, {0, 5}, AllenRelation::kMetBy},
        AllenCase{{7, 9}, {0, 5}, AllenRelation::kAfter}));

// Property: ClassifyAllen is consistent with the boolean helpers.
TEST(AllenPropertyTest, ConsistentWithPredicates) {
  for (Timestamp a1 = 0; a1 < 6; ++a1) {
    for (Timestamp a2 = a1 + 1; a2 <= 6; ++a2) {
      for (Timestamp b1 = 0; b1 < 6; ++b1) {
        for (Timestamp b2 = b1 + 1; b2 <= 6; ++b2) {
          Interval a(a1, a2), b(b1, b2);
          AllenRelation r = ClassifyAllen(a, b);
          EXPECT_EQ(r == AllenRelation::kBefore, a.end < b.begin);
          EXPECT_EQ(r == AllenRelation::kMeets, a.Meets(b));
          EXPECT_EQ(r == AllenRelation::kDuring, a.During(b));
          EXPECT_EQ(r == AllenRelation::kEquals, a == b);
          // Overlap holds for every relation except before/meets/after/metby.
          bool disjoint = r == AllenRelation::kBefore ||
                          r == AllenRelation::kMeets ||
                          r == AllenRelation::kAfter ||
                          r == AllenRelation::kMetBy;
          EXPECT_EQ(!disjoint, a.Overlaps(b));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tcob
