#include "time/timeline.h"

#include <gtest/gtest.h>

namespace tcob {
namespace {

TEST(TimelineTest, AppendAndAsOf) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, 10), 1).ok());
  ASSERT_TRUE(tl.Append(Interval(10, 20), 2).ok());
  ASSERT_TRUE(tl.Append(Interval(25, kForever), 3).ok());
  EXPECT_EQ(tl.AsOf(0).value(), 1u);
  EXPECT_EQ(tl.AsOf(9).value(), 1u);
  EXPECT_EQ(tl.AsOf(10).value(), 2u);
  EXPECT_FALSE(tl.AsOf(22).has_value());  // gap (deleted period)
  EXPECT_EQ(tl.AsOf(25).value(), 3u);
  EXPECT_EQ(tl.AsOf(1'000'000).value(), 3u);
  EXPECT_TRUE(tl.IsLive());
}

TEST(TimelineTest, RejectsOverlap) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, 10), 1).ok());
  EXPECT_TRUE(tl.Append(Interval(5, 15), 2).IsInvalidArgument());
  EXPECT_TRUE(tl.Append(Interval(3, 4), 2).IsInvalidArgument());
}

TEST(TimelineTest, RejectsAppendAfterOpenEnded) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, kForever), 1).ok());
  EXPECT_TRUE(tl.Append(Interval(10, 20), 2).IsInvalidArgument());
}

TEST(TimelineTest, TailOpen) {
  TimelineTail atom = TimelineTail::Atom(7);
  ASSERT_TRUE(atom.Open(10).ok());
  EXPECT_TRUE(atom.exists);
  EXPECT_TRUE(atom.open);
  EXPECT_EQ(atom.begin, 10);
  Status twice = atom.Open(20);
  EXPECT_TRUE(twice.IsAlreadyExists());
  EXPECT_EQ(twice.message(), "atom 7 is already live (since 10)");
  ASSERT_TRUE(atom.Close(15).ok());
  // Re-opening before the last closed end overlaps it...
  Status early = atom.Open(14);
  EXPECT_TRUE(early.IsInvalidArgument());
  EXPECT_EQ(early.message(),
            "atom 7 cannot become live at 14: its last version ended at 15");
  // ...while opening at exactly that end is allowed.
  ASSERT_TRUE(atom.Open(15).ok());
  EXPECT_EQ(atom.begin, 15);
}

TEST(TimelineTest, TailClose) {
  TimelineTail atom = TimelineTail::Atom(7);
  Status unknown = atom.Close(5);
  EXPECT_TRUE(unknown.IsNotFound());
  EXPECT_EQ(unknown.message(), "atom 7 does not exist");
  ASSERT_TRUE(atom.Open(3).ok());
  Status at_begin = atom.Close(3);
  EXPECT_TRUE(at_begin.IsInvalidArgument());
  EXPECT_EQ(at_begin.message(),
            "atom 7 cannot change at 3: its live version began at 3");
  ASSERT_TRUE(atom.Close(9).ok());
  EXPECT_FALSE(atom.open);
  EXPECT_EQ(atom.last_end, 9);
  // A dead atom still exists; a link pair without an open interval does
  // not.
  Status dead = atom.Close(12);
  EXPECT_TRUE(dead.IsInvalidArgument());
  EXPECT_EQ(dead.message(), "atom 7 is not live");
  TimelineTail link = TimelineTail::Link(1, 3);
  ASSERT_TRUE(link.Open(3).ok());
  ASSERT_TRUE(link.Close(9).ok());
  Status closed = link.Close(12);
  EXPECT_TRUE(closed.IsNotFound());
  EXPECT_EQ(closed.message(), "link 1->3 is not connected");
}

TEST(TimelineTest, TailAsOfSnapshot) {
  // [3, 9) and [12, forever), seen at 10: the second interval does not
  // exist yet.
  TimelineTail at10 = TimelineTail::Link(1, 3);
  at10.Fold(Interval(12, kForever), 10);
  at10.Fold(Interval(3, 9), 10);
  EXPECT_FALSE(at10.open);
  EXPECT_EQ(at10.last_end, 9);
  // Seen at 8, [3, 9) is still open.
  TimelineTail at8 = TimelineTail::Link(1, 3);
  at8.Fold(Interval(3, 9), 8);
  EXPECT_TRUE(at8.open);
  EXPECT_EQ(at8.begin, 3);
  // Nothing has begun at 2.
  TimelineTail at2 = TimelineTail::Link(1, 3);
  at2.Fold(Interval(3, 9), 2);
  EXPECT_FALSE(at2.exists);
  // After() is the newest interval's tail.
  TimelineTail after = TimelineTail::Atom(4);
  after.After(Interval(5, 8));
  EXPECT_TRUE(after.exists);
  EXPECT_FALSE(after.open);
  EXPECT_EQ(after.last_end, 8);
}

TEST(TimelineTest, Overlapping) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, 10), 1).ok());
  ASSERT_TRUE(tl.Append(Interval(10, 20), 2).ok());
  ASSERT_TRUE(tl.Append(Interval(20, 30), 3).ok());
  auto hits = tl.Overlapping(Interval(5, 25));
  ASSERT_EQ(hits.size(), 3u);
  hits = tl.Overlapping(Interval(10, 20));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].payload, 2u);
  EXPECT_TRUE(tl.Overlapping(Interval(30, 40)).empty());
  EXPECT_TRUE(tl.Overlapping(Interval::Empty()).empty());
}

TEST(TimelineTest, LifespanMergesContiguous) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, 10), 1).ok());
  ASSERT_TRUE(tl.Append(Interval(10, 20), 2).ok());
  ASSERT_TRUE(tl.Append(Interval(30, 40), 3).ok());
  TemporalElement span = tl.Lifespan();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span.intervals()[0], Interval(0, 20));
  EXPECT_EQ(span.intervals()[1], Interval(30, 40));
}

TEST(TimelineTest, BoundariesIn) {
  VersionTimeline tl;
  ASSERT_TRUE(tl.Append(Interval(0, 10), 1).ok());
  ASSERT_TRUE(tl.Append(Interval(10, 20), 2).ok());
  ASSERT_TRUE(tl.Append(Interval(25, kForever), 3).ok());
  auto b = tl.BoundariesIn(Interval(5, 30));
  // begins >= 5: 10, 25; finite ends < 30: 10, 20 -> {10, 20, 25}
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], 10);
  EXPECT_EQ(b[1], 20);
  EXPECT_EQ(b[2], 25);
}

}  // namespace
}  // namespace tcob
