#include "common/trace_ring.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tcob {
namespace {

TraceOptions SmallRing(uint64_t events = 64) {
  TraceOptions o;
  o.ring_bytes = events * 32;  // 32 bytes per event
  return o;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceRingTest, RecordsAndSnapshots) {
  TraceRecorder rec(SmallRing());
  rec.Emit(TraceEventType::kWalAppend, 123);
  rec.Emit(TraceEventType::kPoolMiss, 7);
  std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kWalAppend);
  EXPECT_EQ(events[0].arg, 123u);
  EXPECT_EQ(events[1].type, TraceEventType::kPoolMiss);
  EXPECT_EQ(rec.recorded(kTraceCatWal), 1u);
  EXPECT_EQ(rec.recorded(kTraceCatPool), 1u);
  EXPECT_EQ(rec.dropped(kTraceCatWal), 0u);
}

TEST(TraceRingTest, OverwritesOldestAndCountsDrops) {
  // The minimum ring is 64 events; emit 64 WAL appends to fill it, then
  // 10 pool misses that must overwrite the 10 oldest appends.
  TraceRecorder rec(SmallRing(64));
  for (uint64_t i = 0; i < 64; ++i) {
    rec.Emit(TraceEventType::kWalAppend, i);
  }
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Emit(TraceEventType::kPoolMiss, i);
  }
  EXPECT_EQ(rec.recorded(kTraceCatWal), 64u);
  EXPECT_EQ(rec.recorded(kTraceCatPool), 10u);
  // The evicted events were all WAL appends, classified as such.
  EXPECT_EQ(rec.dropped(kTraceCatWal), 10u);
  EXPECT_EQ(rec.dropped(kTraceCatPool), 0u);

  // Snapshot additionally sacrifices the oldest surviving slot: a
  // writer may be mid-overwrite on it (the next emit reuses that slot)
  // before the new head is published, so the reader cannot trust it.
  std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 63u);
  size_t appends = 0;
  uint64_t min_append_arg = ~0ull;
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::kWalAppend) {
      ++appends;
      min_append_arg = std::min(min_append_arg, ev.arg);
    }
  }
  EXPECT_EQ(appends, 53u);
  EXPECT_EQ(min_append_arg, 11u);
}

TEST(TraceRingTest, CategoryMasking) {
  TraceOptions opts = SmallRing();
  opts.categories = kTraceCatWal;
  TraceRecorder rec(opts);
  EXPECT_TRUE(rec.enabled(kTraceCatWal));
  EXPECT_FALSE(rec.enabled(kTraceCatPool));
  rec.Emit(TraceEventType::kWalAppend, 1);
  rec.Emit(TraceEventType::kPoolMiss, 2);  // masked: not recorded
  EXPECT_EQ(rec.Snapshot().size(), 1u);
  EXPECT_EQ(rec.recorded(kTraceCatPool), 0u);

  rec.set_categories(kTraceCatAll);
  rec.Emit(TraceEventType::kPoolMiss, 3);
  EXPECT_EQ(rec.Snapshot().size(), 2u);

  rec.set_enabled(false);
  EXPECT_FALSE(rec.enabled(kTraceCatWal));
  rec.Emit(TraceEventType::kWalAppend, 4);
  EXPECT_EQ(rec.Snapshot().size(), 2u);

  // Re-enabling restores the configured mask.
  rec.set_enabled(true);
  EXPECT_TRUE(rec.enabled(kTraceCatPool));
}

TEST(TraceRingTest, AmbientQueryIdStampsEvents) {
  TraceRecorder rec(SmallRing());
  rec.Emit(TraceEventType::kWalAppend, 0);
  {
    TraceQueryScope scope(QueryTag{42});
    EXPECT_EQ(TraceRecorder::ThreadQueryId(), 42u);
    rec.Emit(TraceEventType::kPoolMiss, 0);
    {
      TraceQueryScope inner(QueryTag{43});
      rec.Emit(TraceEventType::kPoolEvict, 0);
    }
    EXPECT_EQ(TraceRecorder::ThreadQueryId(), 42u);
  }
  EXPECT_EQ(TraceRecorder::ThreadQueryId(), 0u);
  std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].query_id, 0u);
  EXPECT_EQ(events[1].query_id, 42u);
  EXPECT_EQ(events[2].query_id, 43u);
}

TEST(TraceRingTest, MultiThreadInterleaving) {
  // Each thread gets its own ring, so a big-enough ring drops nothing.
  TraceRecorder rec(SmallRing(4096));
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      TraceQueryScope scope(QueryTag{static_cast<uint64_t>(t) + 1});
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Emit(TraceEventType::kWalAppend, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(rec.recorded(kTraceCatWal), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped(kTraceCatWal), 0u);
  std::vector<TraceEvent> events = rec.Snapshot();
  EXPECT_EQ(events.size(), kThreads * kPerThread);
  // Timestamps are globally non-decreasing after the merge sort.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
}

TEST(TraceRingTest, ShortLivedThreadsReuseOrdinalsAndRings) {
  // A thread per query (the cursor's producer) must not leave a ring
  // behind per query: an exited thread's ordinal, and with it its ring,
  // goes to the next new thread.
  TraceRecorder rec(SmallRing(4096));
  constexpr uint64_t kThreads = 2000;
  for (uint64_t i = 0; i < kThreads; ++i) {
    std::thread([&rec, i] { rec.Emit(TraceEventType::kWalAppend, i); })
        .join();
  }
  std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), kThreads);
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_LE(tids.size(), 4u);
  EXPECT_EQ(rec.dropped(kTraceCatWal), 0u);
}

TEST(TraceRingTest, DumpWhileRecording) {
  // Writers hammer small rings (forcing wraparound) while the reader
  // dumps concurrently; under TSan this exercises the acquire/release
  // head protocol, and every dump must be a well-formed event list.
  TraceRecorder rec(SmallRing(64));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&rec, &stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        rec.Emit(TraceEventType::kWalAppend, i++);
        rec.Emit(TraceEventType::kPoolMiss, i);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::string json = rec.DumpJson();
    EXPECT_EQ(json.compare(0, 1, "{"), 0);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.compare(json.size() - 2, 2, "]}"), 0);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) th.join();
}

TEST(TraceRingTest, ByteStableDumpForFixedSequence) {
  // EmitAt pins timestamps and query ids, so the dump is a pure function
  // of the event sequence.
  auto build = [] {
    auto rec = std::make_unique<TraceRecorder>(SmallRing());
    rec->EmitAt(100, TraceEventType::kQueryBegin, 0, 7);
    rec->EmitAt(110, TraceEventType::kSpanBegin,
                static_cast<uint64_t>(TraceSpanId::kPlan), 7);
    rec->EmitAt(150, TraceEventType::kSpanEnd,
                static_cast<uint64_t>(TraceSpanId::kPlan), 7);
    rec->EmitAt(160, TraceEventType::kWalAppend, 512, 7);
    rec->EmitAt(200, TraceEventType::kQueryEnd, 3, 7);
    return rec;
  };
  auto a = build();
  auto b = build();
  std::string dump_a = a->DumpJson();
  EXPECT_EQ(dump_a, a->DumpJson());  // re-dump is stable
  EXPECT_EQ(dump_a, b->DumpJson());  // and a replay reproduces it
  EXPECT_NE(dump_a.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(dump_a.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(dump_a.find("\"name\":\"wal_append\""), std::string::npos);
  EXPECT_NE(dump_a.find("\"qid\":7"), std::string::npos);
}

TEST(TraceRingTest, DumpBalancesSpansAfterWrap) {
  // Fill the ring so span opens are overwritten while their closes
  // survive: the dump must drop the orphaned closes and synthetically
  // close dangling opens — B and E counts always match.
  TraceRecorder rec(SmallRing(64));
  rec.EmitAt(1, TraceEventType::kSpanBegin,
             static_cast<uint64_t>(TraceSpanId::kExecute), 1);
  for (uint64_t i = 0; i < 70; ++i) {  // overwrites the open above
    rec.EmitAt(10 + i, TraceEventType::kWalAppend, i, 1);
  }
  rec.EmitAt(100, TraceEventType::kSpanEnd,
             static_cast<uint64_t>(TraceSpanId::kExecute), 1);  // orphaned
  rec.EmitAt(110, TraceEventType::kSpanBegin,
             static_cast<uint64_t>(TraceSpanId::kSort), 1);  // dangling
  std::string json = rec.DumpJson();
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  // The orphaned execute close is gone entirely...
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"execute\""), 0u);
  // ...and the dangling sort open was closed synthetically.
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"sort\""), 2u);
}

TEST(TraceRingTest, DisabledRecorderIsSilent) {
  TraceOptions opts = SmallRing();
  opts.enabled = false;
  TraceRecorder rec(opts);
  rec.Emit(TraceEventType::kWalAppend, 1);
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.recorded(kTraceCatWal), 0u);
}

}  // namespace
}  // namespace tcob
