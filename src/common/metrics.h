#ifndef TCOB_COMMON_METRICS_H_
#define TCOB_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tcob {

/// The storage work of one query: one relaxed atomic per storage read
/// counter (4 store, 3 cold-tier, 5 buffer-pool). A Counter tagged with
/// a slot bumps it here whenever the bumping thread works for the query,
/// so overlapping queries each see their own work and nothing else.
class QueryWork {
 public:
  enum Slot : uint8_t {
    kStoreGetAsOf, kStoreGetVersions, kStoreScanAsOf, kStoreScanVersions,
    kColdSegmentsPruned, kColdSegmentsScanned, kColdVersions,
    kPoolFetches, kPoolHits, kPoolMisses, kPoolEvictions, kPoolDirtyWritebacks,
    kSlotCount,
    kNoSlot = kSlotCount,  // an untagged Counter
  };

  void Add(Slot s, uint64_t n) {
    counts_[s].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t operator[](Slot s) const {
    return counts_[s].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> counts_[kSlotCount] = {};
};

/// The query a thread works for: its id (stamped into flight-recorder
/// events) and its work block (null = work is counted globally only).
struct QueryTag {
  uint64_t id = 0;
  QueryWork* work = nullptr;
};

/// The calling thread's query tag, set and restored by TraceQueryScope
/// (common/trace_ring.h) on every thread that works for a query.
inline QueryTag& ThreadQueryTag() {
  thread_local QueryTag tag;
  return tag;
}

/// Monotonic event counter. Updates are lock-free relaxed atomics:
/// concurrent writers never lose an increment, so totals are exact (the
/// fan-out workers all bump the same store/pool counters). A counter
/// tagged with a QueryWork slot also bumps that slot of the calling
/// thread's query, if any.
///
/// Non-copyable on purpose — a Counter is an identity (one named series
/// in a MetricsRegistry), not a value. Snapshots copy `value()`.
class Counter {
 public:
  Counter() = default;
  explicit Counter(QueryWork::Slot slot) : slot_(slot) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    v_.fetch_add(n, std::memory_order_relaxed);
    if (slot_ != QueryWork::kNoSlot) {
      if (QueryWork* work = ThreadQueryTag().work) work->Add(slot_, n);
    }
  }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  /// Benchmarks meter individual phases against const components, so
  /// resetting is permitted on const counters (bookkeeping, not state).
  void Reset() const { v_.store(0, std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> v_{0};
  const QueryWork::Slot slot_ = QueryWork::kNoSlot;
};

/// Last-write-wins instantaneous value (queue depths, watermarks).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time copy of one histogram (cumulative "le" semantics live
/// in `bounds`/`counts` pairs; the final slot of `counts` is +inf).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;  // inclusive upper bounds, one per bucket
  std::vector<uint64_t> counts;  // bounds.size() + 1 entries (last = +inf)
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const { return count ? static_cast<double>(sum) / count : 0.0; }

  /// Estimated `q`-quantile (q in [0, 1]) by linear interpolation within
  /// the bucket holding the target rank — the usual Prometheus
  /// histogram_quantile estimate, so it is only as sharp as the bucket
  /// bounds. Observations in the +inf bucket clamp to the last finite
  /// bound. 0 when the histogram is empty.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram with lock-free recording. A value v lands in
/// the first bucket whose bound satisfies v <= bound (Prometheus "le"
/// semantics); values above every bound land in the implicit +inf
/// bucket. Bounds are fixed at construction, so Observe is a linear (or
/// binary) probe plus two relaxed fetch_adds — no allocation, no lock.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<uint64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// 1us .. 10s in a 1-2-5 progression — the default for query and I/O
  /// latencies recorded in microseconds.
  static std::vector<uint64_t> LatencyBucketsUs();

  void Observe(uint64_t v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  size_t bucket_count() const { return bounds_.size() + 1; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of every registered metric, with text (Prometheus
/// exposition style) and JSON renderings.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  uint64_t CounterOr(const std::string& name, uint64_t fallback = 0) const {
    auto it = counters.find(name);
    return it != counters.end() ? it->second : fallback;
  }
  int64_t GaugeOr(const std::string& name, int64_t fallback = 0) const {
    auto it = gauges.find(name);
    return it != gauges.end() ? it->second : fallback;
  }

  /// Prometheus-style exposition text: "# TYPE name kind" comments,
  /// histogram buckets as name_bucket{le="..."} rows.
  std::string ToText() const;
  std::string ToJson() const;
};

/// Central name -> metric directory of one database instance.
///
/// Components own their Counters/Gauges/Histograms and keep updating
/// them lock-free; the registry holds non-owning pointers (registrants
/// must outlive it — the Database owns both sides, destroyed together).
/// The mutex guards only registration and snapshotting, never the hot
/// update path. Value-producing callbacks cover derived metrics (file
/// sizes, capacities) that have no stored counter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void RegisterCounter(const std::string& name, const Counter* c);
  void RegisterCounterFn(const std::string& name,
                         std::function<uint64_t()> fn);
  void RegisterGauge(const std::string& name, const Gauge* g);
  void RegisterGaugeFn(const std::string& name, std::function<int64_t()> fn);
  void RegisterHistogram(const std::string& name, const Histogram* h);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, const Counter*> counters_;
  std::map<std::string, std::function<uint64_t()>> counter_fns_;
  std::map<std::string, const Gauge*> gauges_;
  std::map<std::string, std::function<int64_t()>> gauge_fns_;
  std::map<std::string, const Histogram*> histograms_;
};

/// Wall-clock stopwatch for trace spans (steady clock, microseconds).
class StopwatchUs {
 public:
  StopwatchUs() : start_(std::chrono::steady_clock::now()) {}

  double ElapsedUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s);

}  // namespace tcob

#endif  // TCOB_COMMON_METRICS_H_
