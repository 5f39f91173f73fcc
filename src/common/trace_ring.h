#ifndef TCOB_COMMON_TRACE_RING_H_
#define TCOB_COMMON_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_events.h"

namespace tcob {

/// Flight-recorder configuration (DatabaseOptions::trace).
struct TraceOptions {
  /// Record events. Cheap enough to leave on (one relaxed load when the
  /// category is masked; four relaxed stores when it records).
  bool enabled = true;
  /// Ring capacity per recording thread, in bytes (32 bytes per event).
  /// The ring overwrites its oldest event when full — recording never
  /// blocks and never allocates past the ring itself.
  uint64_t ring_bytes = 128 * 1024;
  /// Bitmask of kTraceCat* bits to record.
  uint32_t categories = kTraceCatAll;
  /// Write an automatic dump next to the database (or into dump_dir)
  /// when the instance degrades to read-only or failed.
  bool dump_on_failure = true;
  /// Directory for automatic failure dumps; empty = the database dir.
  std::string dump_dir;
};

/// One decoded flight-recorder event (the Snapshot() view).
struct TraceEvent {
  uint64_t ts_us = 0;
  uint32_t tid = 0;
  TraceEventType type = TraceEventType::kQueryBegin;
  uint64_t query_id = 0;
  uint64_t arg = 0;
};

/// Always-on flight recorder: a lock-free ring of typed events per
/// recording thread.
///
/// Writers never block and never wait for readers: each thread owns a
/// single-writer ring of fixed 32-byte slots (4 atomic words) and
/// overwrites its oldest event when full, counting the drop per
/// category. The hot path is one relaxed mask load when the category is
/// off, and four relaxed stores plus one release store (publishing the
/// slot) when it records — cheap enough to leave enabled in production.
///
/// Readers (DumpJson, Snapshot) run concurrently with writers: they
/// acquire-load a ring's head, copy the window of published slots, then
/// re-read the head and discard any slot the writer may have lapped in
/// the meantime. The result is a consistent suffix of each thread's
/// events with no locks on the writer side (TSan-clean: every shared
/// word is atomic).
///
/// Timestamps are steady-clock microseconds; thread ids are small
/// process-wide ordinals (stable for the life of the thread, recycled
/// after it exits together with its rings, so short-lived threads do not
/// grow the ring set); the query id is ambient per thread
/// (TraceQueryScope), so deep subsystems (pool, WAL) attribute their
/// events without plumbing.
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceOptions& options);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// True when events of `cat_bits` (any bit) would be recorded now.
  bool enabled(uint32_t cat_bits) const {
    return (live_mask_.load(std::memory_order_relaxed) & cat_bits) != 0;
  }

  /// Records one event, stamped with now / this thread / the ambient
  /// query id. A no-op (one relaxed load) when the type's category is
  /// masked or the recorder is off.
  void Emit(TraceEventType type, uint64_t arg = 0);

  /// Emit with an explicit timestamp and query id — the deterministic
  /// hook for byte-stable dump tests. Same masking as Emit.
  void EmitAt(uint64_t ts_us, TraceEventType type, uint64_t arg = 0,
              uint64_t query_id = 0);

  /// Master switch; categories() is preserved across off/on.
  void set_enabled(bool on);
  bool is_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Replaces the category mask (effective immediately when enabled).
  void set_categories(uint32_t mask);
  uint32_t categories() const {
    return configured_mask_.load(std::memory_order_relaxed);
  }

  /// Consistent-suffix copy of every thread's ring, merged and sorted
  /// by timestamp (ties keep per-thread program order).
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome/Perfetto trace_event JSON of Snapshot(): spans as B/E
  /// pairs, instants as "i", one pid, the recording threads as tids.
  /// Orphaned span closes (their open was overwritten) are dropped and
  /// dangling opens are closed at the last timestamp, so every dump has
  /// strictly balanced spans. Deterministic given the event sequence.
  std::string DumpJson() const;

  /// Best-effort DumpJson() to `path` via stdio (deliberately not the
  /// database's IoEnv: failure dumps run exactly when that environment
  /// is refusing writes). False when the file cannot be written.
  bool DumpToFile(const std::string& path) const;

  uint64_t recorded(uint32_t cat_bit) const {
    return recorded_[TraceCategoryIndex(cat_bit)].value();
  }
  uint64_t dropped(uint32_t cat_bit) const {
    return dropped_[TraceCategoryIndex(cat_bit)].value();
  }

  /// Publishes per-category recorded/dropped counters under
  /// tcob_trace_<category>_{recorded,dropped}_total.
  void RegisterMetrics(MetricsRegistry* registry) const;

  /// The ambient query id of the calling thread (0 = none).
  static uint64_t ThreadQueryId() { return ThreadQueryTag().id; }

 private:
  struct Ring;

  /// The calling thread's ring (created and registered on first use, or
  /// inherited from an exited thread with the same ordinal); null once
  /// the thread is exiting.
  Ring* RingForThisThread();

  void Record(uint64_t ts_us, TraceEventType type, uint64_t arg,
              uint64_t query_id);

  /// Process-unique recorder id: thread-local ring caches key on it, so
  /// a stale cache entry from a destroyed recorder can never be
  /// mistaken for this one.
  const uint64_t id_;
  std::atomic<bool> enabled_;
  std::atomic<uint32_t> configured_mask_;
  /// configured_mask_ when enabled, 0 when disabled — the single word
  /// the Emit fast path loads.
  std::atomic<uint32_t> live_mask_;
  const size_t ring_capacity_;  // events per ring

  /// Guards rings_ (registration and snapshot), never the Emit path.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;

  Counter recorded_[kTraceCategoryCount];
  Counter dropped_[kTraceCategoryCount];
};

/// Emits iff a recorder is attached (instrumented components hold a
/// possibly-null TraceRecorder*).
inline void TraceEmit(TraceRecorder* r, TraceEventType type,
                      uint64_t arg = 0) {
  if (r != nullptr) r->Emit(type, arg);
}

/// RAII ambient query tag: set on every thread that does work for one
/// query (the statement thread, the streaming producer, each fan-out
/// worker) so events emitted anywhere below carry the query's id and
/// the storage counters bumped anywhere below also count in its
/// QueryWork block.
class TraceQueryScope {
 public:
  explicit TraceQueryScope(QueryTag tag) : prev_(ThreadQueryTag()) {
    ThreadQueryTag() = tag;
  }
  ~TraceQueryScope() { ThreadQueryTag() = prev_; }

  TraceQueryScope(const TraceQueryScope&) = delete;
  TraceQueryScope& operator=(const TraceQueryScope&) = delete;

 private:
  QueryTag prev_;
};

/// RAII begin/end pair (operator spans, checkpoint phases, ...).
class TraceScope {
 public:
  TraceScope(TraceRecorder* r, TraceEventType begin, TraceEventType end,
             uint64_t arg = 0)
      : r_(r), end_(end), arg_(arg) {
    TraceEmit(r_, begin, arg_);
  }
  ~TraceScope() { TraceEmit(r_, end_, arg_); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* r_;
  TraceEventType end_;
  uint64_t arg_;
};

/// RAII executor/worker operator span. When `add_us` is given, the
/// span's wall time is also added to it on close (the QueryStats span
/// fields), so one scope feeds both the recorder and EXPLAIN ANALYZE.
class TraceSpanScope : public TraceScope {
 public:
  TraceSpanScope(TraceRecorder* r, TraceSpanId span, double* add_us = nullptr)
      : TraceScope(r, TraceEventType::kSpanBegin, TraceEventType::kSpanEnd,
                   static_cast<uint64_t>(span)),
        add_us_(add_us) {}
  ~TraceSpanScope() {
    if (add_us_ != nullptr) *add_us_ += timer_.ElapsedUs();
  }

 private:
  double* add_us_;
  StopwatchUs timer_;
};

}  // namespace tcob

#endif  // TCOB_COMMON_TRACE_RING_H_
