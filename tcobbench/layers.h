// Instrumentation the traced run wraps around calls into the engine's
// layers: in-memory spans, a timing decorator over the temporal store,
// and per-operation deltas of the engine's own counters.
#ifndef TCOBBENCH_LAYERS_H_
#define TCOBBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "tstore/temporal_store.h"

namespace tcobbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One closed span: a layer call made by one client during one operation.
struct Span {
  const char* name;
  uint32_t client;
  uint64_t op;
  int32_t parent;  // index into the same log, -1 for a root span
  int64_t start_ns;
  int64_t end_ns;
  double us() const { return (end_ns - start_ns) / 1e3; }
};

/// Spans of one client thread, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint32_t client) : client_(client) {}
  void set_op(uint64_t op) { op_ = op; }
  size_t Open(const char* name);
  /// Closes span `i` and returns its duration in microseconds.
  double Close(size_t i);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t client_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->Open(name) : 0) {}
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Closes the span early; returns its duration (0 when untraced).
  double Finish() {
    if (log_ == nullptr) return 0;
    double us = log_->Close(index_);
    log_ = nullptr;
    return us;
  }

 private:
  SpanLog* log_;
  size_t index_;
};

/// Writes every span as a Chrome/Perfetto trace_event JSON file.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Decorator over the engine's temporal store that times every read call
/// (time spent in a scan's callback is subtracted, so the total is the
/// store's own time) and records a span per GetAsOf/GetVersions call into
/// `log`. Reads forward through the public counting wrappers of the
/// wrapped store, so the engine's access counters stay exact. Not for
/// concurrent use: `log` belongs to one client thread.
class TimedStore : public tcob::TemporalAtomStore {
 public:
  TimedStore(tcob::TemporalAtomStore* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  /// Store time accumulated since the previous call.
  double TakeUs() { return ns_.exchange(0) / 1e3; }

  tcob::StorageStrategy strategy() const override {
    return inner_->strategy();
  }
  tcob::Status Insert(const tcob::AtomTypeDef& type, tcob::AtomId id,
                      std::vector<tcob::Value> attrs,
                      tcob::Timestamp from) override {
    return inner_->Insert(type, id, std::move(attrs), from);
  }
  tcob::Status Update(const tcob::AtomTypeDef& type, tcob::AtomId id,
                      std::vector<tcob::Value> attrs,
                      tcob::Timestamp from) override {
    return inner_->Update(type, id, std::move(attrs), from);
  }
  tcob::Status Delete(const tcob::AtomTypeDef& type, tcob::AtomId id,
                      tcob::Timestamp from) override {
    return inner_->Delete(type, id, from);
  }
  tcob::Result<tcob::StoreSpaceStats> SpaceStats() const override {
    return inner_->SpaceStats();
  }
  tcob::Status Flush() override { return inner_->Flush(); }
  tcob::Result<uint64_t> VacuumBefore(const tcob::AtomTypeDef& type,
                                      tcob::Timestamp cutoff) override {
    return inner_->VacuumBefore(type, cutoff);
  }
  tcob::Result<uint64_t> ReleaseMigrated(const tcob::AtomTypeDef& type,
                                         tcob::Timestamp cutoff) override {
    return inner_->ReleaseMigrated(type, cutoff);
  }

 protected:
  tcob::Result<std::optional<tcob::AtomVersion>> DoGetAsOf(
      const tcob::AtomTypeDef& type, tcob::AtomId id,
      tcob::Timestamp t) const override;
  tcob::Result<std::vector<tcob::AtomVersion>> DoGetVersions(
      const tcob::AtomTypeDef& type, tcob::AtomId id,
      const tcob::Interval& window) const override;
  tcob::Status DoScanAsOf(const tcob::AtomTypeDef& type, tcob::Timestamp t,
                          const VersionCallback& fn) const override;
  tcob::Status DoScanVersions(const tcob::AtomTypeDef& type,
                              const tcob::Interval& window,
                              const VersionCallback& fn) const override;

 private:
  /// Wraps a scan callback so its own time is excluded from the store's.
  VersionCallback Excluding(const VersionCallback& fn,
                            int64_t* callback_ns) const;

  tcob::TemporalAtomStore* inner_;
  SpanLog* log_;
  mutable std::atomic<int64_t> ns_{0};
};

/// The engine counters the benchmark attributes per operation, read from
/// Database::MetricsSnapshot().
struct Counters {
  uint64_t store_accesses = 0;
  uint64_t pool_fetches = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t group_commits = 0;
  uint64_t group_commit_members = 0;
  uint64_t vcache_hits = 0;
  uint64_t vcache_probes = 0;
  uint64_t versions_pinned = 0;
  uint64_t txn_conflicts = 0;

  static Counters Of(const tcob::Database& db);
  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};

}  // namespace tcobbench

#endif  // TCOBBENCH_LAYERS_H_
