#ifndef TCOB_WAL_WAL_H_
#define TCOB_WAL_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/result.h"
#include "common/trace_ring.h"
#include "common/slice.h"
#include "storage/io_env.h"

namespace tcob {

/// What a full ReadAll scan observed; surfaced as recovery stats so a
/// crash artifact (torn or corrupt tail) is reported, never silently
/// swallowed.
struct WalReadStats {
  uint64_t records = 0;            // intact records delivered to fn
  uint64_t bytes_replayed = 0;     // bytes of intact frames
  uint64_t dropped_tail_bytes = 0; // bytes discarded after the last
                                   // intact frame (0 on a clean log)
  bool tail_was_corrupt = false;   // dropped tail failed its CRC (vs.
                                   // merely being cut short)
};

/// Append-only write-ahead log with checksummed framing.
///
/// Frame layout: [len:4][crc32:4][payload bytes]. Readers stop cleanly at
/// the first torn or corrupt frame (a crash mid-append loses only the
/// unfinished tail). Payload interpretation is the caller's business
/// (TCOB stores encoded WalOps).
///
/// Thread-safe: every file-touching method takes an internal mutex. The
/// Database is the only writer: its writer queue appends one group of
/// commits and issues that group's one Sync under its writer mutex, so
/// concurrent committers share an fsync without the log coordinating
/// them (see Database::Write).
///
/// Fail-stop: the first failed Append, Sync, or Truncate poisons the log
/// — all later mutations return the original error without touching the
/// file. An fsync failure means the kernel may have dropped dirty pages
/// we can never re-sync, so retrying would silently un-durable committed
/// data; the owning Database escalates the poison to read-only mode.
class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path`, doing I/O via `env`.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     IoEnv* env);
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path) {
    return Open(path, IoEnv::Default());
  }

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one framed record (buffered in the OS; call Sync for
  /// durability).
  Status Append(const Slice& payload);

  /// Durably persists all appended records with an unconditional fsync.
  Status Sync();

  /// Replays every intact record from the beginning, in order.
  /// fn returns false to stop early. A torn tail terminates the scan
  /// and is reported through `stats` (which may be null).
  Status ReadAll(const std::function<Result<bool>(const Slice&)>& fn,
                 WalReadStats* stats = nullptr) const;

  /// Discards all content (after a checkpoint made it redundant) and
  /// syncs the truncation.
  Status Truncate();

  /// Bytes currently in the log.
  Result<uint64_t> SizeBytes() const;

  /// Number of Append calls since open.
  uint64_t appended_records() const { return appended_.value(); }

  /// Number of completed fsyncs since open.
  uint64_t syncs() const { return syncs_.value(); }

  /// OK while the log is healthy; the poisoning error afterwards.
  /// Thread-compatible: call from the Database's writer path or when no
  /// committer is in flight.
  const Status& health() const { return health_; }

  /// Attaches the flight recorder (append/fsync events).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Publishes the log counters into `registry` under tcob_wal_*.
  void RegisterMetrics(MetricsRegistry* registry) const {
    registry->RegisterCounter("tcob_wal_appends_total", &appended_);
    registry->RegisterCounter("tcob_wal_appended_bytes_total",
                              &appended_bytes_);
    registry->RegisterCounter("tcob_wal_syncs_total", &syncs_);
    registry->RegisterCounter("tcob_wal_truncates_total", &truncates_);
    registry->RegisterCounterFn("tcob_wal_size_bytes", [this]() {
      auto r = SizeBytes();
      return r.ok() ? r.value() : 0;
    });
  }

 private:
  explicit WriteAheadLog(std::string path) : path_(std::move(path)) {}

  /// File state (and the poison flag), shared by the appender, recovery
  /// reads, truncation and the metrics' size probe.
  mutable std::mutex mu_;
  std::string path_;
  std::unique_ptr<IoFile> file_;
  uint64_t write_pos_ = 0;

  Counter appended_;
  Counter appended_bytes_;
  Counter syncs_;
  Counter truncates_;
  Status health_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace tcob

#endif  // TCOB_WAL_WAL_H_
