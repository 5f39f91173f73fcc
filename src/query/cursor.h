#ifndef TCOB_QUERY_CURSOR_H_
#define TCOB_QUERY_CURSOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancellation.h"
#include "common/resource_budget.h"
#include "common/result.h"
#include "query/executor.h"
#include "query/result_set.h"

namespace tcob {

/// Pull-based stream over one statement's result rows.
///
/// Obtained from Database::Query (which is "Open"); the caller pulls
/// rows with Next/NextBatch and releases the stream with Close. SELECT
/// rows are produced while the caller consumes and arrive in exactly the
/// order Database::Execute returns them. Without aggregates or ORDER BY,
/// first-row latency and buffered memory are independent of the result
/// size.
///
/// Lifecycle rules (single-threaded per Database, like every other
/// call): drain or Close the cursor before executing the next statement
/// on its Database, and never let it outlive the Database. Close is
/// idempotent and implied by destruction; closing mid-stream is the
/// supported way to abandon a large result early.
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Result column names; valid from open (before any row is pulled).
  virtual const std::vector<std::string>& columns() const = 0;

  /// Pulls the next row into `*row`. ok(true) = row filled, ok(false) =
  /// end of stream. A stream error is sticky: every pull after it
  /// returns the same status.
  virtual Result<bool> Next(std::vector<Value>* row) = 0;

  /// Pulls up to `max_rows` rows (clearing `*rows` first); returns how
  /// many arrived. Fewer than `max_rows` — including 0 — means the
  /// stream ended.
  virtual Result<size_t> NextBatch(size_t max_rows,
                                   std::vector<std::vector<Value>>* rows);

  /// Releases the stream (stopping production if still running).
  /// Idempotent; also run by the destructor.
  virtual void Close() = 0;

  /// Requests cancellation of the query behind this cursor. Unlike every
  /// other cursor call, Cancel is safe from any thread — it is how a
  /// second thread aborts a pull loop in progress: the next Next/
  /// NextBatch returns Status::Cancelled in bounded time. A no-op for
  /// cursors over already-materialized results.
  virtual void Cancel() {}

  /// Non-row payload (DML outcome, the index-path note).
  virtual const std::string& message() const = 0;
};

/// Cursor over an already-finished ResultSet: the results of non-SELECT
/// statements (DML/DDL messages, EXPLAIN tables). SELECTs always stream.
class MaterializedCursor : public Cursor {
 public:
  explicit MaterializedCursor(ResultSet result)
      : result_(std::move(result)) {}

  const std::vector<std::string>& columns() const override {
    return result_.columns;
  }
  const std::string& message() const override { return result_.message; }
  Result<bool> Next(std::vector<Value>* row) override;
  void Close() override;

 private:
  ResultSet result_;
  size_t next_ = 0;
};

/// Counters a streaming cursor reports when it finishes.
struct StreamingCursorStats {
  /// Rows handed to the consumer.
  uint64_t rows_streamed = 0;
  /// High-water mark of rows buffered in the queue — the engine-level
  /// proof that streaming memory stays flat in the result size.
  uint64_t peak_buffered_rows = 0;
};

/// Cursor fed by a dedicated producer thread.
///
/// The producer runs the streaming executor, pushing row batches into a
/// bounded queue whose backpressure keeps it at most `queue_capacity_
/// rows` ahead of the consumer. A dedicated thread — never a pool worker
/// — because the executor may itself fan out onto the pool: a producer
/// occupying a pool slot could starve its own fan-out tasks (with a
/// one-worker pool it would deadlock outright).
class StreamingCursor : public Cursor {
 public:
  struct Options {
    /// Backpressure bound: the queue never holds more rows than this
    /// (one oversized batch excepted).
    size_t queue_capacity_rows = 1024;
    /// Rows per queue item; amortizes queue synchronization.
    size_t batch_rows = 64;
    /// The query's cancellation scope; Cancel() forwards into it so the
    /// producer's executor unwinds too. May be null.
    std::shared_ptr<QueryContext> context;
    /// Memory lease to charge buffered batches against (must outlive the
    /// cursor). May be null.
    BudgetLease* lease = nullptr;
  };

  /// Runs the query, pushing every result row into the sink; returning
  /// after the sink declines a row is a clean stop, not an error.
  using ProducerFn = std::function<Status(RowSink*)>;
  /// Runs exactly once, after the producer thread has been joined (at
  /// end-of-stream, on a stream error, or at Close) — the hook where the
  /// Database stamps the query trace and metrics.
  using FinalizeFn =
      std::function<void(const Status&, const StreamingCursorStats&)>;

  /// Starts the producer thread. `on_first_row` (may be null) fires when
  /// the first row is handed to the consumer — the first-row latency
  /// probe.
  StreamingCursor(std::vector<std::string> columns, std::string message,
                  ProducerFn producer, FinalizeFn finalize,
                  std::function<void()> on_first_row, Options options);
  /// Same, with default Options (an overload rather than a default
  /// argument: a nested struct's member initializers are not usable in a
  /// default argument inside the enclosing class).
  StreamingCursor(std::vector<std::string> columns, std::string message,
                  ProducerFn producer, FinalizeFn finalize,
                  std::function<void()> on_first_row);
  ~StreamingCursor() override;

  const std::vector<std::string>& columns() const override {
    return columns_;
  }
  const std::string& message() const override { return message_; }
  Result<bool> Next(std::vector<Value>* row) override;
  void Close() override;
  /// Thread-safe: cancels the context (unwinding the producer at its
  /// next batch boundary) and closes the consumer side of the queue
  /// (unblocking a producer stalled on backpressure). The next pull
  /// returns Status::Cancelled.
  void Cancel() override;

 private:
  class QueueSink;
  using RowBatch = std::vector<std::vector<Value>>;
  /// One queue entry: a row batch plus its budget accounting, carried
  /// alongside so the consumer can release exactly what the producer
  /// charged (the queue is FIFO, so they pair up naturally).
  struct QueueItem {
    RowBatch rows;
    uint64_t bytes = 0;
    bool charged = false;
  };

  /// Joins the producer and runs the finalize hook (once).
  void Finish();
  /// Returns the served buffer's bytes to the lease.
  void ReleaseBuffer();

  const std::vector<std::string> columns_;
  const std::string message_;
  const Options options_;
  BoundedQueue<QueueItem> queue_;
  std::thread producer_thread_;
  FinalizeFn finalize_;
  std::function<void()> on_first_row_;

  RowBatch buffer_;  // popped batch currently being served
  uint64_t buffer_bytes_ = 0;
  bool buffer_charged_ = false;
  size_t buffer_next_ = 0;
  uint64_t rows_delivered_ = 0;
  bool saw_first_row_ = false;
  bool end_ = false;       // no more rows will be served
  bool closed_ = false;    // Close() ran
  bool finalized_ = false;
  std::atomic<bool> cancelled_{false};
  Status final_status_ = Status::OK();  // sticky stream error
};

}  // namespace tcob

#endif  // TCOB_QUERY_CURSOR_H_
