#ifndef TCOB_COMMON_CANCELLATION_H_
#define TCOB_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace tcob {

/// Per-query cancellation scope: an optional wall-clock deadline plus an
/// atomic cancel token, shared (via shared_ptr) by everyone driving one
/// query — the executor's emit loop, the materializer's fan-out workers,
/// the version cache's pin path and the streaming cursor.
///
/// Cancellation is cooperative: nothing is interrupted mid-operation.
/// Workers call Check() at batch boundaries (per molecule, per pinned
/// atom, every few dozen scan callbacks) and unwind with a clean
/// Status::Cancelled / Status::DeadlineExceeded, so a query aborts in
/// bounded time while every frame, pin and producer thread is released
/// through the normal error path.
///
/// Check() is cheap enough for hot loops: one relaxed atomic load, plus
/// one steady_clock read only when a deadline is armed.
class QueryContext {
 public:
  QueryContext() = default;

  /// A context with no deadline (cancel-only).
  static std::shared_ptr<QueryContext> Create() {
    return std::make_shared<QueryContext>();
  }

  /// A context whose Check() starts failing `timeout_micros` from now.
  /// 0 means no deadline.
  static std::shared_ptr<QueryContext> WithDeadline(uint64_t timeout_micros) {
    auto ctx = std::make_shared<QueryContext>();
    if (timeout_micros > 0) ctx->ArmDeadline(timeout_micros);
    return ctx;
  }

  /// Arms (or re-arms) the deadline at now + `timeout_micros`.
  void ArmDeadline(uint64_t timeout_micros) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(timeout_micros);
    timeout_micros_ = timeout_micros;
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Requests cancellation; safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }

  /// The armed deadline (meaningful only when has_deadline()).
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// True once the armed deadline has passed.
  bool deadline_expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline_;
  }

  /// OK while the query may keep running. Cancelled takes precedence
  /// over DeadlineExceeded (an explicit stop beats a timer).
  Status Check() const {
    if (cancelled_.load(std::memory_order_acquire)) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline_.load(std::memory_order_acquire)) {
      // Stride the clock: a vDSO clock_gettime per poll point would
      // dominate sub-100µs queries that merely have a deadline armed.
      // Sampling every 16th poll bounds the extra overshoot at 16
      // units of work — negligible against the µs-scale poll spacing —
      // and the counter is per-thread so fan-out workers don't bounce
      // a shared cache line.
      thread_local uint32_t poll_stride = 0;
      if ((++poll_stride & 15u) == 0 &&
          std::chrono::steady_clock::now() >= deadline_) {
        return DeadlineStatus();
      }
    }
    return Status::OK();
  }

 private:
  /// Builds the (allocating) DeadlineExceeded status off the hot path.
  Status DeadlineStatus() const;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
  uint64_t timeout_micros_ = 0;
};

}  // namespace tcob

#endif  // TCOB_COMMON_CANCELLATION_H_
