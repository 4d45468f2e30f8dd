// CancellationToken: the deadline/cancellation spine threaded from the
// serving layer down to the consolidation loops (DESIGN.md choice 13). One
// token accompanies one query: the session arms it with the request's
// deadline (capped by the server-wide default) and a watcher thread flips
// the cancel flag when the client sends a CANCEL frame or disconnects; the
// engines poll it at chunk boundaries, so an abandoned query stops within
// one chunk's work and returns a typed Status — never a torn result or a
// leaked worker (the array executor joins every worker on the first non-OK
// status).
//
// Thread contract: set_deadline/SetDeadlineAfterMs are called before the
// token is shared (the deadline is immutable once visible to other
// threads); RequestCancel and all the readers are safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace paradise {

class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms the deadline. Must happen before the token is shared across
  /// threads; the deadline never changes afterwards.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetDeadlineAfterMs(uint64_t ms) {
    set_deadline(Clock::now() + std::chrono::milliseconds(ms));
  }

  /// Flips the cancel flag. Idempotent; safe from any thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  bool expired() const { return has_deadline_ && Clock::now() >= deadline_; }

  /// True once the work should stop for either reason. Cheap enough to call
  /// per chunk: one relaxed load plus (with a deadline) one clock read.
  bool ShouldStop() const { return cancel_requested() || expired(); }

  /// OK while the work may continue; otherwise the typed Status the query
  /// must surface. An explicit cancel wins over a deadline that also
  /// expired — the client asked for exactly this outcome.
  Status Check() const {
    if (cancel_requested()) {
      return Status::Cancelled("query cancelled");
    }
    if (expired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

}  // namespace paradise
