// Wall-clock timing helpers for the benchmark harness and the per-phase
// breakdowns the paper reports (§5.5.1 separates scan and aggregation cost).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace paradise {

/// Simple monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts timing from now.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Reset, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) * 1e-6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// One timed scope of a query. `parent` indexes the enclosing span in the
/// same PhaseTimer (-1 at top level); times are microseconds since the
/// timer's construction.
struct PhaseSpan {
  std::string name;
  int32_t parent = -1;
  int64_t start_micros = 0;
  int64_t duration_micros = 0;
};

/// A query's only timing record: the spans its ScopedPhases opened, in
/// opening order (so a span's children follow it). The flat per-phase totals
/// the paper's §5.5.1 scan/aggregate split reads are sums over same-named
/// spans; the nesting is the query's trace tree (ExecutionStats::ToJson).
/// Single-threaded: spans are opened and closed only on the thread running
/// the query — parallel workers record nothing here.
class PhaseTimer {
 public:
  PhaseTimer() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  size_t Open(std::string name) {
    spans_.push_back(PhaseSpan{std::move(name), open_, NowMicros(), 0});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes span `id`, which must be the innermost open one.
  void Close(size_t id) {
    PhaseSpan& span = spans_[id];
    span.duration_micros = NowMicros() - span.start_micros;
    open_ = span.parent;
  }

  const std::vector<PhaseSpan>& spans() const { return spans_; }

  /// Total microseconds of the spans named `phase` (0 if none).
  int64_t Micros(std::string_view phase) const;

  double Seconds(std::string_view phase) const {
    return static_cast<double>(Micros(phase)) * 1e-6;
  }

  /// Per-phase totals: each span name with the summed duration of its spans.
  std::map<std::string, int64_t> phases() const;

  /// When the last span closed, in microseconds since construction.
  int64_t EndMicros() const;

 private:
  using Clock = std::chrono::steady_clock;

  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<PhaseSpan> spans_;
  int32_t open_ = -1;  // innermost open span
};

/// RAII guard timing its scope as one span of a PhaseTimer; a null timer
/// makes it a no-op.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimer* timer, std::string_view phase) : timer_(timer) {
    if (timer_ != nullptr) id_ = timer_->Open(std::string(phase));
  }
  ~ScopedPhase() {
    if (timer_ != nullptr) timer_->Close(id_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* timer_;
  size_t id_ = 0;
};

}  // namespace paradise
