#include "common/stopwatch.h"

#include <algorithm>

namespace paradise {

int64_t PhaseTimer::Micros(std::string_view phase) const {
  int64_t total = 0;
  for (const PhaseSpan& span : spans_) {
    if (span.name == phase) total += span.duration_micros;
  }
  return total;
}

std::map<std::string, int64_t> PhaseTimer::phases() const {
  std::map<std::string, int64_t> totals;
  for (const PhaseSpan& span : spans_) {
    totals[span.name] += span.duration_micros;
  }
  return totals;
}

int64_t PhaseTimer::EndMicros() const {
  int64_t end = 0;
  for (const PhaseSpan& span : spans_) {
    end = std::max(end, span.start_micros + span.duration_micros);
  }
  return end;
}

}  // namespace paradise
