// Span recording, self-time arithmetic and the percentile rule of the
// end-to-end benchmark.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (nothing inside src/ is instrumented). One
// SpanLog belongs to one thread at a time; logs are merged after the run.

#ifndef SIGHT_PERFBENCH_TRACE_H_
#define SIGHT_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call. `name` must be a string literal (spans keep the
/// pointer). `parent` indexes the enclosing span in the same log, -1 for
/// a root. A request is one owner assessment: (owner, tick).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint32_t owner = 0;
  uint32_t tick = 0;
};

/// Counters recorded at the same boundaries as the spans.
using Counters = std::map<std::string, double>;

class SpanLog {
 public:
  /// Sets the request id stamped on spans opened from now on.
  void SetRequest(uint32_t owner, uint32_t tick) {
    owner_ = owner;
    tick_ = tick;
  }

  /// Opens a span nested in the innermost open one; returns its index.
  int Open(const char* name);
  void Close(int index);

  void Count(const std::string& name, double value) {
    counters_[name] += value;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Counters& counters() const { return counters_; }

  /// Appends `other`'s spans (re-based parents) and adds its counters.
  void Merge(const SpanLog& other);

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  Counters counters_;
  uint32_t owner_ = 0;
  uint32_t tick_ = 0;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, reported only
/// when at least 10 samples lie strictly beyond the rank it selects;
/// nullopt otherwise.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Largest p in {99.9, 99, 98, 95, 90, 75, 50} that Percentile supports
/// for `n` samples, or 0 when none does.
double HighestSupportedPercentile(size_t n);

/// Median of repeated measurements (mean of the middle two for even n);
/// 0 for an empty input.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // SIGHT_PERFBENCH_TRACE_H_
