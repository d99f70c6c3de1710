#include "trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p among n > 0 samples. The epsilon
// keeps p * n / 100 from rounding up past an exact integer.
size_t NearestRank(double p, size_t n) {
  double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

int SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.owner = owner_;
  span.tick = tick_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a skipped close by unwinding.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanLog::Merge(const SpanLog& other) {
  int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    int64_t begin = std::max(span.start_ns, parent.start_ns);
    int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool in_run = false;
    for (const auto& [begin, end] : intervals) {
      if (in_run && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_begin;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 100.0) || samples.empty()) return std::nullopt;
  size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  size_t rank = NearestRank(p, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n > 0 && n - NearestRank(p, n) >= 10) return p;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
