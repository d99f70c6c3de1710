// Tests of the benchmark's span self-time arithmetic and percentile rule.
// Exits non-zero on the first failed check; no test framework needed.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

perfbench::Span MakeSpan(const char* name, int64_t start, int64_t end,
                         int parent) {
  perfbench::Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void TestSelfTimeSubtractsDisjointChildren() {
  // root [0,100) with children [10,30) and [50,60): self = 100 - 30.
  std::vector<perfbench::Span> spans = {MakeSpan("root", 0, 100, -1),
                                        MakeSpan("a", 10, 30, 0),
                                        MakeSpan("b", 50, 60, 0)};
  std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 70);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
}

void TestSelfTimeCountsOverlapOnce() {
  // Overlapping children (e.g. parallel work) cover their union only.
  std::vector<perfbench::Span> spans = {MakeSpan("root", 0, 100, -1),
                                        MakeSpan("a", 10, 50, 0),
                                        MakeSpan("b", 40, 70, 0)};
  EXPECT(perfbench::SelfTimesNs(spans)[0] == 40);
}

void TestSelfTimeClipsChildrenToParent() {
  std::vector<perfbench::Span> spans = {MakeSpan("root", 10, 20, -1),
                                        MakeSpan("late", 15, 40, 0)};
  EXPECT(perfbench::SelfTimesNs(spans)[0] == 5);
}

void TestGrandchildrenOnlyReduceTheirParent() {
  // root [0,100) > mid [0,80) > leaf [0,50): each layer keeps its own part,
  // and the self times of a tree add up to the root's span.
  std::vector<perfbench::Span> spans = {MakeSpan("root", 0, 100, -1),
                                        MakeSpan("mid", 0, 80, 0),
                                        MakeSpan("leaf", 0, 50, 1)};
  std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 20);
  EXPECT(self[1] == 30);
  EXPECT(self[2] == 50);
  EXPECT(self[0] + self[1] + self[2] == 100);
}

void TestSpanLogNestsAndMerges() {
  perfbench::SpanLog log;
  log.SetRequest(7, 3);
  {
    perfbench::ScopedSpan outer(&log, "outer");
    perfbench::ScopedSpan inner(&log, "inner");
  }
  EXPECT(log.spans().size() == 2);
  EXPECT(log.spans()[1].parent == 0);
  EXPECT(log.spans()[0].owner == 7 && log.spans()[1].tick == 3);
  perfbench::SpanLog merged;
  { perfbench::ScopedSpan first(&merged, "first"); }
  merged.Merge(log);
  EXPECT(merged.spans().size() == 3);
  EXPECT(merged.spans()[2].parent == 1);
}

void TestPercentileNeedsTenBeyond() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  // p99 of 1..1000 is rank 990; ten samples (991..1000) lie beyond it.
  auto p99 = perfbench::Percentile(samples, 99.0);
  EXPECT(p99.has_value() && *p99 == 990.0);
  samples.pop_back();  // 999 samples: rank 990, only nine beyond.
  EXPECT(!perfbench::Percentile(samples, 99.0).has_value());
  EXPECT(perfbench::Percentile(samples, 98.0).has_value());
  std::vector<double> small = {3, 1, 2};
  EXPECT(!perfbench::Percentile(small, 50.0).has_value());
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(21 - i);
  auto p50 = perfbench::Percentile(twenty, 50.0);
  EXPECT(p50.has_value() && *p50 == 10.0);
  EXPECT(!perfbench::Percentile({}, 50.0).has_value());
}

void TestHighestSupportedPercentile() {
  EXPECT(perfbench::HighestSupportedPercentile(1000) == 99.0);
  EXPECT(perfbench::HighestSupportedPercentile(10000) == 99.9);
  EXPECT(perfbench::HighestSupportedPercentile(200) == 95.0);
  EXPECT(perfbench::HighestSupportedPercentile(10) == 0.0);
}

void TestMedian() {
  EXPECT(perfbench::Median({3, 1, 2}) == 2.0);
  EXPECT(perfbench::Median({4, 1, 2, 3}) == 2.5);
  EXPECT(perfbench::Median({}) == 0.0);
}

}  // namespace

int main() {
  TestSelfTimeSubtractsDisjointChildren();
  TestSelfTimeCountsOverlapOnce();
  TestSelfTimeClipsChildrenToParent();
  TestGrandchildrenOnlyReduceTheirParent();
  TestSpanLogNestsAndMerges();
  TestPercentileNeedsTenBeyond();
  TestHighestSupportedPercentile();
  TestMedian();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("trace_test: all checks passed\n");
  return 0;
}
