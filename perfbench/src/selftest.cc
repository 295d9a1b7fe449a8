// Tests of the benchmark's own arithmetic: percentiles, windowed op
// figures, span self time, the span-to-metric naming rule and the
// metric-name check. Run with
// `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

using perfbench::Span;

Span MakeSpan(const char* name, int64_t id, int64_t parent, int64_t start,
              int64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.op = 0;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestPercentile() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  ExpectNear(perfbench::Percentile(ten, 50), 5.5, "p50 of 1..10");
  ExpectNear(perfbench::Percentile(ten, 90), 9.1, "p90 of 1..10");
  ExpectNear(perfbench::Percentile(ten, 0), 1.0, "p0 of 1..10");
  ExpectNear(perfbench::Percentile(ten, 100), 10.0, "p100 of 1..10");
  ExpectNear(perfbench::Median({3.0}), 3.0, "median of one value");
  ExpectNear(perfbench::Median({}), 0.0, "median of nothing");
  ExpectNear(perfbench::Median({4, 1, 3, 2}), 2.5, "median of an even count");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  ExpectNear(perfbench::Percentile(thousand, 99), 990.01, "p99 of 1..1000");
}

void TestSelfTime() {
  // op [0,100): planner [10,30), repr [20,50) overlapping it, and algos
  // [90,120) running past the end of op (clipped to 90..100).
  // planner has a child [12,18).
  const std::vector<Span> spans = {
      MakeSpan("op", 1, -1, 0, 100),
      MakeSpan("planner.extract", 2, 1, 10, 30),
      MakeSpan("repr.expand", 3, 1, 20, 50),
      MakeSpan("algos.bfs.exp", 4, 1, 90, 120),
      MakeSpan("datalog.parse", 5, 2, 12, 18),
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Expect(self.size() == spans.size(), "one self time per span");
  Expect(self[0] == 100 - 40 - 10,
         "op self time excludes the union of its children");
  Expect(self[1] == 20 - 6, "planner self time excludes its child");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 30, "a leaf keeps its own full duration");
  Expect(self[4] == 6, "grandchild self time");

  const auto by_layer = perfbench::SelfTimeByLayerNs(spans);
  Expect(by_layer.at("op") == 50, "self time of layer op");
  Expect(by_layer.at("planner") == 14, "self time of layer planner");
  Expect(by_layer.at("datalog") == 6, "self time of layer datalog");

  // Two roots and an orphan (parent not recorded) are all roots.
  const std::vector<Span> forest = {MakeSpan("a.x", 1, -1, 0, 10),
                                    MakeSpan("b.y", 2, 99, 0, 5)};
  const std::vector<int64_t> forest_self = perfbench::SelfTimesNs(forest);
  Expect(forest_self[0] == 10 && forest_self[1] == 5, "roots and orphans");
}

void TestRecorder() {
  perfbench::Recorder recorder(true);
  {
    auto outer = recorder.Begin("op", 7);
    auto inner = recorder.Begin("planner.extract.full", 7);
  }
  const std::vector<Span> spans = recorder.Spans();
  Expect(spans.size() == 2, "two spans recorded");
  if (spans.size() == 2) {
    Expect(spans[0].name == "planner.extract.full" &&
               spans[0].parent == spans[1].id && spans[1].parent == -1,
           "the inner span's parent is the outer span");
    Expect(spans[0].op == 7 && spans[1].op == 7, "spans carry the op id");
  }
  perfbench::Recorder off(false);
  { auto s = off.Begin("op", 1); }
  Expect(off.Spans().empty(), "a disabled recorder records nothing");
}

void TestMetricNames() {
  Expect(perfbench::MetricForSpan("planner.extract.condensed") ==
             "planner.extract_ms.condensed",
         "span with a variant");
  Expect(perfbench::MetricForSpan("repr.expand") == "repr.expand_ms",
         "span without a variant");
  Expect(perfbench::MetricForSpan("datalog.parse") == "datalog.parse_us",
         "datalog spans are in microseconds");
  Expect(perfbench::MetricForSpan("algos.pagerank.cdup") ==
             "algos.pagerank_ms.cdup",
         "kernel span");
  for (const char* good : {"setup_s", "op_ms.p50", "repr.bytes.exp", "a-b",
                           "9lives"}) {
    Expect(perfbench::ValidMetricName(good), std::string("valid: ") + good);
  }
  for (const char* bad : {"", ".p50", "op ms", "op/ms", "x\"y", "é"}) {
    Expect(!perfbench::ValidMetricName(bad), std::string("invalid: ") + bad);
  }
  Expect(!perfbench::ValidMetricName(std::string(65, 'a')), "65 characters");

  perfbench::Report report;
  report.Set("bad name", 1.0, "ms", 1);
  Expect(!report.correct() && report.metrics().empty(),
         "an invalid name fails the run instead of reaching the output");
}

void TestWindowedOps() {
  // 5 windows of 1 s, 10 ops each at 2 ms; window 3 is a burst at 50 ms.
  std::vector<perfbench::OpSample> ops;
  for (int w = 0; w < perfbench::kWindows; ++w) {
    for (int i = 0; i < 10; ++i) {
      const int64_t end = w * 1'000'000'000LL + (i + 1) * 90'000'000LL;
      ops.push_back({end, w == 3 ? 50.0 : 2.0});
    }
  }
  perfbench::Report report;
  perfbench::ReportOps(report, ops, 0, 5'000'000'000LL);
  ExpectNear(report.metrics().at("op_ms.p50").value, 2.0,
             "a burst in one window leaves the median p50");
  ExpectNear(report.metrics().at("op_ms.p90").value, 2.0,
             "a burst in one window leaves the median p90");
  ExpectNear(report.metrics().at("ops_per_s").value, 10.0, "ops per second");
  Expect(report.metrics().at("op_ms.p50").samples == 50, "sample count");
  Expect(!report.metrics().contains("op_ms.p99"), "no p99 under 1000 ops");
}

void TestInputsAreSeeded() {
  const auto a = perfbench::MakeTpchCsv(5, 0.05);
  const auto b = perfbench::MakeTpchCsv(5, 0.05);
  const auto c = perfbench::MakeTpchCsv(6, 0.05);
  Expect(a.tables.size() == 3, "three TPC-H tables");
  Expect(a.tables[2].text == b.tables[2].text, "same seed, same inputs");
  Expect(a.tables[2].text != c.tables[2].text, "another seed, other inputs");
  const auto dblp = perfbench::MakeDblpCsv(3, 100, 160);
  Expect(dblp.appends.size() == 20, "every eighth pid is held back");
  Expect(dblp.csv.tables[1].rows == 140, "the rest are initial publications");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestRecorder();
  TestMetricNames();
  TestWindowedOps();
  TestInputsAreSeeded();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
