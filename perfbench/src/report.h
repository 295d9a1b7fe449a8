// Metric collection and output for one benchmark run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Names are 1-64 characters of [A-Za-z0-9_.-] starting with a letter or
/// digit (the benchmark contract's metric-name rule).
bool ValidMetricName(std::string_view name);

/// "<layer>.<call>[.<variant>]" -> "<layer>.<call>_ms[.<variant>]"
/// ("_us" for the datalog layer, whose calls take microseconds).
std::string MetricForSpan(std::string_view span_name);

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

class Report {
 public:
  /// Records (or replaces) a metric. An invalid name is a benchmark bug:
  /// it marks the run incorrect instead of emitting a malformed result.
  void Set(const std::string& name, double value, std::string unit,
           uint64_t samples);

  /// A check on the program's output failed: the run is not correct.
  void Fail(const std::string& what);
  /// Counts one attempted operation, failed when `ok` is false.
  void CountOp(bool ok) { CountOps(1, ok ? 0 : 1); }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// One line per metric ("name value unit n=samples"), then failures.
  void PrintTable(std::FILE* out) const;
  /// {"correct", "attempted", "failed",
  ///  "metrics": {name: {"value", "unit", "samples"}}}
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// One timed operation: when it finished and how long it took.
struct OpSample {
  int64_t end_ns = 0;
  double ms = 0.0;
};

/// Equal time windows a run is split into for ReportOps.
inline constexpr int kWindows = 5;

/// ops_per_s, op_ms.p50, op_ms.p90 and, with at least 1000 samples (ten
/// beyond p99), op_ms.p99 over the run [start_ns, end_ns). Each figure is
/// the median of its value in kWindows equal windows of the run (an op
/// belongs to the window it ended in), so a burst of host contention that
/// covers less than half the run does not move it.
void ReportOps(Report& report, const std::vector<OpSample>& ops,
               int64_t start_ns, int64_t end_ns);

/// fail_frac: failed over attempted ops, once-per-run checks included.
void ReportFailFraction(Report& report);

/// rss_peak_mb: the process's VmHWM.
void ReportPeakRss(Report& report);

/// Per-layer metrics derived from the traced run's spans:
///  * "<layer>.<call>[.<variant>]" spans become the median per-call time
///    "<layer>.<call>_ms[.<variant>]" (datalog spans in microseconds);
///  * "<layer>.rss_hwm_mb": per op, the largest high-water growth of the
///    layer's memory-measured calls; median over ops;
///  * "self_ms.<layer>": the layer's self time per op, summed over the
///    spans of operations (op >= 0) and divided by `ops`.
/// Root spans named "op" hold each operation; their self time is the
/// benchmark's own work between layer calls.
void ReportSpans(Report& report, const std::vector<Span>& spans,
                 uint64_t ops);

/// Median of `values` with the sample count, skipped when empty.
void SetMedian(Report& report, const std::string& name,
               const std::vector<double>& values, const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
