#include "report.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string MetricForSpan(std::string_view span_name) {
  const size_t call_end = span_name.find('.', span_name.find('.') + 1);
  std::string metric(span_name.substr(0, call_end));
  metric += LayerOf(span_name) == "datalog" ? "_us" : "_ms";
  if (call_end != std::string_view::npos) metric += span_name.substr(call_end);
  return metric;
}

void Report::Set(const std::string& name, double value, std::string unit,
                 uint64_t samples) {
  if (!ValidMetricName(name)) {
    Fail("invalid metric name '" + name + "'");
    return;
  }
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    return;
  }
  metrics_[name] = Metric{value, std::move(unit), samples};
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::PrintTable(std::FILE* out) const {
  for (const auto& [name, m] : metrics_) {
    std::fprintf(out, "  %-34s %16.6f %-6s n=%llu\n", name.c_str(), m.value,
                 m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::fprintf(out, "  ops attempted=%llu failed=%llu\n",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  for (const std::string& f : failures_) {
    std::fprintf(out, "  CHECK FAILED: %s\n", f.c_str());
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  out += "}}";
  return out;
}

void ReportOps(Report& report, const std::vector<OpSample>& ops,
               int64_t start_ns, int64_t end_ns) {
  const uint64_t n = ops.size();
  const double window_ns =
      static_cast<double>(std::max<int64_t>(1, end_ns - start_ns)) / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (const OpSample& op : ops) {
    const int w = static_cast<int>(
        static_cast<double>(op.end_ns - start_ns) / window_ns);
    windows[std::clamp(w, 0, kWindows - 1)].push_back(op.ms);
  }
  std::vector<double> rate, p50, p90, p99;
  for (const std::vector<double>& w : windows) {
    rate.push_back(static_cast<double>(w.size()) / (window_ns / 1e9));
    if (w.empty()) continue;
    p50.push_back(Percentile(w, 50));
    p90.push_back(Percentile(w, 90));
    p99.push_back(Percentile(w, 99));
  }
  report.Set("ops_per_s", Median(rate), "1/s", n);
  report.Set("op_ms.p50", Median(p50), "ms", n);
  report.Set("op_ms.p90", Median(p90), "ms", n);
  if (n >= 1000) report.Set("op_ms.p99", Median(p99), "ms", n);
}

void ReportFailFraction(Report& report) {
  const uint64_t attempted = std::max<uint64_t>(1, report.attempted());
  report.Set("fail_frac",
             static_cast<double>(report.failed()) /
                 static_cast<double>(attempted),
             "ratio", report.attempted());
}

void ReportPeakRss(Report& report) {
  report.Set("rss_peak_mb", static_cast<double>(ReadVmHwmBytes()) / 1048576.0,
             "MB", 1);
}

void SetMedian(Report& report, const std::string& name,
               const std::vector<double>& values, const std::string& unit) {
  if (values.empty()) return;
  report.Set(name, Median(values), unit, values.size());
}

void ReportSpans(Report& report, const std::vector<Span>& spans,
                 uint64_t ops) {
  // Per-call times by span name.
  std::map<std::string, std::vector<double>> calls;
  // Largest high-water growth per (layer, op).
  std::map<std::string, std::map<int64_t, double>> hwm_by_layer;
  for (const Span& s : spans) {
    if (s.name == "op") continue;
    const std::string layer(LayerOf(s.name));
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    calls[s.name].push_back(layer == "datalog" ? ms * 1000.0 : ms);
    if (s.hwm_growth_bytes >= 0) {
      double& peak = hwm_by_layer[layer][s.op];
      peak = std::max(peak,
                      static_cast<double>(s.hwm_growth_bytes) / 1048576.0);
    }
  }
  for (const auto& [name, values] : calls) {
    SetMedian(report, MetricForSpan(name),
              values, LayerOf(name) == "datalog" ? "us" : "ms");
  }
  for (const auto& [layer, per_op] : hwm_by_layer) {
    std::vector<double> peaks;
    for (const auto& [op, mb] : per_op) peaks.push_back(mb);
    SetMedian(report, layer + ".rss_hwm_mb", peaks, "MB");
  }

  std::vector<Span> op_spans;
  for (const Span& s : spans) {
    if (s.op >= 0) op_spans.push_back(s);
  }
  if (ops == 0) return;
  for (const auto& [layer, ns] : SelfTimeByLayerNs(op_spans)) {
    report.Set("self_ms." + layer,
               static_cast<double>(ns) / 1e6 / static_cast<double>(ops), "ms",
               ops);
  }
}

}  // namespace perfbench
