#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string_view LayerOf(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(s.start_ns, parent.start_ns);
    const int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[std::string(LayerOf(spans[i].name))] += self[i];
  }
  return by_layer;
}

namespace {

int64_t ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atoll(line.c_str() + len + 1);
    }
  }
  return 0;
}

thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t ReadVmHwmBytes() { return ReadStatusKb("VmHWM") * 1024; }
int64_t ReadVmRssBytes() { return ReadStatusKb("VmRSS") * 1024; }

bool ResetVmHwm() {
  // "5" resets the peak RSS counter (Linux >= 4.0, proc(5)).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder::Scope::Scope(Recorder* recorder, std::string name, int64_t op,
                       bool measure_memory)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = std::move(name);
  span_.op = op;
  span_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = open_spans.empty() ? -1 : open_spans.back();
  open_spans.push_back(span_.id);
  if (measure_memory && ResetVmHwm()) {
    measure_memory_ = true;
    rss_before_ = ReadVmRssBytes();
  }
  span_.start_ns = NowNs();
}

int64_t Recorder::Scope::End() {
  if (recorder_ == nullptr) return -1;
  span_.end_ns = NowNs();
  if (measure_memory_) {
    span_.hwm_growth_bytes =
        std::max<int64_t>(0, ReadVmHwmBytes() - rss_before_);
  }
  const int64_t growth = span_.hwm_growth_bytes;
  open_spans.pop_back();
  recorder_->Add(std::move(span_));
  recorder_ = nullptr;
  return growth;
}

void Recorder::Add(Span span) {
  graphgen::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Recorder::Spans() const {
  graphgen::MutexLock lock(mu_);
  return spans_;
}

bool Recorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"op\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"hwm_growth_bytes\":%lld}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.hwm_growth_bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
