// Span recording for the traced benchmark run, plus the order statistics
// the report uses. Spans are recorded only by benchmark code, around each
// call into a library layer; the library itself is not instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace perfbench {

/// Linear interpolation between closest ranks (the "linear" method of
/// numpy.percentile): p in [0, 100]. Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// One timed call. `name` is "<layer>.<call>[.<variant>]"; the layer is the
/// text before the first dot. `parent` is the id of the span that was open
/// on the same thread when this one began (-1 for a root), and every span
/// of one benchmark operation shares `op`.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Resident high-water growth during the call (VmHWM after the call
  /// minus VmRSS before it, with the high-water mark reset first); -1 when
  /// not measured.
  int64_t hwm_growth_bytes = -1;
};

std::string_view LayerOf(std::string_view span_name);

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval covered by its children (overlapping children
/// are counted once, and clipped to the parent's interval).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Total self time per layer, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<Span>& spans);

/// Process memory counters from /proc/self/status, in bytes (0 if absent).
int64_t ReadVmHwmBytes();
int64_t ReadVmRssBytes();
/// Resets the process's resident high-water mark to its current RSS.
bool ResetVmHwm();

/// In-memory span store. A disabled recorder makes Scope a no-op, so the
/// untraced run executes the same benchmark code without recording.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: begins on construction, records on destruction.
  class Scope {
   public:
    Scope(Recorder* recorder, std::string name, int64_t op,
          bool measure_memory);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now (later calls do nothing) and returns its
    /// high-water growth in bytes, -1 when not measured or not recording.
    int64_t End();

   private:
    Recorder* recorder_;  // null when recording is off
    Span span_;
    bool measure_memory_ = false;
    int64_t rss_before_ = 0;
  };

  /// Opens a span on the calling thread. `measure_memory` resets VmHWM
  /// before the call and reads it after; use it only where one thread
  /// runs the library at a time.
  [[nodiscard]] Scope Begin(std::string name, int64_t op,
                            bool measure_memory = false) {
    return Scope(enabled_ ? this : nullptr, std::move(name), op,
                 measure_memory);
  }

  std::vector<Span> Spans() const EXCLUDES(mu_);

  /// Writes every recorded span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  void Add(Span span) EXCLUDES(mu_);

  const bool enabled_;
  std::atomic<int64_t> next_id_{0};
  mutable graphgen::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// Monotonic clock in nanoseconds, shared by spans and op timers.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
