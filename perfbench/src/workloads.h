// The three workloads and the helpers they share. Each workload generates
// its inputs from the seed, measures for the configured time, checks the
// library's outputs, and fills a Report. With tracing on, spans go to the
// Recorder around every call into a library layer.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "planner/extractor.h"
#include "relational/database.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
};

void RunTpchSqlExpand(const RunConfig& config, Recorder& recorder,
                      Report& report);
void RunImdbReprSweep(const RunConfig& config, Recorder& recorder,
                      Report& report);
void RunDblpServiceLive(const RunConfig& config, Recorder& recorder,
                        Report& report);

// ------------------------------------------------------------- helpers

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 21;

/// Times `setup` kSetupReps times and reports setup_s (median, seconds).
/// Returns false (after recording the failure) if any repetition fails.
bool MeasureSetup(Report& report,
                  const std::function<graphgen::Status()>& setup);

/// Runs `job(op)` back to back until `seconds` have elapsed (at least one
/// job), each inside an "op" root span, counts each in the report, and
/// reports the ops (ReportOps).
void RunTimedLoop(double seconds, Recorder& recorder, Report& report,
                  const std::function<bool(int64_t op)>& job);

/// One planner call with the figures the report breaks out per call.
struct PlannerCall {
  graphgen::planner::ExtractionResult result;
  double charged_peak_bytes = 0;  // track-only budget; traced runs only
  double hwm_growth_bytes = -1;   // traced single-driver runs only
};

/// dsl::Parse + dsl::Validate (span datalog.parse), then planner::Extract
/// (span planner.extract.<variant>) -- the steps of ExtractFromQuery, split
/// so each layer gets its own span. With tracing on, a track-only
/// MemoryBudget records the bytes the planner charges and, when
/// `measure_memory`, the resident high-water growth of the call.
graphgen::Result<PlannerCall> ExtractTraced(
    const graphgen::rel::Database& db, std::string_view datalog,
    graphgen::planner::ExtractOptions options, Recorder& recorder, int64_t op,
    const std::string& variant, bool measure_memory);

/// Accumulates per-call planner figures over a run and reports them as
/// planner.{nodes,edges,preprocess}_ms.<variant>,
/// planner.charged_to_resident.<variant>, planner.charged_peak_bytes and
/// the exact counts of the condensed call.
class PlannerFigures {
 public:
  void Add(int64_t op, const std::string& variant, const PlannerCall& call);
  void ReportTo(Report& report) const;

 private:
  struct PerVariant {
    std::vector<double> nodes_ms, edges_ms, preprocess_ms, charged_to_resident;
  };
  std::map<std::string, PerVariant> by_variant_;
  std::map<int64_t, double> charged_peak_by_op_;
  uint64_t rows_scanned_ = 0, condensed_edges_ = 0, virtual_nodes_ = 0;
};

enum class Kernel { kDegree, kPageRank, kComponents, kBfs };
std::string_view KernelName(Kernel k);

/// Runs one kernel inside span algos.<kernel>.<repr> on `threads` threads
/// (0: the library default). Returns false if the output has the wrong
/// shape (a failed check). BFS runs from each source.
bool RunKernel(Kernel kernel, const graphgen::Graph& graph,
               std::string_view repr, const std::vector<uint32_t>& sources,
               Recorder& recorder, int64_t op, size_t threads = 0);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
