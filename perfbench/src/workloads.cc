#include "workloads.h"

#include <memory>

#include "algos/bfs.h"
#include "algos/connected_components.h"
#include "algos/degree.h"
#include "algos/pagerank.h"
#include "common/cancel.h"
#include "datalog/parser.h"
#include "datalog/validator.h"

namespace perfbench {

using graphgen::Graph;
using graphgen::Result;
using graphgen::Status;

bool MeasureSetup(Report& report, const std::function<Status()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = NowNs();
    const Status st = setup();
    if (!st.ok()) {
      report.Fail("set-up failed: " + st.ToString());
      return false;
    }
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  SetMedian(report, "setup_s", seconds, "s");
  return true;
}

void RunTimedLoop(double seconds, Recorder& recorder, Report& report,
                  const std::function<bool(int64_t op)>& job) {
  std::vector<OpSample> ops;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  for (int64_t op = 0; op == 0 || now < stop; ++op) {
    const int64_t begin = NowNs();
    bool ok = false;
    {
      auto span = recorder.Begin("op", op);
      ok = job(op);
    }
    now = NowNs();
    ops.push_back({now, static_cast<double>(now - begin) / 1e6});
    report.CountOp(ok);
  }
  ReportOps(report, ops, start, now);
}

Result<PlannerCall> ExtractTraced(const graphgen::rel::Database& db,
                                  std::string_view datalog,
                                  graphgen::planner::ExtractOptions options,
                                  Recorder& recorder, int64_t op,
                                  const std::string& variant,
                                  bool measure_memory) {
  graphgen::dsl::Program program;
  {
    auto span = recorder.Begin("datalog.parse", op);
    GRAPHGEN_ASSIGN_OR_RETURN(program, graphgen::dsl::Parse(datalog));
    GRAPHGEN_RETURN_NOT_OK(graphgen::dsl::Validate(program, db));
  }
  std::shared_ptr<graphgen::MemoryBudget> budget;
  if (recorder.enabled()) {
    budget = std::make_shared<graphgen::MemoryBudget>(0);  // 0: track only
    options.ctx.budget = budget;
  }
  PlannerCall call;
  auto span = recorder.Begin("planner.extract." + variant, op, measure_memory);
  GRAPHGEN_ASSIGN_OR_RETURN(call.result,
                            graphgen::planner::Extract(db, program, options));
  call.hwm_growth_bytes = static_cast<double>(span.End());
  if (budget) call.charged_peak_bytes = static_cast<double>(budget->peak());
  return call;
}

void PlannerFigures::Add(int64_t op, const std::string& variant,
                         const PlannerCall& call) {
  PerVariant& v = by_variant_[variant];
  v.nodes_ms.push_back(call.result.nodes_seconds * 1e3);
  v.edges_ms.push_back(call.result.edges_seconds * 1e3);
  v.preprocess_ms.push_back(call.result.preprocess_seconds * 1e3);
  if (call.hwm_growth_bytes > 0) {
    v.charged_to_resident.push_back(call.charged_peak_bytes /
                                    call.hwm_growth_bytes);
  }
  double& peak = charged_peak_by_op_[op];
  peak = std::max(peak, call.charged_peak_bytes);
  if (variant == "condensed") {
    rows_scanned_ = call.result.rows_scanned;
    condensed_edges_ = call.result.condensed_edges;
    virtual_nodes_ = call.result.virtual_nodes;
  }
}

void PlannerFigures::ReportTo(Report& report) const {
  for (const auto& [variant, v] : by_variant_) {
    SetMedian(report, "planner.nodes_ms." + variant, v.nodes_ms, "ms");
    SetMedian(report, "planner.edges_ms." + variant, v.edges_ms, "ms");
    SetMedian(report, "planner.preprocess_ms." + variant, v.preprocess_ms,
              "ms");
    SetMedian(report, "planner.charged_to_resident." + variant,
              v.charged_to_resident, "ratio");
  }
  std::vector<double> peaks;
  for (const auto& [op, bytes] : charged_peak_by_op_) {
    if (bytes > 0) peaks.push_back(bytes);
  }
  SetMedian(report, "planner.charged_peak_bytes", peaks, "bytes");
  if (by_variant_.contains("condensed")) {
    report.Set("planner.rows_scanned", static_cast<double>(rows_scanned_),
               "count", 1);
    report.Set("planner.condensed_edges",
               static_cast<double>(condensed_edges_), "count", 1);
    report.Set("planner.virtual_nodes", static_cast<double>(virtual_nodes_),
               "count", 1);
  }
}

std::string_view KernelName(Kernel k) {
  switch (k) {
    case Kernel::kDegree: return "degree";
    case Kernel::kPageRank: return "pagerank";
    case Kernel::kComponents: return "components";
    case Kernel::kBfs: return "bfs";
  }
  return "?";
}

bool RunKernel(Kernel kernel, const Graph& graph, std::string_view repr,
               const std::vector<uint32_t>& sources, Recorder& recorder,
               int64_t op, size_t threads) {
  const size_t n = graph.NumVertices();
  auto span = recorder.Begin(
      "algos." + std::string(KernelName(kernel)) + "." + std::string(repr), op);
  switch (kernel) {
    case Kernel::kDegree:
      return graphgen::ComputeDegrees(graph, threads).size() == n;
    case Kernel::kPageRank: {
      graphgen::PageRankOptions options;
      options.threads = threads;
      return graphgen::PageRank(graph, options).size() == n;
    }
    case Kernel::kComponents:
      return graphgen::ConnectedComponents(graph, threads).size() == n;
    case Kernel::kBfs:
      for (uint32_t s : sources) {
        const std::vector<uint32_t> dist = graphgen::Bfs(graph, s % n);
        if (dist.size() != n || dist[s % n] != 0) return false;
      }
      return true;
  }
  return false;
}

}  // namespace perfbench
