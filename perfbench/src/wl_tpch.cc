// tpch-sql-expand: the paper's Table 1 comparison on the TPC-H-like
// co-purchase graph (Orders ⋈ LineItem ⋈ LineItem ⋈ Orders). One job runs
//   1. a condensed extraction and GraphGen::Materialize to EXP (the
//      paper's path),
//   2. the same query with the large-output test disabled, so the query
//      engine runs the whole join plus DISTINCT (Table 1's EXP column),
//   3. PageRank and connected components on the EXP graph.
// The planner/query layer does most of the work and holds most of the
// memory; dedup and the service are bypassed.
#include <limits>

#include "core/graphgen.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

using graphgen::ExtractedGraph;
using graphgen::GraphGen;
using graphgen::GraphGenOptions;
using graphgen::Representation;
using graphgen::Result;

namespace {

// 300 customers, 1200 orders, 29 parts: the EXP graph has ~85k edges and
// one job takes about a tenth of a second on a 4-core x86 host, so a run
// holds well over a hundred jobs.
constexpr double kScale = 0.15;

struct ExpGraphs {
  ExtractedGraph paper;  // condensed extraction, then expanded
  ExtractedGraph full;   // full join + DISTINCT in the query engine
};

Result<ExtractedGraph> ExtractToExp(
    const graphgen::rel::Database& db,
    const graphgen::planner::ExtractOptions& options,
    const std::string& variant, const char* expand_span, Recorder& recorder,
    int64_t op, PlannerFigures& planner) {
  GRAPHGEN_ASSIGN_OR_RETURN(
      PlannerCall call,
      ExtractTraced(db, kTpchQuery, options, recorder, op, variant,
                    /*measure_memory=*/true));
  planner.Add(op, variant, call);
  GraphGenOptions materialize;
  materialize.representation = Representation::kExp;
  auto span = recorder.Begin(expand_span, op, /*measure_memory=*/true);
  return GraphGen::Materialize(std::move(call.result.storage), materialize);
}

Result<ExpGraphs> Job(const graphgen::rel::Database& db, Recorder& recorder,
                      int64_t op, PlannerFigures& planner) {
  const graphgen::planner::ExtractOptions paper_options;
  graphgen::planner::ExtractOptions full_options;
  // No join boundary passes the large-output test: the query engine runs
  // the whole join chain plus DISTINCT.
  full_options.large_output_factor = std::numeric_limits<double>::max();
  ExpGraphs out;
  GRAPHGEN_ASSIGN_OR_RETURN(
      out.paper, ExtractToExp(db, paper_options, "condensed", "repr.expand",
                              recorder, op, planner));
  GRAPHGEN_ASSIGN_OR_RETURN(
      out.full, ExtractToExp(db, full_options, "full", "repr.expand_full",
                             recorder, op, planner));
  return out;
}

}  // namespace

void RunTpchSqlExpand(const RunConfig& config, Recorder& recorder,
                      Report& report) {
  const CsvInput input = MakeTpchCsv(config.seed, kScale);
  graphgen::rel::Database db;
  if (!MeasureSetup(report, [&] {
        graphgen::rel::Database fresh;
        GRAPHGEN_RETURN_NOT_OK(Ingest(input, fresh, recorder));
        db = std::move(fresh);
        return graphgen::Status::OK();
      })) {
    return;
  }

  PlannerFigures planner;
  ExpGraphs last;
  RunTimedLoop(
      config.seconds, recorder, report, [&](int64_t op) {
        last = ExpGraphs{};  // free the previous job's graphs first
        Result<ExpGraphs> graphs = Job(db, recorder, op, planner);
        if (!graphs.ok()) {
          report.Fail("extraction: " + graphs.status().ToString());
          return false;
        }
        const graphgen::Graph& paper = *graphs->paper.graph;
        bool ok =
            RunKernel(Kernel::kPageRank, paper, "exp", {}, recorder, op) &&
            RunKernel(Kernel::kComponents, paper, "exp", {}, recorder, op);
        if (paper.CountExpandedEdges() !=
            graphs->full.graph->CountExpandedEdges()) {
          report.Fail("expanded edge count differs between the condensed "
                      "and the full-join path");
          ok = false;
        }
        last = std::move(*graphs);
        return ok;
      });

  ReportPeakRss(report);
  // Once per run, untimed, counted as one more op.
  const bool same_edges =
      last.paper.graph != nullptr &&
      last.paper.graph->ExpandedEdgeSet() == last.full.graph->ExpandedEdgeSet();
  if (!same_edges) {
    report.Fail("expanded edge sets differ between the two paths");
  }
  report.CountOp(same_edges);
  if (last.paper.graph != nullptr) {
    report.Set("repr.expanded_edges",
               static_cast<double>(last.paper.graph->CountExpandedEdges()),
               "count", 1);
    report.Set("repr.bytes.exp",
               static_cast<double>(last.paper.graph->MemoryBytes()), "bytes",
               1);
  }
  report.Set("relational.input_rows", static_cast<double>(input.Rows()),
             "count", 1);
  report.Set("relational.csv_bytes", static_cast<double>(input.Bytes()),
             "bytes", 1);
  planner.ReportTo(report);
}

}  // namespace perfbench
