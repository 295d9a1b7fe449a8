// imdb-repr-sweep: the paper's Fig. 10-12 shape on the IMDB-like co-actor
// graph (average virtual-node size 10). One job runs one condensed
// extraction, then builds C-DUP, DEDUP-1 (greedy virtual-first), DEDUP-2,
// BITMAP-2 and EXP from it and runs degree, PageRank, connected components
// and BFS on each. Deduplication and the kernels do most of the work; the
// planner is a small share.
#include "algos/connected_components.h"
#include "algos/degree.h"
#include "core/graphgen.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

using graphgen::CondensedStorage;
using graphgen::ExtractedGraph;
using graphgen::GraphGen;
using graphgen::GraphGenOptions;
using graphgen::Representation;
using graphgen::Result;

namespace {

// DEDUP-1 is roughly quadratic in the input, so the scale stays small
// enough that a run holds at least a hundred jobs.
constexpr double kScale = 0.04;
constexpr size_t kBfsSources = 2;

struct Repr {
  Representation representation;
  const char* name;   // metric suffix
  const char* span;   // build span
};

// EXP goes last so it can take the extracted storage without a copy.
constexpr Repr kReprs[] = {
    {Representation::kCDup, "cdup", "repr.build.cdup"},
    {Representation::kDedup1, "dedup1", "dedup.build.dedup1"},
    {Representation::kDedup2, "dedup2", "dedup.build.dedup2"},
    {Representation::kBitmap2, "bitmap2", "dedup.build.bitmap2"},
    {Representation::kExp, "exp", "repr.expand"},
};
constexpr Kernel kKernels[] = {Kernel::kDegree, Kernel::kPageRank,
                               Kernel::kComponents, Kernel::kBfs};

Result<ExtractedGraph> Build(const Repr& repr, CondensedStorage storage,
                             Recorder& recorder, int64_t op) {
  GraphGenOptions options;  // DEDUP-1 keeps its default greedy virtual-first
  options.representation = repr.representation;
  auto span = recorder.Begin(repr.span, op, /*measure_memory=*/true);
  return GraphGen::Materialize(std::move(storage), options);
}

}  // namespace

void RunImdbReprSweep(const RunConfig& config, Recorder& recorder,
                      Report& report) {
  const CsvInput input = MakeImdbCsv(config.seed, kScale);
  graphgen::rel::Database db;
  if (!MeasureSetup(report, [&] {
        graphgen::rel::Database fresh;
        GRAPHGEN_RETURN_NOT_OK(Ingest(input, fresh, recorder));
        db = std::move(fresh);
        return graphgen::Status::OK();
      })) {
    return;
  }
  std::vector<uint32_t> sources;
  SeededRng rng(config.seed ^ 0xbf5);
  for (size_t i = 0; i < kBfsSources; ++i) {
    sources.push_back(static_cast<uint32_t>(rng.Next()));
  }

  PlannerFigures planner;
  std::map<std::string, double> repr_bytes;
  RunTimedLoop(
      config.seconds, recorder, report, [&](int64_t op) {
        Result<PlannerCall> call =
            ExtractTraced(db, kImdbQuery, {}, recorder, op, "condensed",
                          /*measure_memory=*/true);
        if (!call.ok()) {
          report.Fail("extraction: " + call.status().ToString());
          return false;
        }
        planner.Add(op, "condensed", *call);
        CondensedStorage& storage = call->result.storage;
        for (const Repr& repr : kReprs) {
          const bool last = &repr == &kReprs[std::size(kReprs) - 1];
          Result<ExtractedGraph> g =
              Build(repr, last ? std::move(storage) : CondensedStorage(storage),
                    recorder, op);
          if (!g.ok()) {
            report.Fail(std::string(repr.name) + ": " + g.status().ToString());
            return false;
          }
          repr_bytes[repr.name] = static_cast<double>(g->graph->MemoryBytes());
          for (Kernel k : kKernels) {
            if (!RunKernel(k, *g->graph, repr.name, sources, recorder, op)) {
              report.Fail(std::string(KernelName(k)) + " on " + repr.name +
                          ": output has the wrong size");
              return false;
            }
          }
        }
        return true;
      });
  ReportPeakRss(report);

  // Once per run, untimed, one more op per representation: every
  // representation holds the same graph as EXP (the paper's duplication
  // claim) and the kernels agree across them.
  Recorder untraced(false);
  Result<PlannerCall> call = ExtractTraced(db, kImdbQuery, {}, untraced, -1,
                                           "check", false);
  if (!call.ok()) {
    report.Fail("check extraction: " + call.status().ToString());
    report.CountOp(false);
    return;
  }
  std::vector<std::pair<graphgen::NodeId, graphgen::NodeId>> exp_edges;
  std::vector<uint64_t> exp_degrees;
  std::vector<graphgen::NodeId> exp_labels;
  for (auto it = std::rbegin(kReprs); it != std::rend(kReprs); ++it) {
    GraphGenOptions options;
    options.representation = it->representation;
    Result<ExtractedGraph> g =
        GraphGen::Materialize(call->result.storage, options);
    if (!g.ok()) {
      report.Fail(std::string(it->name) + ": " + g.status().ToString());
      report.CountOp(false);
      continue;
    }
    auto edges = g->graph->ExpandedEdgeSet();
    auto degrees = graphgen::ComputeDegrees(*g->graph);
    auto labels = graphgen::ConnectedComponents(*g->graph);
    if (it->representation == Representation::kExp) {
      report.Set("repr.expanded_edges", static_cast<double>(edges.size()),
                 "count", 1);
      exp_edges = std::move(edges);
      exp_degrees = std::move(degrees);
      exp_labels = std::move(labels);
      continue;
    }
    const std::string name(it->name);
    if (edges != exp_edges) report.Fail(name + " edge set != EXP");
    if (degrees != exp_degrees) report.Fail(name + " degrees != EXP");
    if (labels != exp_labels) report.Fail(name + " components != EXP");
    report.CountOp(edges == exp_edges && degrees == exp_degrees &&
                   labels == exp_labels);
  }
  for (const auto& [name, bytes] : repr_bytes) {
    report.Set("repr.bytes." + name, bytes, "bytes", 1);
  }
  report.Set("relational.input_rows", static_cast<double>(input.Rows()),
             "count", 1);
  report.Set("relational.csv_bytes", static_cast<double>(input.Bytes()),
             "bytes", 1);
  planner.ReportTo(report);
}

}  // namespace perfbench
