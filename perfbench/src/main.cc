// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints one line per metric, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit,
// samples}}}. With --trace 1, spans are recorded around every call into a
// library layer, per-layer metrics are derived from them, and the spans are
// written to --trace-out as JSON lines. Exit code 1 when a correctness
// check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, perfbench::Recorder&, perfbench::Report&);
};

constexpr Workload kWorkloads[] = {
    {"tpch-sql-expand", perfbench::RunTpchSqlExpand},
    {"imdb-repr-sweep", perfbench::RunImdbReprSweep},
    {"dblp-service-live", perfbench::RunDblpServiceLive},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool trace = false;
  std::string workload;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = value;
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return Usage("malformed number");
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!(config.seconds > 0 && config.seconds <= 3600)) {
    return Usage("--seconds must be in (0, 3600]");
  }

  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    perfbench::Recorder recorder(trace);
    perfbench::Report report;
    w.run(config, recorder, report);
    perfbench::ReportFailFraction(report);
    if (recorder.enabled()) {
      perfbench::ReportSpans(report, recorder.Spans(), report.attempted());
      if (!trace_out.empty() && !recorder.WriteJsonLines(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      }
    }
    std::printf("%s seed=%llu seconds=%g trace=%d\n", w.name,
                static_cast<unsigned long long>(config.seed), config.seconds,
                trace ? 1 : 0);
    report.PrintTable(stdout);
    std::printf("%s\n", report.ToJson().c_str());
    return report.correct() ? 0 : 1;
  }
  return Usage("unknown workload");
}
