//===- examples/profile_run.cpp - Observability-driven profiling run -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Runs one analysis pipeline (build -> compile -> simulate -> analyze)
// with the observability layer on and prints where the time and the
// events went: the hierarchical phase tree (with its coverage of total
// wall time), the engine counters sorted by magnitude, and the histogram
// summaries. Optionally streams every simulator step as JSONL.
//
//   $ ./profile_run [--jobs N] [--jsonl FILE] [--trace-out FILE]
//                   [--report-out FILE]
//
//   --jobs N          target jobs per hyperperiod of the generated
//                     industrial-style configuration, 1..1000000
//                     (default 1000)
//   --jsonl FILE      stream action/delay/variable-write events to FILE
//   --trace-out FILE  write a chrome://tracing (Perfetto) timeline of the
//                     timed phases
//   --report-out FILE write a machine-readable obs::RunReport JSON
//
// A malformed or out-of-range number, an unknown flag or a flag without
// its value prints the usage and exits 1; exit 2 means the run finished
// and the configuration is unschedulable.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "gen/Workload.h"
#include "nsa/JsonlSink.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace swa;

namespace {
const char *const kUsage =
    "usage: profile_run [--jobs N] [--jsonl FILE] [--trace-out FILE] "
    "[--report-out FILE]\n"
    "  --jobs N  target jobs per hyperperiod, 1..1000000 (default 1000)\n";
constexpr uint64_t MaxJobs = 1000000;
} // namespace

int main(int argc, char **argv) {
  uint64_t Jobs = 1000;
  std::string JsonlPath, TracePath, ReportPath;
  for (int I = 1; I < argc; ++I) {
    bool HasValue = I + 1 < argc;
    if (std::strcmp(argv[I], "--jobs") == 0 && HasValue) {
      ++I;
      if (!parseDecimal(argv[I], Jobs) || Jobs < 1 || Jobs > MaxJobs) {
        std::fprintf(stderr, "error: invalid value '%s' for --jobs\n%s",
                     argv[I], kUsage);
        return 1;
      }
    } else if (std::strcmp(argv[I], "--jsonl") == 0 && HasValue) {
      JsonlPath = argv[++I];
    } else if (std::strcmp(argv[I], "--trace-out") == 0 && HasValue) {
      TracePath = argv[++I];
    } else if (std::strcmp(argv[I], "--report-out") == 0 && HasValue) {
      ReportPath = argv[++I];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 1;
    }
  }

  obs::setEnabled(true);
  if (!TracePath.empty())
    obs::setSpansEnabled(true);

  cfg::Config Config =
      gen::industrialConfigWithJobs(static_cast<int64_t>(Jobs), /*Seed=*/1);
  std::printf("configuration: %d tasks, %zu partitions, %zu cores, "
              "%lld jobs/hyperperiod\n",
              Config.numTasks(), Config.Partitions.size(),
              Config.Cores.size(),
              static_cast<long long>(Config.jobCount()));

  nsa::SimOptions Opt;
  std::ofstream JsonlFile;
  nsa::JsonlSink Sink(JsonlFile);
  if (!JsonlPath.empty()) {
    JsonlFile.open(JsonlPath);
    if (!JsonlFile) {
      std::fprintf(stderr, "error: cannot open '%s'\n", JsonlPath.c_str());
      return 1;
    }
    Opt.Observer = &Sink;
  }

  auto T0 = std::chrono::steady_clock::now();
  Result<analysis::AnalyzeOutcome> Out =
      analysis::analyzeConfiguration(Config, Opt);
  auto WallNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  if (!Out.ok()) {
    std::fprintf(stderr, "error: %s\n", Out.error().message().c_str());
    return 1;
  }

  std::printf("run: %s\n", Out->Sim.summary().c_str());
  std::printf("verdict: %s (%lld missed of %lld jobs)\n\n",
              Out->Analysis.Schedulable ? "schedulable" : "unschedulable",
              static_cast<long long>(Out->Analysis.MissedJobs),
              static_cast<long long>(Out->Analysis.TotalJobs));

  obs::PhaseTree::Node Phases = obs::PhaseTree::mergedRoot();
  uint64_t PhaseNs = obs::PhaseTree::totalNanos(Phases);
  std::printf("phase tree (total %.3f ms, %.1f%% of %.3f ms wall):\n",
              static_cast<double>(PhaseNs) / 1e6,
              WallNs ? 100.0 * static_cast<double>(PhaseNs) /
                           static_cast<double>(WallNs)
                     : 0.0,
              static_cast<double>(WallNs) / 1e6);
  obs::PhaseTree::render(std::cout, Phases);

  auto Counters = obs::Registry::global().counterValues();
  std::sort(Counters.begin(), Counters.end(),
            [](const auto &A, const auto &B) {
              return A.second > B.second;
            });
  std::printf("\ntop counters:\n");
  size_t Shown = 0;
  for (const auto &[Name, Value] : Counters) {
    if (Shown++ >= 12)
      break;
    std::printf("  %-36s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Value));
  }
  std::printf("\nhistograms:\n");
  for (const auto &[Name, H] : obs::Registry::global().histograms())
    std::printf("  %-36s n=%llu min=%llu mean=%.1f max=%llu\n",
                Name.c_str(),
                static_cast<unsigned long long>(H.count()),
                static_cast<unsigned long long>(H.min()), H.mean(),
                static_cast<unsigned long long>(H.max()));

  if (!TracePath.empty()) {
    std::string Err;
    if (!obs::writeChromeTraceFile(TracePath, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("\ntrace: %zu phases -> %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                obs::spanCount(), TracePath.c_str());
  }
  if (!ReportPath.empty()) {
    obs::RunReport Report("profile_run");
    Report.addCount("jobs.target", Jobs);
    Report.addCount("schedulable", Out->Analysis.Schedulable ? 1 : 0);
    Report.addCount("jobs.missed",
                    static_cast<uint64_t>(Out->Analysis.MissedJobs));
    Report.addCount("jobs.total",
                    static_cast<uint64_t>(Out->Analysis.TotalJobs));
    Report.addStat("wall_ms", static_cast<double>(WallNs) / 1e6);
    std::string Err;
    if (!Report.writeFile(ReportPath, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportPath.c_str());
  }

  if (!JsonlPath.empty())
    std::printf("\nJSONL events: %llu lines -> %s\n",
                static_cast<unsigned long long>(Sink.linesWritten()),
                JsonlPath.c_str());
  return Out->Analysis.Schedulable ? 0 : 2;
}
