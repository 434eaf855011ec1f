//===- examples/sensitivity.cpp - Parametric sensitivity demo -------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Asks the engine *how far* a schedulable configuration is from the edge
// instead of the paper's binary verdict: per-task WCET slack (with its
// certificate pair), period and window-offset feasibility intervals, and
// the uniform-inflation breakdown frontier — each computed by monotone
// binary search driving the early-exit simulator as an oracle.
//
//   $ ./sensitivity [seed] [--param wcet|period|offset|frontier|all]
//                   [--tolerance TICKS] [--workers N] [--budget-ms MS]
//                   [--report-out FILE] [--trace-out FILE]
//
// --param restricts the query families (default all). --tolerance sets
// the convergence granularity of the tick-valued searches (default 1:
// adjacent certificates). --workers fans the (task, parameter) queries
// out over N threads; the printed summary is byte-identical for every N.
// Numeric values are non-negative decimal integers (--tolerance at
// least 1, --workers 1 to 256); a malformed or missing value, and any other
// argument that is not such an integer seed, is rejected with the usage
// text (exit 1; exit 2 means the base configuration stayed undecided).
// --trace-out writes a chrome://tracing (Perfetto) timeline of the timed
// phases (the base probe, each query family's queries, builds and
// simulations), one lane per thread; --report-out writes a
// machine-readable obs::RunReport JSON. Neither changes the summary.
//
//===----------------------------------------------------------------------===//

#include "analysis/Sensitivity.h"
#include "gen/Workload.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace swa;

static const char kUsage[] =
    "usage: sensitivity [seed] [--param wcet|period|offset|frontier|all]\n"
    "                   [--tolerance TICKS] [--workers N] [--budget-ms MS]\n"
    "                   [--report-out FILE] [--trace-out FILE]\n"
    "N is 1..256; TICKS is at least 1; MS is a non-negative integer\n";

int main(int argc, char **argv) {
  uint64_t Seed = 7;
  const char *Param = "all";
  int64_t Tolerance = 1;
  int64_t Workers = 1;
  int64_t BudgetMs = -1;
  const char *TraceOut = nullptr, *ReportOut = nullptr;
  for (int I = 1; I < argc; ++I) {
    // Numeric flags: a value outside [Min, Max] — negative, malformed or
    // missing — is a usage error, never a silent default.
    int64_t *Num = nullptr;
    int64_t Min = 0, Max = INT64_MAX;
    if (std::strcmp(argv[I], "--tolerance") == 0) {
      Num = &Tolerance;
      Min = 1;
    } else if (std::strcmp(argv[I], "--workers") == 0) {
      Num = &Workers;
      Min = 1;
      Max = 256;
    } else if (std::strcmp(argv[I], "--budget-ms") == 0) {
      Num = &BudgetMs;
    }
    // String flags take the next argument, whatever it is.
    const char **Str = nullptr;
    if (std::strcmp(argv[I], "--param") == 0)
      Str = &Param;
    else if (std::strcmp(argv[I], "--trace-out") == 0)
      Str = &TraceOut;
    else if (std::strcmp(argv[I], "--report-out") == 0)
      Str = &ReportOut;

    if (Num) {
      uint64_t V = 0;
      if (I + 1 >= argc || !parseDecimal(argv[I + 1], V) ||
          V < static_cast<uint64_t>(Min) || V > static_cast<uint64_t>(Max)) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n%s",
                     I + 1 < argc ? argv[I + 1] : "", argv[I], kUsage);
        return 1;
      }
      *Num = static_cast<int64_t>(V);
      ++I;
    } else if (Str) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n%s", argv[I],
                     kUsage);
        return 1;
      }
      *Str = argv[++I];
    } else if (!parseDecimal(argv[I], Seed)) {
      std::fprintf(stderr, "error: unrecognized argument '%s'\n%s", argv[I],
                   kUsage);
      return 1;
    }
  }

  if (TraceOut || ReportOut)
    obs::setEnabled(true);
  if (TraceOut)
    obs::setSpansEnabled(true);

  // A generated task set at moderate utilization, bound windows kept —
  // the sensitivity questions only make sense on a concrete layout.
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.45;
  Params.Seed = Seed;
  cfg::Config Config = gen::industrialConfig(Params);

  std::printf("config: %zu partitions, %d tasks, %zu messages on %zu "
              "cores, L=%lld\n",
              Config.Partitions.size(), Config.numTasks(),
              Config.Messages.size(), Config.Cores.size(),
              static_cast<long long>(Config.hyperperiod()));

  analysis::SensitivityOptions Opts;
  Opts.ToleranceTicks = Tolerance;
  Opts.Workers = static_cast<int>(Workers);
  Opts.ProbeBudgetMs = BudgetMs;
  if (std::strcmp(Param, "all") != 0) {
    Opts.QueryWcet = std::strcmp(Param, "wcet") == 0;
    Opts.QueryPeriod = std::strcmp(Param, "period") == 0;
    Opts.QueryOffset = std::strcmp(Param, "offset") == 0;
    Opts.QueryFrontier = std::strcmp(Param, "frontier") == 0;
    if (!Opts.QueryWcet && !Opts.QueryPeriod && !Opts.QueryOffset &&
        !Opts.QueryFrontier) {
      std::fprintf(stderr,
                   "error: --param must be wcet|period|offset|frontier|all, "
                   "got '%s'\n",
                   Param);
      return 1;
    }
  }

  auto T0 = std::chrono::steady_clock::now();
  Result<analysis::SensitivityResult> Res =
      analysis::analyzeSensitivity(Config, Opts);
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  if (!Res.ok()) {
    std::fprintf(stderr, "error: %s\n", Res.error().message().c_str());
    return 1;
  }

  std::printf("\n%s", Res->summary().c_str());
  std::printf("\n%d probes in %.3f s (%.0f probes/s, workers=%d)\n",
              Res->TotalProbes, ElapsedSec,
              ElapsedSec > 0 ? Res->TotalProbes / ElapsedSec : 0.0,
              static_cast<int>(Workers));

  if (TraceOut) {
    std::string Err;
    if (!obs::writeChromeTraceFile(TraceOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("trace: %zu phases -> %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                obs::spanCount(), TraceOut);
  }
  if (ReportOut) {
    obs::RunReport Report("sensitivity");
    analysis::fillSensitivityReport(Report, *Res, ElapsedSec);
    std::string Err;
    if (!Report.writeFile(ReportOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportOut);
  }

  if (!Res->BaseDecided)
    return 2;
  return 0;
}
