//===- examples/config_search.cpp - Scheduling-tool integration demo -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the §4 integration scenario: a scheduling tool explores
// candidate configurations (bindings + window layouts) for a task set and
// uses the stopwatch-automata model as its schedulability oracle.
//
//   $ ./config_search [seed] [--workers N] [--budget-ms MS]
//                     [--checkpoint FILE] [--checkpoint-every-ms MS]
//                     [--resume] [--trace-out FILE] [--report-out FILE]
//
// --workers evaluates candidate batches on N threads; the result is
// byte-identical for every N. --budget-ms caps each candidate's
// simulation wall-clock time: a candidate that exceeds it is logged as
// skipped and the search keeps going. Numeric values are non-negative
// decimal integers (--workers 1 to 256); a malformed value, and any
// other argument that is not such an integer seed, is rejected with the
// usage text (exit 2).
// --trace-out writes a chrome://tracing (Perfetto) timeline of the timed
// phases (search rounds, checkpoints, builds, simulations), one lane per
// thread; --report-out writes a machine-readable obs::RunReport JSON.
// Both turn observability on; neither changes the search result.
//
// --checkpoint makes the search durable: it writes an atomic snapshot of
// the verdict cache and loop state to FILE at round boundaries (every
// round, or throttled by --checkpoint-every-ms) and on exit. --resume
// loads FILE first and continues mid-stream: a run killed at any point
// and resumed this way prints the same verdicts the uninterrupted run
// prints. A corrupt, truncated or foreign snapshot is rejected with a
// typed error and the search starts cold — never a wrong answer.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "gen/Workload.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timer.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

using namespace swa;

static const char kUsage[] =
    "usage: config_search [seed] [--workers N] [--budget-ms MS]\n"
    "                     [--checkpoint FILE] [--checkpoint-every-ms MS]\n"
    "                     [--resume] [--trace-out FILE] [--report-out FILE]\n"
    "N is 1..256; MS values are non-negative integers\n";

int main(int argc, char **argv) {
  uint64_t Seed = 7;
  int64_t Workers = 1;
  int64_t BudgetMs = -1;
  const char *TraceOut = nullptr, *ReportOut = nullptr;
  const char *CheckpointPath = nullptr;
  int64_t CheckpointEveryMs = 0;
  bool Resume = false;
  for (int I = 1; I < argc; ++I) {
    // Numeric flags: a value outside [Min, Max] — negative, malformed or
    // missing — is a usage error, never a silent default.
    int64_t *Num = nullptr;
    int64_t Min = 0, Max = INT64_MAX;
    if (std::strcmp(argv[I], "--workers") == 0) {
      Num = &Workers;
      Min = 1;
      Max = 256;
    } else if (std::strcmp(argv[I], "--budget-ms") == 0) {
      Num = &BudgetMs;
    } else if (std::strcmp(argv[I], "--checkpoint-every-ms") == 0) {
      Num = &CheckpointEveryMs;
    }
    if (Num) {
      uint64_t V = 0;
      if (I + 1 >= argc || !parseDecimal(argv[I + 1], V) ||
          V < static_cast<uint64_t>(Min) || V > static_cast<uint64_t>(Max)) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n%s",
                     I + 1 < argc ? argv[I + 1] : "", argv[I], kUsage);
        return 2;
      }
      *Num = static_cast<int64_t>(V);
      ++I;
    } else if (std::strcmp(argv[I], "--checkpoint") == 0 && I + 1 < argc)
      CheckpointPath = argv[++I];
    else if (std::strcmp(argv[I], "--resume") == 0)
      Resume = true;
    else if (std::strcmp(argv[I], "--trace-out") == 0 && I + 1 < argc)
      TraceOut = argv[++I];
    else if (std::strcmp(argv[I], "--report-out") == 0 && I + 1 < argc)
      ReportOut = argv[++I];
    else if (!parseDecimal(argv[I], Seed)) {
      std::fprintf(stderr, "error: unrecognized argument '%s'\n%s", argv[I],
                   kUsage);
      return 2;
    }
  }

  if (TraceOut || ReportOut)
    obs::setEnabled(true);
  if (TraceOut)
    obs::setSpansEnabled(true);

  // A generated task set whose bindings and windows we discard: the search
  // must find a feasible layout on its own.
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.55;
  Params.Seed = Seed;
  cfg::Config Base = gen::industrialConfig(Params);
  for (cfg::Partition &P : Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }

  std::printf("problem: %zu partitions, %d tasks, %zu messages on %zu "
              "cores\n",
              Base.Partitions.size(), Base.numTasks(),
              Base.Messages.size(), Base.Cores.size());

  schedtool::SearchProblem Problem;
  Problem.Base = Base;
  Problem.Seed = Seed;
  Problem.MaxIterations = 40;
  Problem.Workers = static_cast<int>(Workers);
  Problem.CandidateBudgetMs = BudgetMs;

  // Durable search: load the previous checkpoint when asked, and degrade
  // to a cold start — with the rejection reason — when the file is
  // corrupt, truncated, version-skewed or missing. A snapshot written by
  // a *different* search (other seed/batch/base) is only detectable by
  // the search itself, so that case retries cold below.
  schedtool::SnapshotStats CkptStats;
  schedtool::Snapshot Loaded;
  if (Resume && CheckpointPath) {
    Result<schedtool::Snapshot> S =
        schedtool::loadSnapshot(CheckpointPath, &CkptStats);
    if (S.ok()) {
      Loaded = S.takeValue();
      Problem.Resume = &Loaded;
      std::printf("resume: loaded %s (%zu cache entries, %s search "
                  "state)\n",
                  CheckpointPath, Loaded.ComponentEntries.size(),
                  Loaded.HasSearchState ? "with" : "no");
    } else {
      std::fprintf(stderr, "resume: %s [%s] -- starting cold\n",
                   S.error().message().c_str(),
                   errorCodeName(S.error().code()));
    }
  }
  if (CheckpointPath) {
    Problem.CheckpointPath = CheckpointPath;
    Problem.CheckpointEveryMs = CheckpointEveryMs;
    Problem.CkptStats = &CkptStats;
  }

  auto T0 = std::chrono::steady_clock::now();
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(Problem);
  if (!Res.ok() && Res.error().code() == ErrorCode::SnapshotMismatch) {
    std::fprintf(stderr, "resume: %s [%s] -- rerunning cold\n",
                 Res.error().message().c_str(),
                 errorCodeName(Res.error().code()));
    Problem.Resume = nullptr;
    T0 = std::chrono::steady_clock::now();
    Res = schedtool::searchConfiguration(Problem);
  }
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  if (!Res.ok()) {
    std::fprintf(stderr, "error: %s\n", Res.error().message().c_str());
    return 1;
  }

  for (const std::string &Line : Res->Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("\nevaluated %d configurations (%d skipped by budget); %s\n",
              Res->ConfigurationsEvaluated, Res->CandidatesSkipped,
              Res->Found ? "found a schedulable one"
                         : "no schedulable configuration found");
  std::printf("cache: %d hits / %d misses\n", Res->CacheHits,
              Res->CacheMisses);
  int Lookups = Res->ComponentCacheHits + Res->ComponentCacheMisses;
  std::printf("components: %d candidates decomposed; %d hits / %d misses "
              "(%.0f%% hit rate); %d dirty / %d clean\n",
              Res->DecomposedCandidates, Res->ComponentCacheHits,
              Res->ComponentCacheMisses,
              Lookups > 0 ? 100.0 * Res->ComponentCacheHits / Lookups : 0.0,
              Res->DirtyComponents, Lookups - Res->DirtyComponents);
  std::printf("simulations: %d components + %d whole configs\n",
              Res->ComponentsSimulated, Res->SimulationsRun);
  if (CheckpointPath) {
    std::printf("checkpoint: %llu snapshots written (%llu bytes), %llu "
                "loaded (%llu bytes), %llu entries merged, %llu warm hits\n",
                static_cast<unsigned long long>(CkptStats.SnapshotsWritten),
                static_cast<unsigned long long>(CkptStats.BytesWritten),
                static_cast<unsigned long long>(CkptStats.SnapshotsLoaded),
                static_cast<unsigned long long>(CkptStats.BytesLoaded),
                static_cast<unsigned long long>(
                    CkptStats.ComponentEntriesMerged),
                static_cast<unsigned long long>(CkptStats.SnapshotHits));
    if (CkptStats.WriteFailures > 0)
      std::fprintf(stderr,
                   "checkpoint: %llu write failures (last: %s) -- search "
                   "result unaffected\n",
                   static_cast<unsigned long long>(CkptStats.WriteFailures),
                   CkptStats.LastError.c_str());
  }

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
    obs::RunReport Report("config_search");
    schedtool::fillSearchReport(Report, *Res, ElapsedSec);
    if (CheckpointPath)
      schedtool::fillSnapshotReport(Report, CkptStats);
    std::string Err;
    if (!Report.writeFile(ReportOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportOut);
  }

  if (Res->Found) {
    std::printf("\nchosen binding and windows:\n");
    for (const cfg::Partition &Part : Res->Best.Partitions) {
      std::printf("  %-10s -> core %s, windows:", Part.Name.c_str(),
                  Res->Best.Cores[static_cast<size_t>(Part.Core)].Name.c_str());
      for (const cfg::Window &W : Part.Windows)
        std::printf(" [%lld,%lld)", static_cast<long long>(W.Start),
                    static_cast<long long>(W.End));
      std::printf("\n");
    }
  }
  return Res->Found ? 0 : 2;
}
