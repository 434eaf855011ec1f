//===- bench/bench_sensitivity.cpp - E8: parametric sensitivity -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The sensitivity experiment: how expensive is asking "how far from the
// edge" compared to the paper's single binary verdict. Measures probe
// throughput per query family (WCET slack, period intervals, window
// offsets, breakdown frontier), the worker-scaling of the full analysis,
// and the verdict-cache effect when the same analysis is re-run warm —
// the regime an interactive what-if session lives in.
//
//===----------------------------------------------------------------------===//

#include "analysis/Sensitivity.h"
#include "gen/Workload.h"
#include "schedtool/VerdictCache.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

using namespace swa;

namespace {

// The examples/sensitivity workload: 8 partitions over 4 cores at
// moderate utilization, windows kept — sensitivity only makes sense on a
// schedulable concrete layout.
cfg::Config sensitivityConfig() {
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.45;
  Params.Seed = 7;
  return gen::industrialConfig(Params);
}

// Arg 0 of BM_Sensitivity: which query families run.
enum Family { FWcet, FPeriod, FOffset, FFrontier, FAll };

analysis::SensitivityOptions familyOptions(int Family, int Workers) {
  analysis::SensitivityOptions Opts;
  Opts.Workers = Workers;
  if (Family != FAll) {
    Opts.QueryWcet = Family == FWcet;
    Opts.QueryPeriod = Family == FPeriod;
    Opts.QueryOffset = Family == FOffset;
    Opts.QueryFrontier = Family == FFrontier;
  }
  return Opts;
}

} // namespace

// Probe throughput per query family (workers = 1), then worker scaling
// of the full analysis. The result is byte-identical for every worker
// count, so probes_per_sec is a like-for-like comparison.
static void BM_Sensitivity(benchmark::State &State) {
  int Family = static_cast<int>(State.range(0));
  int Workers = static_cast<int>(State.range(1));
  cfg::Config Config = sensitivityConfig();

  int Probes = 0;
  int64_t TotalProbes = 0;
  for (auto _ : State) {
    analysis::SensitivityOptions Opts = familyOptions(Family, Workers);
    Result<analysis::SensitivityResult> Res =
        analysis::analyzeSensitivity(Config, Opts);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    if (!Res->BaseDecided) {
      State.SkipWithError("base verdict undecided");
      return;
    }
    Probes = Res->TotalProbes;
    TotalProbes += Res->TotalProbes;
  }
  State.counters["probes"] = Probes;
  State.counters["workers"] = Workers;
  State.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalProbes), benchmark::Counter::kIsRate);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_Sensitivity)
    ->ArgsProduct({{FWcet, FPeriod, FOffset, FFrontier, FAll}, {1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);
BENCHMARK(BM_Sensitivity)
    ->ArgsProduct({{FAll}, {2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The warm-cache regime: a caller-owned VerdictCache shared across
// analyses (arg 0 = 1) against a cold per-call cache (arg 0 = 0). Warm,
// every probe is a fingerprint lookup — the floor for re-asking the same
// what-if after an unrelated edit elsewhere in a session.
static void BM_SensitivityCacheReuse(benchmark::State &State) {
  bool Warm = State.range(0) != 0;
  cfg::Config Config = sensitivityConfig();

  schedtool::VerdictCache Cache;
  analysis::SensitivityOptions Opts;
  Opts.Cache = Warm ? &Cache : nullptr;
  if (Warm) {
    Result<analysis::SensitivityResult> Pre =
        analysis::analyzeSensitivity(Config, Opts);
    if (!Pre.ok()) {
      State.SkipWithError(Pre.error().message().c_str());
      return;
    }
  }

  int Probes = 0;
  int64_t TotalProbes = 0;
  for (auto _ : State) {
    Result<analysis::SensitivityResult> Res =
        analysis::analyzeSensitivity(Config, Opts);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    Probes = Res->TotalProbes;
    TotalProbes += Res->TotalProbes;
  }
  State.counters["probes"] = Probes;
  State.counters["warm"] = Warm ? 1 : 0;
  State.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalProbes), benchmark::Counter::kIsRate);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_SensitivityCacheReuse)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

SWA_BENCH_MAIN();
