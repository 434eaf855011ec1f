//===- bench/bench_construction.cpp - E3: Algorithm 1 cost -----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Measures instance construction (Algorithm 1) alone across configuration
// sizes: the paper's approach regenerates the NSA instance for every
// candidate configuration a scheduling tool proposes, so construction must
// scale linearly with configuration size.
//
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"
#include "gen/Workload.h"
#include "models/ModelLibrary.h"
#include "sa/NetworkBuilder.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace swa;

namespace {

/// core::buildModel, its time added to \p TotalNs (the model's
/// destruction excluded).
Result<core::BuiltModel> timedBuild(double &TotalNs,
                                    const cfg::Config &Config) {
  auto T0 = std::chrono::steady_clock::now();
  Result<core::BuiltModel> Model = core::buildModel(Config);
  TotalNs += std::chrono::duration<double, std::nano>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  return Model;
}

/// E3's linearity read straight off the bench output: build time per job,
/// flat across arguments when Algorithm 1 is linear.
void setNsPerJob(benchmark::State &State, const cfg::Config &Config,
                 double TotalNs) {
  double Builds = static_cast<double>(State.iterations());
  double Jobs = static_cast<double>(Config.jobCount());
  State.counters["ns_per_job"] =
      Builds > 0 && Jobs > 0 ? TotalNs / (Builds * Jobs) : 0.0;
}

} // namespace

static void BM_BuildModel(benchmark::State &State) {
  int64_t TargetJobs = State.range(0);
  cfg::Config Config = gen::industrialConfigWithJobs(TargetJobs, /*Seed=*/1);
  size_t Automata = 0;
  double TotalNs = 0;
  for (auto _ : State) {
    Result<core::BuiltModel> Model = timedBuild(TotalNs, Config);
    if (!Model.ok()) {
      State.SkipWithError(Model.error().message().c_str());
      return;
    }
    Automata = Model->Net->Automata.size();
    benchmark::DoNotOptimize(Model->Net);
  }
  State.counters["jobs"] = static_cast<double>(Config.jobCount());
  State.counters["automata"] = static_cast<double>(Automata);
  setNsPerJob(State, Config, TotalNs);
}
BENCHMARK(BM_BuildModel)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Arg(12500)
    ->Unit(benchmark::kMillisecond);

// The front-end alone: parsing + type checking the component library
// against a configuration-sized set of global declarations.
static void BM_CompileComponentLibrary(benchmark::State &State) {
  for (auto _ : State) {
    sa::NetworkBuilder NB;
    if (Error E = NB.addGlobals(models::globalDeclsSource(256, 32, 64))) {
      State.SkipWithError(E.message().c_str());
      return;
    }
    auto Lib = models::ModelLibrary::create(NB.globalDecls());
    if (!Lib.ok()) {
      State.SkipWithError(Lib.error().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(Lib);
  }
}
BENCHMARK(BM_CompileComponentLibrary)->Unit(benchmark::kMillisecond);

SWA_BENCH_MAIN();
