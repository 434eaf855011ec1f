//===- bench/bench_observers.cpp - E4: observer verification cost ----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Measures the §3 observer verifications: exhaustive exploration of each
// component automaton against its nondeterministic driver environment.
// The series over the harness horizon shows the (expected) exponential
// growth of the verification state space — and why verification is done
// once per component, while per-configuration analysis uses simulation.
//
// Also guards the other observer cost: the obs:: phase timers and their
// timeline around the hot simulation loop. BM_SimTimelineGuard runs the
// same phase-timed simulation with observability off and with every phase
// recorded into the timeline, and fails the benchmark when the measured
// overhead exceeds the asserted bound.
//
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"
#include "gen/Workload.h"
#include "nsa/Simulator.h"
#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "verify/Observers.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace swa;

static void BM_VerifyTsSingleExecution(benchmark::State &State) {
  int Ticks = static_cast<int>(State.range(0));
  uint64_t States = 0;
  bool Holds = false;
  for (auto _ : State) {
    auto Run =
        verify::verifyTsSingleExecution(cfg::SchedulerKind::FPPS, Ticks);
    if (!Run.ok()) {
      State.SkipWithError(Run.error().message().c_str());
      return;
    }
    States = Run->Mc.StatesExplored;
    Holds = Run->Holds;
  }
  State.counters["states"] = static_cast<double>(States);
  State.counters["holds"] = Holds ? 1 : 0;
}
BENCHMARK(BM_VerifyTsSingleExecution)
    ->DenseRange(3, 7, 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_VerifyTaskWcet(benchmark::State &State) {
  int Ticks = static_cast<int>(State.range(0));
  uint64_t States = 0;
  for (auto _ : State) {
    auto Run = verify::verifyTaskWcet(2, Ticks - 2, Ticks);
    if (!Run.ok()) {
      State.SkipWithError(Run.error().message().c_str());
      return;
    }
    States = Run->Mc.StatesExplored;
    if (!Run->Holds) {
      State.SkipWithError("R2 violated!");
      return;
    }
  }
  State.counters["states"] = static_cast<double>(States);
}
BENCHMARK(BM_VerifyTaskWcet)
    ->DenseRange(5, 10, 1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

static void BM_VerifyFullSuite(benchmark::State &State) {
  size_t Requirements = 0;
  for (auto _ : State) {
    auto Suite = verify::verifyComponentLibrary(/*Ticks=*/4);
    if (!Suite.ok()) {
      State.SkipWithError(Suite.error().message().c_str());
      return;
    }
    Requirements = Suite->size();
    for (const verify::VerificationOutcome &O : *Suite)
      if (!O.Holds) {
        State.SkipWithError(("violated: " + O.Id).c_str());
        return;
      }
  }
  State.counters["requirements"] = static_cast<double>(Requirements);
}
BENCHMARK(BM_VerifyFullSuite)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Timeline overhead on the hot simulation loop
//===----------------------------------------------------------------------===//

namespace {

/// The search's per-item instrumentation shape: one phase wrapped around
/// each simulation run (which times its own `simulate` phase inside). The
/// Simulator is reused (run() resets), exactly like the search's hot loop.
uint64_t phaseTimedSimulation(nsa::Simulator &Sim, int Runs) {
  uint64_t Actions = 0;
  for (int I = 0; I < Runs; ++I) {
    obs::ScopedTimer ItemTimer("bench.run");
    nsa::SimResult R = Sim.run();
    Actions += R.ActionCount;
    benchmark::DoNotOptimize(R.ok());
  }
  return Actions;
}

/// Wall time of \p Runs phase-timed simulations.
double blockNanos(nsa::Simulator &Sim, int Runs) {
  auto T0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(phaseTimedSimulation(Sim, Runs));
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// Switches between the guard's two arms.
void setObservability(bool On) {
  obs::setEnabled(On);
  obs::setSpansEnabled(On);
}

} // namespace

// Asserted overhead bound: with observability off the timers are
// branch-only, so the off arm is the baseline, and with every phase
// recorded into the timeline the per-run cost must stay bounded. Timers
// record only when obs::enabled(), so the "on" arm also publishes the
// simulator's counters: the bound covers both. The arms
// alternate in blocks of Runs simulations over Pairs pairs (off-on, then
// on-off, so a steady drift of the host cancels), and the guard reads the
// median of the per-pair on/off ratios, so a few blocks disturbed by other
// load cannot fail it. Violations fail the benchmark, so `bench_observers`
// doubles as a perf contract.
static void BM_SimTimelineGuard(benchmark::State &State) {
  cfg::Config Config = gen::industrialConfigWithJobs(/*Jobs=*/300,
                                                     /*Seed=*/3);
  auto Model = core::buildModel(Config);
  if (!Model.ok()) {
    State.SkipWithError(Model.error().message().c_str());
    return;
  }
  nsa::Simulator Sim(*Model->Net);
  const int Runs = 20;
  const int Pairs = 9;

  setObservability(false);
  blockNanos(Sim, Runs); // Warm-up: page in code and model state.
  obs::resetSpans();
  std::vector<double> Ratios;
  for (int Pair = 0; Pair < Pairs; ++Pair) {
    double OffNs = 0, OnNs = 0;
    for (int Arm = 0; Arm < 2; ++Arm) {
      bool On = (Arm == 1) != (Pair % 2 == 1);
      setObservability(On);
      (On ? OnNs : OffNs) = blockNanos(Sim, Runs);
    }
    Ratios.push_back(OffNs > 0 ? OnNs / OffNs : 1);
  }
  size_t Events = obs::spanCount();
  setObservability(false);
  obs::resetSpans();
  obs::PhaseTree::resetAll();

  std::sort(Ratios.begin(), Ratios.end());
  double OnOverhead = Ratios[Ratios.size() / 2] - 1;
  // Branch-only check: the disabled path is the baseline itself, so the
  // bound lives on the enabled path. A recorded phase (two clock reads,
  // a tree node, a ring slot) costs ~100ns; a block of 20 simulation runs
  // of a 300-job model dwarfs that, so anything past 15% is a broken fast
  // path.
  if (OnOverhead > 0.15) {
    State.SkipWithError(
        ("timeline overhead " + std::to_string(OnOverhead * 100) +
         "% exceeds the asserted 15% bound")
            .c_str());
    return;
  }
  if (Events < static_cast<size_t>(Pairs * Runs)) {
    State.SkipWithError("timeline-on blocks recorded no phases");
    return;
  }

  for (auto _ : State)
    benchmark::DoNotOptimize(phaseTimedSimulation(Sim, 1));
  State.counters["timeline_on_overhead_pct"] = OnOverhead * 100;
  State.counters["runs_timed"] = 2 * Pairs * Runs;
}
BENCHMARK(BM_SimTimelineGuard)->Unit(benchmark::kMillisecond);

SWA_BENCH_MAIN();
