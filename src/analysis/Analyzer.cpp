//===- analysis/Analyzer.cpp - One-call schedulability analysis ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "analysis/ModelArena.h"
#include "obs/Metrics.h"
#include "obs/Timer.h"

#include <algorithm>

using namespace swa;
using namespace swa::analysis;

bool AnalyzeOutcome::failureFlagsConsistent() const {
  if (Model.IsFailedSlot < 0)
    return true;
  int NT = static_cast<int>(Model.TaskAutomaton.size());
  bool AnyFailed = false;
  for (int G = 0; G < NT; ++G)
    if (Sim.Final.Store[static_cast<size_t>(Model.IsFailedSlot + G)] != 0)
      AnyFailed = true;
  // A job can also miss by never completing without tripping is_failed
  // only if the horizon cut it off; within a full hyperperiod the deadline
  // edges guarantee agreement.
  return AnyFailed == !Analysis.Schedulable;
}

Result<AnalyzeOutcome>
swa::analysis::analyzeConfiguration(const cfg::Config &Config,
                                    const nsa::SimOptions &SimOptions) {
  Result<core::BuiltModel> Model = core::buildModel(Config);
  if (!Model.ok())
    return Model.takeError();

  AnalyzeOutcome Out;
  Out.Model = std::move(*Model);

  nsa::Simulator Sim(*Out.Model.Net);
  Out.Sim = Sim.run(SimOptions);
  if (!Out.Sim.ok())
    return Error::failure("simulation failed: " + Out.Sim.Error);

  {
    obs::ScopedTimer Timer("analyze");
    {
      obs::ScopedTimer MapTimer("map_trace");
      Out.Trace = core::mapTrace(Out.Model, Out.Sim.Events);
    }
    Out.Analysis = analyzeTrace(Config, Out.Trace);
  }
  if (obs::enabled())
    obs::Registry::global().counter("analysis.configurations").add(1);
  return Out;
}

namespace {

/// The shared back half of both analyzeVerdictOnly overloads: run \p Sim
/// over \p Model and read the verdict off the failure flags. The caller
/// owns model and simulator so the arena overload can substitute cached
/// ones.
Result<VerdictOutcome> runVerdictOn(const core::BuiltModel &Model,
                                    nsa::Simulator &Sim,
                                    const nsa::SimOptions &SimOptions) {
  if (Model.IsFailedSlot < 0)
    return Error::failure("model has no failure flags");
  int NT = static_cast<int>(Model.TaskAutomaton.size());
  VerdictOutcome Out;
  Out.TaskFailed.assign(static_cast<size_t>(NT), 0);

  // Watch the contiguous is_failed block so every run — early-exit or
  // full — reports the first-miss instant and its task set. The run is
  // executed here so a guard-rail stop (budget/cancel) surfaces
  // structurally instead of as an opaque error string.
  nsa::SimOptions Opt = SimOptions;
  Opt.RecordTrace = false;
  Opt.FailSlotBase = Model.IsFailedSlot;
  Opt.FailSlotCount = NT;
  nsa::SimResult R = Sim.run(Opt);
  Out.ActionCount = R.ActionCount;
  if (!R.ok()) {
    if (R.Stop == nsa::StopReason::Cancelled ||
        R.Stop == nsa::StopReason::BudgetExceeded) {
      Out.Stop = R.Stop;
      return Out; // No verdict: decided() == false.
    }
    return Error::failure("simulation failed: " + R.Error);
  }

  Out.Stop = R.Stop;
  for (int G = 0; G < NT; ++G) {
    if (R.Final.Store[static_cast<size_t>(Model.IsFailedSlot + G)] != 0) {
      Out.TaskFailed[static_cast<size_t>(G)] = 1;
      ++Out.FailedTasks;
    }
  }
  Out.Schedulable = Out.FailedTasks == 0;
  Out.FirstMissTime = R.FirstMissTime;
  Out.FirstMissTasks = R.FirstMissSlots;
  if (obs::enabled())
    obs::Registry::global().counter("analysis.configurations").add(1);
  return Out;
}

} // namespace

Result<VerdictOutcome>
swa::analysis::analyzeVerdictOnly(const cfg::Config &Config,
                                  const nsa::SimOptions &SimOptions) {
  return analyzeVerdictOnly(Config, SimOptions, nullptr);
}

Result<VerdictOutcome>
swa::analysis::analyzeVerdictOnly(const cfg::Config &Config,
                                  const nsa::SimOptions &SimOptions,
                                  ModelArena *Arena) {
  if (!Arena) {
    Result<core::BuiltModel> Model = core::buildModel(Config);
    if (!Model.ok())
      return Model.takeError();
    nsa::Simulator Sim(*Model->Net);
    return runVerdictOn(*Model, Sim, SimOptions);
  }

  cfg::Fingerprint Shape = cfg::fingerprintShape(Config);
  // On any rebind failure (invalid config, shape-fingerprint collision)
  // fall through to a fresh build, which reproduces the plain overload's
  // behavior — including its error — exactly, and replaces the slot.
  ModelArena::Slot *S = Arena->find(Shape);
  if (!S || core::rebindWindows(S->Model, S->Rebinder, Config)) {
    Result<core::BuiltModel> Model =
        core::buildModel(Config, /*PublishMetrics=*/false);
    if (!Model.ok())
      return Model.takeError();
    S = Arena->emplace(Shape, std::move(*Model));
  }
  return runVerdictOn(S->Model, *S->Sim, SimOptions);
}

VerdictOutcome swa::analysis::mergeComponentVerdicts(
    const std::vector<ComponentVerdict> &Components, int TotalTasks) {
  VerdictOutcome Out;
  Out.TaskFailed.assign(static_cast<size_t>(TotalTasks), 0);
  Out.Schedulable = true;

  // An undecided component (guard-rail stop) poisons the whole verdict:
  // report that component's StopReason so callers see the same taxonomy a
  // monolithic guarded run produces. Decided components are still summed
  // into ActionCount first, so diagnostics stay meaningful.
  for (const ComponentVerdict &C : Components) {
    Out.ActionCount += C.Verdict.ActionCount;
    if (!C.Verdict.decided()) {
      Out.Stop = C.Verdict.Stop;
      Out.Schedulable = false;
      Out.FailedTasks = 0;
      std::fill(Out.TaskFailed.begin(), Out.TaskFailed.end(), 0);
      Out.FirstMissTime = -1;
      Out.FirstMissTasks.clear();
      return Out;
    }
  }

  bool AnyEarly = false;
  for (const ComponentVerdict &C : Components) {
    const VerdictOutcome &V = C.Verdict;
    if (V.Stop == nsa::StopReason::DeadlineMiss)
      AnyEarly = true;
    for (size_t L = 0; L < V.TaskFailed.size(); ++L) {
      if (!V.TaskFailed[L])
        continue;
      int32_t G = L < C.GidMap.size() ? C.GidMap[L] : -1;
      if (G >= 0 && G < TotalTasks)
        Out.TaskFailed[static_cast<size_t>(G)] = 1;
    }
    if (V.FirstMissTime >= 0 &&
        (Out.FirstMissTime < 0 || V.FirstMissTime < Out.FirstMissTime))
      Out.FirstMissTime = V.FirstMissTime;
  }
  for (const ComponentVerdict &C : Components) {
    if (C.Verdict.FirstMissTime != Out.FirstMissTime ||
        Out.FirstMissTime < 0)
      continue;
    for (int32_t L : C.Verdict.FirstMissTasks) {
      int32_t G =
          L >= 0 && static_cast<size_t>(L) < C.GidMap.size() ? C.GidMap[L] : -1;
      if (G >= 0 && G < TotalTasks)
        Out.FirstMissTasks.push_back(G);
    }
  }
  std::sort(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end());
  Out.FirstMissTasks.erase(
      std::unique(Out.FirstMissTasks.begin(), Out.FirstMissTasks.end()),
      Out.FirstMissTasks.end());
  for (char F : Out.TaskFailed)
    Out.FailedTasks += F ? 1 : 0;
  Out.Schedulable = Out.FailedTasks == 0 && Out.FirstMissTime < 0;
  Out.Stop = AnyEarly ? nsa::StopReason::DeadlineMiss
                      : nsa::StopReason::Completed;
  return Out;
}
