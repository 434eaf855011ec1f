//===- difftest/Oracles.cpp - Differential oracle pairs ---------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "difftest/Oracles.h"

#include "analysis/Analyzer.h"
#include "analysis/Rta.h"
#include "analysis/Schedulability.h"
#include "analysis/Sensitivity.h"
#include "config/Decompose.h"
#include "configio/ConfigXml.h"
#include "core/SystemTrace.h"
#include "difftest/TraceInvariants.h"
#include "mc/ModelChecker.h"
#include "obs/Span.h"
#include "sa/Compile.h"
#include "support/StringUtils.h"

#include <set>

using namespace swa;
using namespace swa::difftest;

const char *swa::difftest::oraclePairName(OraclePair P) {
  switch (P) {
  case OraclePair::VmVsInterpreter:
    return "vm-vs-interpreter";
  case OraclePair::SimVsRta:
    return "sim-vs-rta";
  case OraclePair::SimVsMc:
    return "sim-vs-mc";
  case OraclePair::TraceInvariants:
    return "trace-invariants";
  case OraclePair::XmlRoundTrip:
    return "xml-round-trip";
  case OraclePair::EarlyExitVsFull:
    return "early-exit-vs-full";
  case OraclePair::DecomposedVsMonolithic:
    return "decomposed-vs-monolithic";
  case OraclePair::SensitivitySlack:
    return "sensitivity-slack";
  }
  return "<bad>";
}

namespace {

/// True when RTA's preconditions hold for partition \p P of \p C: FPPS,
/// alone on its core, one window spanning the whole hyperperiod, and no
/// messages touching its tasks.
bool rtaApplies(const cfg::Config &C, int P) {
  const cfg::Partition &Part = C.Partitions[static_cast<size_t>(P)];
  if (Part.Scheduler != cfg::SchedulerKind::FPPS || Part.Core < 0)
    return false;
  if (Part.Windows.size() != 1 || Part.Windows[0].Start != 0 ||
      Part.Windows[0].End != C.hyperperiod())
    return false;
  for (size_t Q = 0; Q < C.Partitions.size(); ++Q)
    if (Q != static_cast<size_t>(P) &&
        C.Partitions[Q].Core == Part.Core)
      return false;
  for (const cfg::Message &M : C.Messages)
    if (M.Sender.Partition == P || M.Receiver.Partition == P)
      return false;
  return true;
}

bool distinctPriorities(const cfg::Partition &Part) {
  std::set<int> Seen;
  for (const cfg::Task &T : Part.Tasks)
    if (!Seen.insert(T.Priority).second)
      return false;
  return true;
}

} // namespace

OracleReport swa::difftest::runOracles(const cfg::Config &Config,
                                       const OracleOptions &Options) {
  OracleReport Rep;
  auto Mismatch = [&](OraclePair Pair, std::string Expected,
                      std::string Actual, std::string Detail) {
    Rep.Mismatches.push_back({Pair, std::move(Expected), std::move(Actual),
                              std::move(Detail)});
  };

  // --- Primary pipeline: build, simulate with the online checker. ------
  Result<core::BuiltModel> Model = core::buildModel(Config);
  if (!Model.ok()) {
    Rep.SkipReason = "rejected: " + Model.error().message();
    return Rep;
  }

  TraceInvariantChecker Checker(*Model);
  const int NT = static_cast<int>(Model->TaskAutomaton.size());
  nsa::SimOptions SimOpts;
  SimOpts.WallClockBudgetMs = Options.SimBudgetMs;
  if (Options.CheckInvariants)
    SimOpts.Observer = &Checker;
  // Watch the failure flags so the full run reports its first-miss
  // instant/task set — the reference the early-exit and decomposition
  // pairs compare against. Watching never perturbs the run.
  if (Model->IsFailedSlot >= 0) {
    SimOpts.FailSlotBase = Model->IsFailedSlot;
    SimOpts.FailSlotCount = NT;
  }
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult Primary = [&] {
    obs::Span VmSpan("vm.run", "difftest");
    return Sim.run(SimOpts);
  }();
  if (Options.CheckInvariants)
    ++Rep.PairsRun;

  if (Primary.Stop == nsa::StopReason::InvariantViolation) {
    Mismatch(OraclePair::TraceInvariants, "invariants hold",
             "invariant violated", Primary.Error);
    return Rep; // The run is truncated; downstream comparisons would lie.
  }
  if (Primary.Stop == nsa::StopReason::BudgetExceeded ||
      Primary.Stop == nsa::StopReason::Cancelled) {
    Rep.SkipReason = "guard rail: " + Primary.Error;
    return Rep;
  }
  if (!Primary.ok()) {
    Mismatch(OraclePair::TraceInvariants, "run completes",
             formatString("stopped: %s",
                          nsa::stopReasonName(Primary.Stop)),
             Primary.Error);
    return Rep;
  }

  core::SystemTrace SysTrace = core::mapTrace(*Model, Primary.Events);
  analysis::AnalysisResult Analysis =
      analysis::analyzeTrace(Config, SysTrace);

  // --- VM vs tree interpreter. -----------------------------------------
  {
    ++Rep.PairsRun;
    Result<core::BuiltModel> Stripped = core::buildModel(Config);
    if (Stripped.ok()) {
      sa::stripBytecode(*Stripped->Net);
      nsa::SimOptions NoVm;
      NoVm.WallClockBudgetMs = Options.SimBudgetMs;
      nsa::Simulator Sim2(*Stripped->Net);
      nsa::SimResult Interp = [&] {
        obs::Span InterpSpan("interp.run", "difftest");
        return Sim2.run(NoVm);
      }();
      if (!Interp.ok()) {
        Mismatch(OraclePair::VmVsInterpreter, "run completes",
                 formatString("interpreter run stopped: %s",
                              nsa::stopReasonName(Interp.Stop)),
                 Interp.Error);
      } else {
        if (!nsa::syncTracesEqual(Primary.Events, Interp.Events))
          Mismatch(OraclePair::VmVsInterpreter, "identical sync traces",
                   "traces differ",
                   formatString("VM run: %llu actions, interpreter run: "
                                "%llu actions",
                                static_cast<unsigned long long>(
                                    Primary.ActionCount),
                                static_cast<unsigned long long>(
                                    Interp.ActionCount)));
        if (!(Primary.Final == Interp.Final))
          Mismatch(OraclePair::VmVsInterpreter, "identical final states",
                   "final states differ", "VM and tree-interpreter runs "
                   "end in different NSA states");
      }
    }
  }

  // --- Simulator verdict vs analytic RTA bound. ------------------------
  for (size_t P = 0; P < Config.Partitions.size(); ++P) {
    if (!rtaApplies(Config, static_cast<int>(P)))
      continue;
    ++Rep.PairsRun;
    analysis::RtaResult Rta =
        analysis::responseTimeAnalysis(Config, static_cast<int>(P));
    const cfg::Partition &Part = Config.Partitions[P];
    bool SimPartSchedulable = true;
    for (size_t T = 0; T < Part.Tasks.size(); ++T) {
      int Gid = Config.globalTaskId(
          {static_cast<int>(P), static_cast<int>(T)});
      int64_t Worst = Analysis.WorstResponse[static_cast<size_t>(Gid)];
      if (Worst < 0)
        SimPartSchedulable = false;
      int64_t Bound = Rta.Response[T];
      // Soundness: the observed worst response never exceeds the bound.
      if (Bound >= 0 && Worst >= 0 && Worst > Bound)
        Mismatch(OraclePair::SimVsRta,
                 formatString("response <= RTA bound %lld",
                              static_cast<long long>(Bound)),
                 formatString("worst observed response %lld",
                              static_cast<long long>(Worst)),
                 formatString("partition %zu task %zu ('%s')", P, T,
                              Part.Tasks[T].Name.c_str()));
    }
    if (Rta.Schedulable && !SimPartSchedulable)
      Mismatch(OraclePair::SimVsRta, "RTA: schedulable",
               "simulator: job missed",
               formatString("partition %zu ('%s')", P,
                            Part.Name.c_str()));
    // With distinct priorities the critical instant argument is exact on
    // synchronous release, so the verdicts must agree both ways.
    if (distinctPriorities(Part) && !Rta.Schedulable &&
        SimPartSchedulable)
      Mismatch(OraclePair::SimVsRta, "RTA: unschedulable",
               "simulator: all deadlines met",
               formatString("partition %zu ('%s'), distinct priorities",
                            P, Part.Name.c_str()));
  }

  // --- Simulator final state vs model-checker census. ------------------
  Result<int64_t> Jobs = Config.checkedJobCount();
  Result<cfg::TimeValue> L = Config.checkedHyperperiod();
  if (Options.EnableMc && Jobs.ok() && *Jobs <= Options.McMaxJobs &&
      L.ok() && *L <= Options.McMaxHyperperiod) {
    mc::McOptions McOpts;
    McOpts.MaxStates = Options.McMaxStates;
    mc::ModelChecker Mc(*Model->Net);
    mc::McResult Census = Mc.explore(McOpts);
    if (Census.ok() && Census.CompleteRuns > 0) {
      ++Rep.PairsRun;
      if (Census.DistinctFinalStates != 1)
        Mismatch(OraclePair::SimVsMc, "1 distinct final state",
                 formatString("%llu distinct final states",
                              static_cast<unsigned long long>(
                                  Census.DistinctFinalStates)),
                 "trace-determinism theorem violated across "
                 "interleavings");
      else if (Census.FinalStateHash !=
               nsa::StateHash()(Primary.Final))
        Mismatch(OraclePair::SimVsMc,
                 "census final state == simulator final state",
                 "final-state hashes differ",
                 formatString("mc=%llu sim=%llu",
                              static_cast<unsigned long long>(
                                  Census.FinalStateHash),
                              static_cast<unsigned long long>(
                                  nsa::StateHash()(Primary.Final))));
    }
  }

  // --- configio round trip: writeXml(parseXml(x)) is a fixed point. ----
  {
    ++Rep.PairsRun;
    std::string Doc = configio::writeConfigXml(Config);
    Result<cfg::Config> Back = configio::parseConfigXml(Doc);
    if (!Back.ok())
      Mismatch(OraclePair::XmlRoundTrip, "parse succeeds",
               "parse failed", Back.error().message());
    else if (configio::writeConfigXml(*Back) != Doc)
      Mismatch(OraclePair::XmlRoundTrip, "byte-identical document",
               "document changed after round trip",
               "a field was dropped, defaulted or reordered");
  }

  // --- First-miss early exit vs the full run. --------------------------
  // Reference facts come from the primary run's fail-slot watch; the
  // early-exit run stops at the first miss instant and must agree on the
  // verdict, the instant and the instant's task set, and must never
  // report a task the full run did not fail.
  std::vector<char> FullFailed(static_cast<size_t>(NT), 0);
  bool FullAnyFailed = false;
  if (Model->IsFailedSlot >= 0) {
    for (int G = 0; G < NT; ++G)
      if (Primary.Final
              .Store[static_cast<size_t>(Model->IsFailedSlot + G)] != 0) {
        FullFailed[static_cast<size_t>(G)] = 1;
        FullAnyFailed = true;
      }
  }
  if (Model->IsFailedSlot >= 0) {
    ++Rep.PairsRun;
    nsa::SimOptions EarlyOpts;
    EarlyOpts.WallClockBudgetMs = Options.SimBudgetMs;
    EarlyOpts.StopOnFirstMiss = true;
    Result<analysis::VerdictOutcome> EarlyR =
        analysis::analyzeVerdictOnly(Config, EarlyOpts);
    if (!EarlyR.ok()) {
      Mismatch(OraclePair::EarlyExitVsFull, "early-exit run completes",
               "error", EarlyR.error().message());
    } else if (!EarlyR->decided()) {
      --Rep.PairsRun; // Guard rail ended the run: no comparison.
    } else {
      const analysis::VerdictOutcome &E = *EarlyR;
      if (E.Schedulable == FullAnyFailed)
        Mismatch(OraclePair::EarlyExitVsFull,
                 FullAnyFailed ? "unschedulable" : "schedulable",
                 E.Schedulable ? "schedulable" : "unschedulable",
                 "early-exit verdict diverges from the full run");
      if (E.FirstMissTime != Primary.FirstMissTime)
        Mismatch(OraclePair::EarlyExitVsFull,
                 formatString("first miss at t=%lld",
                              static_cast<long long>(Primary.FirstMissTime)),
                 formatString("first miss at t=%lld",
                              static_cast<long long>(E.FirstMissTime)),
                 "first-miss instant diverges");
      if (E.FirstMissTasks != Primary.FirstMissSlots)
        Mismatch(OraclePair::EarlyExitVsFull,
                 formatString("%zu tasks at the first miss instant",
                              Primary.FirstMissSlots.size()),
                 formatString("%zu tasks at the first miss instant",
                              E.FirstMissTasks.size()),
                 "first-miss task set diverges");
      for (size_t G = 0; G < E.TaskFailed.size(); ++G)
        if (E.TaskFailed[G] && !FullFailed[G]) {
          Mismatch(OraclePair::EarlyExitVsFull,
                   "early-exit failures are a subset of the full run's",
                   formatString("task gid %zu failed only under early exit",
                                G),
                   "a truncated run observed a miss the full run did not");
          break;
        }
    }
  }

  // --- Per-component evaluation + merge vs the monolithic run. ---------
  if (Model->IsFailedSlot >= 0) {
    cfg::Decomposition D = cfg::decomposeConfig(Config);
    if (D.Decomposed) {
      ++Rep.PairsRun;
      bool Usable = true;
      std::vector<analysis::ComponentVerdict> Parts;
      for (cfg::Component &C : D.Components) {
        if (Error E = C.Sub.validate()) {
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   "components validate", "component config invalid",
                   E.message());
          Usable = false;
          break;
        }
        nsa::SimOptions SubOpts;
        SubOpts.WallClockBudgetMs = Options.SimBudgetMs;
        SubOpts.Horizon = D.Horizon;
        Result<analysis::VerdictOutcome> R =
            analysis::analyzeVerdictOnly(C.Sub, SubOpts);
        if (!R.ok()) {
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   "component run completes", "error",
                   R.error().message());
          Usable = false;
          break;
        }
        if (!R->decided()) {
          --Rep.PairsRun; // Guard rail: no comparison.
          Usable = false;
          break;
        }
        Parts.push_back({std::move(*R), C.GidMap});
      }
      if (Usable) {
        analysis::VerdictOutcome M =
            analysis::mergeComponentVerdicts(Parts, NT);
        if (M.Schedulable == FullAnyFailed)
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   FullAnyFailed ? "unschedulable" : "schedulable",
                   M.Schedulable ? "schedulable" : "unschedulable",
                   "merged component verdict diverges from the "
                   "monolithic run");
        if (M.TaskFailed != FullFailed)
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   "identical per-task failure flags",
                   "flags differ",
                   formatString("merged %lld failed tasks, monolithic "
                                "run disagrees on at least one gid",
                                static_cast<long long>(M.FailedTasks)));
        if (M.FirstMissTime != Primary.FirstMissTime)
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   formatString("first miss at t=%lld",
                                static_cast<long long>(
                                    Primary.FirstMissTime)),
                   formatString("first miss at t=%lld",
                                static_cast<long long>(M.FirstMissTime)),
                   "first-miss instant diverges");
        if (M.FirstMissTasks != Primary.FirstMissSlots)
          Mismatch(OraclePair::DecomposedVsMonolithic,
                   formatString("%zu tasks at the first miss instant",
                                Primary.FirstMissSlots.size()),
                   formatString("%zu tasks at the first miss instant",
                                M.FirstMissTasks.size()),
                   "first-miss task set diverges");
      }
    }
  }

  // --- WCET slack certificates vs fresh full verdicts. -----------------
  // The sensitivity search runs early-exit probes through a verdict
  // cache; re-verifying its certificate pair with *fresh* full runs (no
  // early exit, no cache, no arena) closes the loop on that whole
  // machinery: at the reported slack the system must be schedulable, one
  // tolerance past it the verdict must flip.
  if (Options.EnableSensitivity && Model->IsFailedSlot >= 0 && Jobs.ok() &&
      *Jobs <= Options.SensitivityMaxJobs) {
    analysis::SensitivityOptions SOpts;
    SOpts.QueryPeriod = false;
    SOpts.QueryOffset = false;
    SOpts.QueryFrontier = false;
    SOpts.ProbeBudgetMs = Options.SimBudgetMs;
    Result<analysis::SensitivityResult> SR =
        analysis::analyzeSensitivity(Config, SOpts);
    if (!SR.ok()) {
      ++Rep.PairsRun;
      Mismatch(OraclePair::SensitivitySlack,
               "sensitivity analysis completes", "error",
               SR.error().message());
    } else if (SR->BaseDecided) {
      ++Rep.PairsRun;
      if (SR->BaseSchedulable == FullAnyFailed)
        Mismatch(OraclePair::SensitivitySlack,
                 FullAnyFailed ? "unschedulable" : "schedulable",
                 SR->BaseSchedulable ? "schedulable" : "unschedulable",
                 "sensitivity base verdict diverges from the primary run");
      auto FreshVerdict =
          [&](const cfg::Config &C) -> Result<analysis::VerdictOutcome> {
        nsa::SimOptions FullOpts;
        FullOpts.WallClockBudgetMs = Options.SimBudgetMs;
        return analysis::analyzeVerdictOnly(C, FullOpts);
      };
      for (const analysis::WcetSlackResult &W : SR->Wcet) {
        if (!W.Decided)
          continue; // Guard rail ended the query: nothing to certify.
        if (W.HasPassing) {
          Result<analysis::VerdictOutcome> V = FreshVerdict(W.LargestPassing);
          if (V.ok() && V->decided() && !V->Schedulable)
            Mismatch(OraclePair::SensitivitySlack,
                     formatString("schedulable at slack %lld",
                                  static_cast<long long>(W.SlackTicks)),
                     "fresh full run: unschedulable",
                     formatString("task gid %d largest-passing certificate",
                                  W.TaskGid));
        }
        if (W.HasFailing) {
          Result<analysis::VerdictOutcome> V = FreshVerdict(W.SmallestFailing);
          if (V.ok() && V->decided() && V->Schedulable)
            Mismatch(OraclePair::SensitivitySlack,
                     formatString("unschedulable past slack %lld",
                                  static_cast<long long>(W.SlackTicks)),
                     "fresh full run: schedulable",
                     formatString("task gid %d smallest-failing certificate",
                                  W.TaskGid));
        }
      }
    }
  }

  return Rep;
}
