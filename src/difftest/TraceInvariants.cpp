//===- difftest/TraceInvariants.cpp - Online trace-invariant oracle ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "difftest/TraceInvariants.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace swa;
using namespace swa::difftest;

TraceInvariantChecker::TraceInvariantChecker(const core::BuiltModel &Model)
    : Model(Model), ShadowEx(*Model.Net) {
  const cfg::Config &C = Model.Config;
  int NT = C.numTasks();
  Tasks.resize(static_cast<size_t>(NT));
  for (int G = 0; G < NT; ++G) {
    cfg::TaskRef Ref = C.taskRefOf(G);
    const cfg::Task &T = C.taskOf(Ref);
    TaskFacts &F = Tasks[static_cast<size_t>(G)];
    F.Period = T.Period;
    F.Deadline = T.Deadline;
    F.Wcet = C.boundWcet(Ref);
    F.Partition = Ref.Partition;
    F.Core = C.Partitions[static_cast<size_t>(Ref.Partition)].Core;
  }
  Hyperperiod = C.hyperperiod();

  MergedWindows.resize(C.Partitions.size());
  for (size_t P = 0; P < C.Partitions.size(); ++P) {
    std::vector<cfg::Window> W = C.Partitions[P].Windows;
    std::sort(W.begin(), W.end(),
              [](const cfg::Window &A, const cfg::Window &B) {
                return A.Start < B.Start;
              });
    std::vector<cfg::Window> &Out = MergedWindows[P];
    for (const cfg::Window &Win : W) {
      if (!Out.empty() && Win.Start <= Out.back().End)
        Out.back().End = std::max(Out.back().End, Win.End);
      else
        Out.push_back(Win);
    }
  }

  ExecutingOnCore.assign(C.Cores.size(), -1);
  OpenStart.assign(static_cast<size_t>(NT), -1);
  ExecAccum.assign(static_cast<size_t>(NT), 0);
}

void TraceInvariantChecker::onRunStart(const sa::Network &,
                                       const nsa::State &Initial) {
  Shadow = Initial;
  LastTime = Initial.Now;
  Counters = Stats();
  std::fill(ExecutingOnCore.begin(), ExecutingOnCore.end(), -1);
  std::fill(OpenStart.begin(), OpenStart.end(), int64_t{-1});
  std::fill(ExecAccum.begin(), ExecAccum.end(), int64_t{0});
}

std::string TraceInvariantChecker::compareShadow(const nsa::State &Post,
                                                 const char *When) {
  if (Shadow == Post)
    return {};
  // Name the first diverging component; the full-state inequality is the
  // actual invariant, the detail is for the human reading the reproducer.
  if (Shadow.Now != Post.Now)
    return formatString("shadow divergence (%s): model time %lld, shadow "
                        "expected %lld",
                        When, static_cast<long long>(Post.Now),
                        static_cast<long long>(Shadow.Now));
  for (size_t I = 0; I < Shadow.Locs.size(); ++I)
    if (Shadow.Locs[I] != Post.Locs[I])
      return formatString("shadow divergence (%s): automaton %zu at "
                          "location %d, shadow expected %d",
                          When, I, Post.Locs[I], Shadow.Locs[I]);
  for (size_t I = 0; I < Shadow.Clocks.size(); ++I)
    if (Shadow.clock(I) != Post.clock(I))
      return formatString("shadow divergence (%s): clock %zu is %lld, "
                          "shadow expected %lld (stopwatch rule violated)",
                          When, I, static_cast<long long>(Post.clock(I)),
                          static_cast<long long>(Shadow.clock(I)));
  for (size_t I = 0; I < Shadow.Store.size(); ++I)
    if (Shadow.Store[I] != Post.Store[I])
      return formatString("shadow divergence (%s): store slot %zu is %lld, "
                          "shadow expected %lld",
                          When, I, static_cast<long long>(Post.Store[I]),
                          static_cast<long long>(Shadow.Store[I]));
  return formatString("shadow divergence (%s)", When);
}

std::string TraceInvariantChecker::onExec(int Gid, int64_t Time) {
  const TaskFacts &F = Tasks[static_cast<size_t>(Gid)];
  if (OpenStart[static_cast<size_t>(Gid)] >= 0)
    return formatString("task %d: EX at t=%lld while already executing "
                        "since t=%lld",
                        Gid, static_cast<long long>(Time),
                        static_cast<long long>(
                            OpenStart[static_cast<size_t>(Gid)]));
  if (F.Core >= 0) {
    int &Running = ExecutingOnCore[static_cast<size_t>(F.Core)];
    if (Running >= 0)
      return formatString("core %d: task %d starts executing at t=%lld "
                          "while task %d still runs (mutual exclusion)",
                          F.Core, Gid, static_cast<long long>(Time),
                          Running);
    Running = Gid;
  }
  OpenStart[static_cast<size_t>(Gid)] = Time;
  return {};
}

std::string TraceInvariantChecker::onStopExec(int Gid, int64_t Time,
                                              bool IsFin) {
  const TaskFacts &F = Tasks[static_cast<size_t>(Gid)];
  int64_t Start = OpenStart[static_cast<size_t>(Gid)];
  if (Start >= 0) {
    // Close the open interval: account it and check window containment.
    ExecAccum[static_cast<size_t>(Gid)] += Time - Start;
    if (F.Core >= 0 &&
        ExecutingOnCore[static_cast<size_t>(F.Core)] == Gid)
      ExecutingOnCore[static_cast<size_t>(F.Core)] = -1;
    OpenStart[static_cast<size_t>(Gid)] = -1;
    if (Time > Start && Time <= Hyperperiod) {
      ++Counters.ExecIntervalsChecked;
      const std::vector<cfg::Window> &W =
          MergedWindows[static_cast<size_t>(F.Partition)];
      // The merged window ending at or after the interval start must
      // contain the whole interval.
      auto It = std::upper_bound(
          W.begin(), W.end(), Start,
          [](int64_t T, const cfg::Window &Win) { return T < Win.End; });
      if (It == W.end() || Start < It->Start || Time > It->End)
        return formatString("task %d: execution [%lld, %lld) leaves the "
                            "windows of partition %d",
                            Gid, static_cast<long long>(Start),
                            static_cast<long long>(Time), F.Partition);
    }
  } else if (!IsFin) {
    return formatString("task %d: PR at t=%lld without an open execution",
                        Gid, static_cast<long long>(Time));
  }
  if (!IsFin)
    return {};

  ++Counters.FinsChecked;
  int64_t Done = ExecAccum[static_cast<size_t>(Gid)];
  ExecAccum[static_cast<size_t>(Gid)] = 0;
  if (Done > F.Wcet)
    return formatString("task %d: job finished at t=%lld with %lld ticks "
                        "executed, more than its WCET %lld",
                        Gid, static_cast<long long>(Time),
                        static_cast<long long>(Done),
                        static_cast<long long>(F.Wcet));
  if (Done < F.Wcet) {
    // The model's only short FIN is the deadline abort, which fires
    // exactly at an absolute deadline k*period + deadline.
    int64_t Rel = Time - F.Deadline;
    if (Rel < 0 || Rel % F.Period != 0)
      return formatString("task %d: job finished at t=%lld with only %lld "
                          "of %lld ticks executed, and t is not an "
                          "absolute deadline (no legal abort here)",
                          Gid, static_cast<long long>(Time),
                          static_cast<long long>(Done),
                          static_cast<long long>(F.Wcet));
  }
  return {};
}

std::string TraceInvariantChecker::onStep(const nsa::State &Post,
                                          const nsa::Step &St,
                                          const std::vector<int32_t> &) {
  ++Counters.StepsChecked;

  // Time must not move during an action step.
  if (Post.Now != LastTime)
    return formatString("action step changed model time from %lld to %lld",
                        static_cast<long long>(LastTime),
                        static_cast<long long>(Post.Now));

  // A binary send must have exactly one receiver (a dropped rendezvous
  // partner — the SkipSync fault class — shows up here).
  const nsa::EnabledInst &Init = St.Initiator;
  if (Init.IsSend && !Init.Broadcast && Init.ChanId >= 0 &&
      St.Receivers.size() != 1)
    return formatString("binary synchronization on channel %d with %zu "
                        "receivers (expected exactly 1)",
                        Init.ChanId, St.Receivers.size());

  // Trace-level bookkeeping on the general model's channel families.
  int NT = static_cast<int>(Tasks.size());
  int Chan = Init.ChanId;
  std::string V;
  if (Model.ExecBase >= 0 && Chan >= Model.ExecBase &&
      Chan < Model.ExecBase + NT)
    V = onExec(Chan - Model.ExecBase, Post.Now);
  else if (Model.PreemptBase >= 0 && Chan >= Model.PreemptBase &&
           Chan < Model.PreemptBase + NT)
    V = onStopExec(Chan - Model.PreemptBase, Post.Now, /*IsFin=*/false);
  else if (Model.FinishedBase >= 0 && Chan >= Model.FinishedBase &&
           Chan < Model.FinishedBase +
                      static_cast<int>(Model.SchedulerAutomaton.size())) {
    const sa::Automaton &A =
        *Model.Net->Automata[static_cast<size_t>(St.InitiatorAut)];
    int Gid = static_cast<int>(A.metaOr("gid", -1));
    if (Gid >= 0 && Gid < NT)
      V = onStopExec(Gid, Post.Now, /*IsFin=*/true);
  }
  if (!V.empty())
    return V;

  // Shadow replay: re-apply the very same step to the private state; the
  // engine's post-state must match exactly.
  ShadowEx.applyStep(Shadow, St);
  return compareShadow(Post, "after action");
}

std::string TraceInvariantChecker::onDelay(int64_t From,
                                           const nsa::State &Post) {
  ++Counters.DelaysChecked;
  if (From != LastTime)
    return formatString("delay starts at t=%lld but the previous event "
                        "was at t=%lld",
                        static_cast<long long>(From),
                        static_cast<long long>(LastTime));
  if (Post.Now < From)
    return formatString("time regressed: delay from %lld to %lld",
                        static_cast<long long>(From),
                        static_cast<long long>(Post.Now));
  LastTime = Post.Now;
  ShadowEx.advanceTime(Shadow, Post.Now - From);
  return compareShadow(Post, "after delay");
}

std::string TraceInvariantChecker::onRunEnd(const nsa::State &Final,
                                            nsa::StopReason Stop,
                                            const std::string &) {
  if (Stop != nsa::StopReason::Completed)
    return {};
  // Backstop: whatever happened between the last callback and the end of
  // the run, the engine's final state must equal the shadow's.
  return compareShadow(Final, "at run end");
}
