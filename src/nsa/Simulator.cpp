//===- nsa/Simulator.cpp - Deterministic NSA simulator ---------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "nsa/Simulator.h"

#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace swa;
using namespace swa::nsa;

RunObserver::~RunObserver() = default;
void RunObserver::onRunStart(const sa::Network &, const State &) {}
std::string RunObserver::onStep(const State &, const Step &,
                                const std::vector<int32_t> &) {
  return {};
}
std::string RunObserver::onDelay(int64_t, const State &) { return {}; }
std::string RunObserver::onRunEnd(const State &, StopReason,
                                  const std::string &) {
  return {};
}

const char *swa::nsa::faultKindName(FaultPlan::Kind K) {
  switch (K) {
  case FaultPlan::Kind::FlipVariable:
    return "flip-variable";
  case FaultPlan::Kind::SkipSync:
    return "skip-sync";
  case FaultPlan::Kind::SkewClock:
    return "skew-clock";
  }
  return "<bad>";
}

Simulator::Simulator(const sa::Network &Net) : Net(Net), Ex(Net) {
  size_t N = Net.Automata.size();
  Enabled.resize(N);
  RecvContrib.resize(N);
  ReceiversByChan.resize(static_cast<size_t>(Net.NumChannelIds));
  Dirty.assign(N, 0);
  DirtyStack.reserve(N);
  Initiators.reset(N);
  Committed.reset(N);
  WakeHeap.reset(N);

  WatchersBySlot.resize(Net.InitialStore.size());
  for (size_t A = 0; A < N; ++A)
    for (int32_t Slot : Net.Automata[A]->StaticReads)
      if (Slot >= 0 && static_cast<size_t>(Slot) < WatchersBySlot.size())
        WatchersBySlot[static_cast<size_t>(Slot)].push_back(
            static_cast<int32_t>(A));
}

void Simulator::reset() {
  Ex.initState(S);
  for (std::vector<EnabledInst> &E : Enabled)
    E.clear();
  for (std::vector<int32_t> &RC : RecvContrib)
    RC.clear();
  for (SortedIdVec &R : ReceiversByChan)
    R.clear();
  Initiators.clear();
  Committed.clear();
  std::fill(Dirty.begin(), Dirty.end(), 0);
  DirtyStack.clear();
  WakeHeap.clear();
  WriteLog.clear();
  Stats = EngineStats();
  StepsPerAut.clear();
}

void Simulator::markDirty(int Aut) {
  if (Dirty[static_cast<size_t>(Aut)])
    return;
  Dirty[static_cast<size_t>(Aut)] = 1;
  DirtyStack.push_back(static_cast<int32_t>(Aut));
}

void Simulator::refreshAutomaton(int Aut) {
  size_t AI = static_cast<size_t>(Aut);
  ++Stats.Refreshes;

  Enabled[AI].clear();
  Ex.collectEnabled(S, Aut, Enabled[AI]);
  Stats.EnabledExamined += Enabled[AI].size();

  // Receive offers usually survive a refresh (a task keeps listening on
  // its dispatch channel while other automata move), so diff the sorted
  // old/new channel lists and touch ReceiversByChan only where membership
  // actually changed, instead of erase-all / reinsert-all.
  std::vector<int32_t> &NewContrib = RecvContribScratch;
  NewContrib.clear();
  bool IsInitiator = false;
  for (const EnabledInst &Inst : Enabled[AI]) {
    if (Inst.ChanId < 0 || Inst.IsSend)
      IsInitiator = true;
    else
      NewContrib.push_back(Inst.ChanId);
  }
  std::sort(NewContrib.begin(), NewContrib.end());
  NewContrib.erase(std::unique(NewContrib.begin(), NewContrib.end()),
                   NewContrib.end());

  std::vector<int32_t> &Old = RecvContrib[AI];
  if (Old != NewContrib) {
    size_t I = 0, J = 0;
    while (I < Old.size() || J < NewContrib.size()) {
      if (J == NewContrib.size() ||
          (I < Old.size() && Old[I] < NewContrib[J])) {
        ReceiversByChan[static_cast<size_t>(Old[I])].erase(
            static_cast<int32_t>(Aut));
        ++Stats.RecvErases;
        ++I;
      } else if (I == Old.size() || NewContrib[J] < Old[I]) {
        ReceiversByChan[static_cast<size_t>(NewContrib[J])].insert(
            static_cast<int32_t>(Aut));
        ++Stats.RecvInserts;
        ++J;
      } else {
        ++I;
        ++J;
      }
    }
    Old.swap(NewContrib);
  }

  if (IsInitiator)
    Initiators.insert(AI);
  else
    Initiators.erase(AI);

  if (Ex.inCommitted(S, Aut))
    Committed.insert(AI);
  else
    Committed.erase(AI);

  int64_t Wake = Ex.wakeTime(S, Aut);
  if (Wake < TimeInfinity) {
    if (WakeHeap.update(static_cast<int32_t>(Aut), Wake))
      ++Stats.HeapPushes;
  } else {
    WakeHeap.erase(static_cast<int32_t>(Aut));
  }
}

void Simulator::refreshDirty() {
  while (!DirtyStack.empty()) {
    int32_t A = DirtyStack.back();
    DirtyStack.pop_back();
    Dirty[static_cast<size_t>(A)] = 0;
    refreshAutomaton(A);
  }
}

bool Simulator::committedOk(const Step &St) const {
  if (Committed.empty())
    return true;
  if (Committed.test(static_cast<size_t>(St.InitiatorAut)))
    return true;
  for (const Step::Recv &R : St.Receivers)
    if (Committed.test(static_cast<size_t>(R.Aut)))
      return true;
  return false;
}

bool Simulator::attachReceivers(int Aut, const EnabledInst &Inst, Step &Out,
                                Rng *RandomRecv) {
  if (Inst.ChanId < 0)
    return true; // Internal step.
  assert(Inst.IsSend && "initiators must send");
  const SortedIdVec &Recvs =
      ReceiversByChan[static_cast<size_t>(Inst.ChanId)];

  auto FirstRecvInst = [&](int32_t R) -> const EnabledInst * {
    std::vector<const EnabledInst *> &Options = RecvOptionScratch;
    Options.clear();
    for (const EnabledInst &RI : Enabled[static_cast<size_t>(R)])
      if (RI.ChanId == Inst.ChanId && !RI.IsSend)
        Options.push_back(&RI);
    if (Options.empty())
      return nullptr;
    if (RandomRecv && Options.size() > 1)
      return Options[RandomRecv->index(Options.size())];
    return Options.front();
  };

  if (Inst.Broadcast) {
    for (int32_t R : Recvs) {
      if (R == Aut)
        continue;
      const EnabledInst *RI = FirstRecvInst(R);
      if (RI)
        Out.Receivers.push_back({R, *RI});
    }
    return true; // Broadcast never blocks.
  }

  // Binary: need exactly one partner.
  for (int32_t R : Recvs) {
    if (R == Aut)
      continue;
    const EnabledInst *RI = FirstRecvInst(R);
    if (!RI)
      continue;
    Out.Receivers.push_back({R, *RI});
    return true;
  }
  return false;
}

bool Simulator::buildStepFrom(int Aut, const EnabledInst &Inst, Step &Out,
                              Rng *RandomRecv) {
  Out.InitiatorAut = static_cast<int32_t>(Aut);
  Out.Initiator = Inst;
  Out.Receivers.clear();
  if (!attachReceivers(Aut, Inst, Out, RandomRecv))
    return false;
  return committedOk(Out);
}

bool Simulator::pickStepDeterministic(Step &Out) {
  for (int32_t A = Initiators.findFirst(); A >= 0;
       A = Initiators.findNext(A)) {
    for (const EnabledInst &Inst : Enabled[static_cast<size_t>(A)]) {
      if (Inst.ChanId >= 0 && !Inst.IsSend)
        continue;
      if (Inst.ChanId >= 0 && !Inst.Broadcast) {
        // Try every partner in order (a later partner may satisfy the
        // committed-participation rule when an earlier one does not).
        const SortedIdVec &Recvs =
            ReceiversByChan[static_cast<size_t>(Inst.ChanId)];
        for (int32_t R : Recvs) {
          if (R == A)
            continue;
          for (const EnabledInst &RI : Enabled[static_cast<size_t>(R)]) {
            if (RI.ChanId != Inst.ChanId || RI.IsSend)
              continue;
            Out.InitiatorAut = A;
            Out.Initiator = Inst;
            Out.Receivers.clear();
            Out.Receivers.push_back({R, RI});
            if (committedOk(Out))
              return true;
          }
        }
        continue;
      }
      if (buildStepFrom(A, Inst, Out, nullptr))
        return true;
    }
  }
  return false;
}

bool Simulator::pickStepRandom(Step &Out, Rng &R) {
  std::vector<Step> All;
  for (int32_t A = Initiators.findFirst(); A >= 0;
       A = Initiators.findNext(A)) {
    for (const EnabledInst &Inst : Enabled[static_cast<size_t>(A)]) {
      if (Inst.ChanId >= 0 && !Inst.IsSend)
        continue;
      if (Inst.ChanId >= 0 && !Inst.Broadcast) {
        const SortedIdVec &Recvs =
            ReceiversByChan[static_cast<size_t>(Inst.ChanId)];
        for (int32_t Partner : Recvs) {
          if (Partner == A)
            continue;
          for (const EnabledInst &RI :
               Enabled[static_cast<size_t>(Partner)]) {
            if (RI.ChanId != Inst.ChanId || RI.IsSend)
              continue;
            Step St;
            St.InitiatorAut = A;
            St.Initiator = Inst;
            St.Receivers.push_back({Partner, RI});
            if (committedOk(St))
              All.push_back(std::move(St));
          }
        }
        continue;
      }
      Step St;
      if (buildStepFrom(A, Inst, St, &R))
        All.push_back(std::move(St));
    }
  }
  if (All.empty())
    return false;
  Out = std::move(All[R.index(All.size())]);
  return true;
}

SimResult Simulator::run(const SimOptions &Options) {
  obs::ScopedTimer Timer("simulate");
  SimResult Res;
  reset();

  bool Metrics = obs::enabled();
  if (Metrics)
    StepsPerAut.assign(Net.Automata.size(), 0);

  int64_t Horizon = Options.Horizon >= 0
                        ? Options.Horizon
                        : Net.metaOr("horizon", TimeInfinity);

  const bool WatchFail = Options.FailSlotBase >= 0 && Options.FailSlotCount > 0;

  // Last automaton that initiated an applied step (budget diagnostics).
  int32_t LastStepped = -1;

  // Guard rails: a wall-clock deadline and a cooperative cancel token,
  // polled every GuardInterval loop iterations (one action or one delay
  // each), so the unguarded hot path pays a single predictable branch.
  using Clock = std::chrono::steady_clock;
  const bool HasBudget = Options.WallClockBudgetMs >= 0;
  const bool Guarded = HasBudget || Options.Cancel != nullptr;
  // A budget whose deadline the clock cannot represent never expires:
  // converting it to clock ticks would overflow and wrap into the past.
  Clock::time_point Deadline = Clock::time_point::max();
  if (HasBudget) {
    const Clock::time_point Now = Clock::now();
    const auto Headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - Now);
    if (Options.WallClockBudgetMs < Headroom.count())
      Deadline = Now + std::chrono::milliseconds(Options.WallClockBudgetMs);
  }
  constexpr uint64_t GuardInterval = 4096;
  uint64_t GuardTick = 0;

  // Observer and fault injection both default to null, so the verdict
  // path pays nothing but the (perfectly predicted) null tests.
  RunObserver *Observer = Options.Observer;
  FaultPlan *Fault = Options.Fault;
  if (Observer)
    Observer->onRunStart(Net, S);
  auto ObserverTripped = [&](const std::string &Violation) {
    Res.Stop = StopReason::InvariantViolation;
    Res.Error = formatString(
        "trace invariant violated at t=%lld after %llu actions: %s",
        static_cast<long long>(S.Now),
        static_cast<unsigned long long>(Res.ActionCount),
        Violation.c_str());
  };

  for (size_t A = 0; A < Net.Automata.size(); ++A)
    markDirty(static_cast<int>(A));

  for (;;) {
    if (Guarded && (GuardTick++ % GuardInterval) == 0) {
      if (Options.Cancel && Options.Cancel->isCancelled()) {
        Res.Stop = StopReason::Cancelled;
        Res.Error = formatString(
            "run cancelled at t=%lld after %llu actions",
            static_cast<long long>(S.Now),
            static_cast<unsigned long long>(Res.ActionCount));
        break;
      }
      if (HasBudget && Clock::now() >= Deadline) {
        Res.Stop = StopReason::BudgetExceeded;
        Res.Error = formatString(
            "wall-clock budget of %lld ms exceeded at t=%lld after %llu "
            "actions",
            static_cast<long long>(Options.WallClockBudgetMs),
            static_cast<long long>(S.Now),
            static_cast<unsigned long long>(Res.ActionCount));
        break;
      }
    }

    refreshDirty();

    Step &St = StepScratch;
    bool Found = Options.RandomOrder
                     ? pickStepRandom(St, *Options.RandomOrder)
                     : pickStepDeterministic(St);
    if (Found) {
      if (Res.ActionCount == Options.MaxActions) {
        const char *LastName =
            LastStepped >= 0
                ? Net.Automata[static_cast<size_t>(LastStepped)]->Name.c_str()
                : "<none>";
        Res.Stop = StopReason::MaxActions;
        Res.Error = formatString(
            "action budget of %llu exhausted at t=%lld (%llu actions "
            "applied, last automaton stepped: '%s'; livelock in the "
            "model?)",
            static_cast<unsigned long long>(Options.MaxActions),
            static_cast<long long>(S.Now),
            static_cast<unsigned long long>(Res.ActionCount), LastName);
        break;
      }
      ++Res.ActionCount;
      // Fault injection (checker self-test): a sync skip must corrupt the
      // step *before* it is applied; the state perturbations are injected
      // after the observer saw this step, so detection happens through
      // the invariants, not by the injector telling on itself.
      if (Fault && !Fault->Fired && Res.ActionCount == Fault->AtAction &&
          Fault->FaultKind == FaultPlan::Kind::SkipSync) {
        St.Receivers.clear();
        Fault->Fired = true;
      }
      WriteLog.clear();
      if (!Ex.applyStep(S, St, &WriteLog)) {
        Res.Stop = StopReason::ModelError;
        Res.Error = formatString(
            "invariant violated after a step initiated by '%s'",
            Net.Automata[static_cast<size_t>(St.InitiatorAut)]
                ->Name.c_str());
        break;
      }
      LastStepped = St.InitiatorAut;
      if (!StepsPerAut.empty())
        ++StepsPerAut[static_cast<size_t>(St.InitiatorAut)];
      if (Options.RecordTrace && St.Initiator.ChanId >= 0) {
        Event E;
        E.Time = S.Now;
        E.Channel = St.Initiator.ChanId;
        E.Initiator = {St.InitiatorAut, St.Initiator.Edge};
        E.Receivers.reserve(St.Receivers.size());
        for (const Step::Recv &R : St.Receivers)
          E.Receivers.push_back({R.Aut, R.Inst.Edge});
        Res.Events.push_back(std::move(E));
      }
      if (Observer) {
        std::string V = Observer->onStep(S, St, WriteLog);
        if (!V.empty()) {
          ObserverTripped(V);
          break;
        }
      }
      if (WatchFail) {
        for (int32_t Slot : WriteLog) {
          int32_t Off = Slot - Options.FailSlotBase;
          if (Off < 0 || Off >= Options.FailSlotCount ||
              S.Store[static_cast<size_t>(Slot)] == 0)
            continue;
          if (Res.FirstMissTime < 0)
            Res.FirstMissTime = S.Now;
          if (S.Now == Res.FirstMissTime)
            Res.FirstMissSlots.push_back(Off);
        }
      }
      if (Fault && !Fault->Fired && Res.ActionCount >= Fault->AtAction) {
        // Deliberate out-of-band corruption: no write log entry, no dirty
        // marks — exactly what a memory fault would look like.
        size_t I = static_cast<size_t>(Fault->Index);
        if (Fault->FaultKind == FaultPlan::Kind::FlipVariable &&
            I < S.Store.size()) {
          S.Store[I] += Fault->Delta;
          Fault->Fired = true;
        } else if (Fault->FaultKind == FaultPlan::Kind::SkewClock &&
                   I < S.Clocks.size()) {
          S.setClock(I, S.clock(I) + Fault->Delta);
          Fault->Fired = true;
        }
      }
      markDirty(St.InitiatorAut);
      for (const Step::Recv &R : St.Receivers)
        markDirty(R.Aut);
      for (int32_t Slot : WriteLog)
        for (int32_t W : WatchersBySlot[static_cast<size_t>(Slot)])
          markDirty(W);
      continue;
    }

    // No action fireable.
    if (!Committed.empty()) {
      Res.Stop = StopReason::ModelError;
      Res.Error = "deadlock: a committed location cannot progress";
      break;
    }

    // The next wake time; every heap entry is live (re-arming re-keys in
    // place), so the top needs no staleness cleanup.
    int64_t Next = WakeHeap.empty() ? TimeInfinity : WakeHeap.top().Key;

    if (Next <= S.Now) {
      if (Next == S.Now) {
        // Name the automata whose bounds expired to ease model debugging.
        std::string Stuck;
        for (size_t A = 0; A < Net.Automata.size(); ++A) {
          if (!WakeHeap.contains(static_cast<int32_t>(A)) ||
              WakeHeap.keyOf(static_cast<int32_t>(A)) != Next)
            continue;
          const sa::Automaton &Aut = *Net.Automata[A];
          if (!Stuck.empty())
            Stuck += ", ";
          Stuck += Aut.Name + " at " +
                   Aut.Locations[static_cast<size_t>(S.Locs[A])].Name;
        }
        Res.Stop = StopReason::ModelError;
        Res.Error = formatString(
            "time-lock at t=%lld: an invariant bound expired with no "
            "enabled action (%s)",
            static_cast<long long>(S.Now), Stuck.c_str());
        break;
      }
      // Next == TimeInfinity handled below; Next < Now impossible.
    }
    // First-miss early exit: the miss instant is complete (no action
    // fireable, no bound expired at the current time), so every task that
    // fails at FirstMissTime has written its flag. Placed after the
    // deadlock and time-lock checks so broken models stop with the same
    // error a full run reports.
    if (Options.StopOnFirstMiss && Res.FirstMissTime >= 0) {
      Res.Stop = StopReason::DeadlineMiss;
      break;
    }
    // Actions at exactly the horizon still belong to the analyzed window
    // (a job with deadline == period fails precisely at the hyperperiod
    // boundary); only strictly later wakes end the run, after a last
    // advance to the horizon itself.
    if (Next >= TimeInfinity && Horizon >= TimeInfinity) {
      Res.Quiescent = true;
      break;
    }
    const bool ToHorizon = Next > Horizon;
    int64_t Prev = S.Now;
    Ex.advanceTime(S, (ToHorizon ? Horizon : Next) - S.Now);
    if (!ToHorizon)
      ++Res.DelayCount;
    if (Observer && S.Now != Prev) {
      std::string V = Observer->onDelay(Prev, S);
      if (!V.empty()) {
        ObserverTripped(V);
        break;
      }
    }
    if (ToHorizon) {
      Res.HorizonReached = true;
      break;
    }
    // Wake every automaton whose deadline arrived.
    while (!WakeHeap.empty() && WakeHeap.top().Key <= Next) {
      int32_t A = WakeHeap.top().Id;
      WakeHeap.pop();
      ++Stats.HeapPops;
      markDirty(A);
    }
  }

  if (Observer) {
    std::string V = Observer->onRunEnd(S, Res.Stop, Res.Error);
    if (!V.empty() && Res.ok())
      ObserverTripped(V);
  }

  if (!Res.FirstMissSlots.empty()) {
    std::sort(Res.FirstMissSlots.begin(), Res.FirstMissSlots.end());
    Res.FirstMissSlots.erase(
        std::unique(Res.FirstMissSlots.begin(), Res.FirstMissSlots.end()),
        Res.FirstMissSlots.end());
  }
  Res.Final = S;
  if (Metrics)
    publishMetrics(Res);
  return Res;
}

void Simulator::publishMetrics(const SimResult &Res) const {
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("nsa.steps.action").add(Res.ActionCount);
  Reg.counter("nsa.steps.delay").add(Res.DelayCount);
  Reg.counter("nsa.events.recorded").add(Res.Events.size());
  Reg.counter("nsa.refresh.automaton").add(Stats.Refreshes);
  Reg.counter("nsa.enabled.examined").add(Stats.EnabledExamined);
  Reg.counter("nsa.heap.pushes").add(Stats.HeapPushes);
  Reg.counter("nsa.heap.pops").add(Stats.HeapPops);
  Reg.counter("nsa.recvset.inserts").add(Stats.RecvInserts);
  Reg.counter("nsa.recvset.erases").add(Stats.RecvErases);
  Reg.counter("nsa.runs").add(1);
  obs::Histogram &PerAut = Reg.histogram("nsa.steps.per_automaton");
  for (uint64_t Steps : StepsPerAut)
    PerAut.record(Steps);
}

const char *swa::nsa::stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::Completed:
    return "completed";
  case StopReason::MaxActions:
    return "max-actions";
  case StopReason::Cancelled:
    return "cancelled";
  case StopReason::BudgetExceeded:
    return "budget-exceeded";
  case StopReason::ModelError:
    return "model-error";
  case StopReason::InvariantViolation:
    return "invariant-violation";
  case StopReason::DeadlineMiss:
    return "deadline-miss";
  }
  return "<bad>";
}

std::string SimResult::summary() const {
  if (!ok())
    return formatString("error: %s (stop=%s)", Error.c_str(),
                        stopReasonName(Stop));
  const char *Outcome = Stop == StopReason::DeadlineMiss ? "first miss"
                        : Quiescent                      ? "quiescent"
                        : HorizonReached                 ? "horizon reached"
                                                         : "stopped";
  return formatString(
      "%s at t=%lld: %llu actions, %llu delays, %zu sync events",
      Outcome, static_cast<long long>(Final.Now),
      static_cast<unsigned long long>(ActionCount),
      static_cast<unsigned long long>(DelayCount), Events.size());
}
