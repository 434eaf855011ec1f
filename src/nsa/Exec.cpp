//===- nsa/Exec.cpp - Shared NSA execution semantics -----------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "nsa/Exec.h"

#include "usl/Vm.h"

#include <algorithm>
#include <cassert>

using namespace swa;
using namespace swa::nsa;

bool swa::nsa::syncTracesEqual(const Trace &A, const Trace &B) {
  // Events are compared as sets of <time, channel, participant set>; edge
  // indices and receiver order are irrelevant to the paper's trace notion.
  auto Key = [](const Event &E) {
    std::vector<int32_t> Parts;
    Parts.push_back(E.Initiator.Automaton);
    for (const EventParticipant &R : E.Receivers)
      Parts.push_back(R.Automaton);
    std::sort(Parts.begin(), Parts.end());
    return std::make_tuple(E.Time, E.Channel, Parts);
  };
  std::vector<std::tuple<int64_t, int32_t, std::vector<int32_t>>> KA, KB;
  for (const Event &E : A)
    if (!E.isInternal())
      KA.push_back(Key(E));
  for (const Event &E : B)
    if (!E.isInternal())
      KB.push_back(Key(E));
  std::sort(KA.begin(), KA.end());
  std::sort(KB.begin(), KB.end());
  return KA == KB;
}

namespace {

/// Folds a bound expression that is a literal (or a bound-to-constant
/// reference) into its value. Returns false for dynamic expressions.
bool foldConstExpr(const usl::Expr &E, int64_t &Out) {
  switch (E.Kind) {
  case usl::ExprKind::IntLit:
  case usl::ExprKind::BoolLit:
    Out = E.Literal;
    return true;
  case usl::ExprKind::VarRef:
    if (E.Ref == usl::RefKind::Const) {
      Out = E.ConstValue;
      return true;
    }
    return false;
  default:
    return false;
  }
}

} // namespace

Exec::Exec(const sa::Network &Net) : Net(Net) {
  Ctx.ConstArrays = &Net.Bind.ConstArrays;
  Ctx.FuncTable = &Net.Bind.FuncTable;
  Folded.resize(Net.Automata.size());
  for (size_t A = 0; A < Net.Automata.size(); ++A) {
    const sa::Automaton &Aut = *Net.Automata[A];
    FoldedAut &F = Folded[A];
    F.UpperBounds.resize(Aut.Locations.size());
    F.LocHasRates.resize(Aut.Locations.size(), 0);
    F.LocRates.resize(Aut.Locations.size());
    for (size_t L = 0; L < Aut.Locations.size(); ++L) {
      const sa::Location &Loc = Aut.Locations[L];
      F.LocHasRates[L] = Loc.Rates.empty() ? 0 : 1;
      F.LocRates[L].reserve(Loc.Rates.size());
      for (const sa::RateCond &R : Loc.Rates) {
        FoldedAut::FoldedRate FR{R.Clock, DynamicBound, &R};
        foldConstExpr(*R.Rate, FR.Value);
        F.LocRates[L].push_back(FR);
        if (FR.Value == DynamicBound &&
            (DynamicRateAuts.empty() ||
             DynamicRateAuts.back() != static_cast<int32_t>(A)))
          DynamicRateAuts.push_back(static_cast<int32_t>(A));
      }
      F.UpperBounds[L].resize(Loc.Uppers.size(), DynamicBound);
      for (size_t I = 0; I < Loc.Uppers.size(); ++I)
        foldConstExpr(*Loc.Uppers[I].Bound, F.UpperBounds[L][I]);
    }
    F.GuardBounds.resize(Aut.Edges.size());
    for (size_t E = 0; E < Aut.Edges.size(); ++E) {
      const sa::Edge &Ed = Aut.Edges[E];
      F.GuardBounds[E].resize(Ed.ClockGuards.size(), DynamicBound);
      for (size_t I = 0; I < Ed.ClockGuards.size(); ++I)
        foldConstExpr(*Ed.ClockGuards[I].Bound, F.GuardBounds[E][I]);
    }
  }
}

int64_t Exec::upperBound(State &S, int Aut, const sa::Location &L,
                         size_t I) {
  int64_t V = Folded[static_cast<size_t>(Aut)]
                  .UpperBounds[static_cast<size_t>(
                      S.Locs[static_cast<size_t>(Aut)])][I];
  if (V != DynamicBound)
    return V;
  const sa::ClockUpper &U = L.Uppers[I];
  return evalSite(S, *U.Bound, U.BoundCode, {});
}

int64_t Exec::guardBound(State &S, int Aut, int Edge, size_t I) {
  int64_t V = Folded[static_cast<size_t>(Aut)]
                  .GuardBounds[static_cast<size_t>(Edge)][I];
  if (V != DynamicBound)
    return V;
  const sa::ClockGuard &CG =
      Net.Automata[static_cast<size_t>(Aut)]
          ->Edges[static_cast<size_t>(Edge)]
          .ClockGuards[I];
  return evalSite(S, *CG.Bound, CG.BoundCode, {});
}

void Exec::initState(State &S) {
  S.Now = 0;
  S.Locs.assign(Net.Automata.size(), 0);
  for (size_t A = 0; A < Net.Automata.size(); ++A)
    S.Locs[A] = Net.Automata[A]->InitialLocation;
  S.Clocks.assign(Net.ClockNames.size(), 0);
  S.Running.assign(Net.ClockNames.size(), 1);
  S.Store = Net.InitialStore;
  for (size_t A = 0; A < Net.Automata.size(); ++A)
    syncRates(S, static_cast<int>(A));
}

int64_t Exec::evalExprIn(State &S, const usl::Expr &E,
                         const std::vector<int64_t> &Frame) {
  Ctx.Store = &S.Store;
  Ctx.WriteLog = nullptr;
  Ctx.StepBudget = usl::DefaultStepBudget;
  Ctx.FrameStack.assign(Frame.begin(), Frame.end());
  Ctx.CallDepth = 0;
  return usl::evalExpr(E, Ctx, 0);
}

int64_t Exec::evalIn(const State &S, const usl::Expr &E,
                     const std::vector<int64_t> &Frame) {
  // Guards/invariant expressions are verified side-effect free, so the
  // const_cast cannot mutate the state.
  return evalExprIn(const_cast<State &>(S), E, Frame);
}

int64_t Exec::evalSite(State &S, const usl::Expr &E, const usl::Code &C,
                       const std::vector<int64_t> &Frame) {
  if (C.empty())
    return evalExprIn(S, E, Frame);
  Ctx.Store = &S.Store;
  Ctx.WriteLog = nullptr;
  Ctx.StepBudget = usl::DefaultStepBudget;
  Ctx.FrameStack.assign(Frame.begin(), Frame.end());
  Ctx.CallDepth = 0;
  return usl::runCode(C, Net.FuncCode, Ctx, 0);
}

bool Exec::clockGuardsHold(State &S, int Aut, int Edge) {
  const sa::Edge &E = Net.Automata[static_cast<size_t>(Aut)]
                          ->Edges[static_cast<size_t>(Edge)];
  for (size_t I = 0; I < E.ClockGuards.size(); ++I) {
    const sa::ClockGuard &CG = E.ClockGuards[I];
    int64_t Bound = guardBound(S, Aut, Edge, I);
    int64_t C = S.clock(static_cast<size_t>(CG.Clock));
    bool Ok = false;
    switch (CG.Op) {
    case usl::BinaryOp::Lt:
      Ok = C < Bound;
      break;
    case usl::BinaryOp::Le:
      Ok = C <= Bound;
      break;
    case usl::BinaryOp::Gt:
      Ok = C > Bound;
      break;
    case usl::BinaryOp::Ge:
      Ok = C >= Bound;
      break;
    case usl::BinaryOp::Eq:
      Ok = C == Bound;
      break;
    default:
      assert(false && "invalid clock guard operator");
    }
    if (!Ok)
      return false;
  }
  return true;
}

void Exec::collectEnabled(const State &SIn, int Aut,
                          std::vector<EnabledInst> &Out) {
  State &S = const_cast<State &>(SIn); // Guards are pure; see evalIn.
  const sa::Automaton &A = *Net.Automata[static_cast<size_t>(Aut)];
  const sa::Location &L =
      A.Locations[static_cast<size_t>(S.Locs[static_cast<size_t>(Aut)])];

  std::vector<int64_t> &Frame = FrameScratch;
  for (int EI : L.OutEdges) {
    const sa::Edge &E = A.Edges[static_cast<size_t>(EI)];
    if (!clockGuardsHold(S, Aut, EI))
      continue;

    // Enumerate select combinations in ascending order.
    size_t NSel = E.Selects.size();
    Frame.assign(NSel, 0);
    for (size_t I = 0; I < NSel; ++I)
      Frame[I] = E.Selects[I].Lo;
    for (;;) {
      bool Pass = true;
      if (E.DataGuard)
        Pass = evalSite(S, *E.DataGuard, E.DataGuardCode, Frame) != 0;
      if (Pass) {
        EnabledInst Inst;
        Inst.Edge = EI;
        Inst.Selects = Frame;
        if (E.Sync) {
          int64_t Offset = 0;
          if (E.Sync->Index) {
            Offset = evalSite(S, *E.Sync->Index, E.Sync->IndexCode, Frame);
            if (Offset < 0 || Offset >= E.Sync->ChannelCount)
              Pass = false; // Out-of-range channel index: edge disabled.
          }
          if (Pass) {
            Inst.ChanId = E.Sync->ChannelBase + static_cast<int32_t>(Offset);
            Inst.IsSend = E.Sync->IsSend;
            Inst.Broadcast = E.Sync->Broadcast;
          }
        }
        if (Pass)
          Out.push_back(std::move(Inst));
      }
      // Advance the select odometer.
      size_t I = 0;
      for (; I < NSel; ++I) {
        if (Frame[I] < E.Selects[I].Hi) {
          ++Frame[I];
          for (size_t J = 0; J < I; ++J)
            Frame[J] = E.Selects[J].Lo;
          break;
        }
      }
      if (NSel == 0 || I == NSel)
        break;
    }
  }
}

bool Exec::invariantHolds(const State &SIn, int Aut) {
  State &S = const_cast<State &>(SIn);
  const sa::Automaton &A = *Net.Automata[static_cast<size_t>(Aut)];
  const sa::Location &L =
      A.Locations[static_cast<size_t>(S.Locs[static_cast<size_t>(Aut)])];
  if (L.DataInvariant &&
      evalSite(S, *L.DataInvariant, L.DataInvariantCode, {}) == 0)
    return false;
  for (size_t I = 0; I < L.Uppers.size(); ++I) {
    const sa::ClockUpper &U = L.Uppers[I];
    int64_t Bound = upperBound(S, Aut, L, I);
    int64_t C = S.clock(static_cast<size_t>(U.Clock));
    if (U.Strict ? (C >= Bound) : (C > Bound))
      return false;
  }
  return true;
}

void Exec::runUpdate(State &S, const sa::Edge &E,
                     const std::vector<int64_t> &Selects,
                     std::vector<int32_t> *WriteLog) {
  if (!E.Update.empty()) {
    Ctx.Store = &S.Store;
    Ctx.WriteLog = WriteLog;
    Ctx.StepBudget = usl::DefaultStepBudget;
    Ctx.FrameStack.assign(Selects.begin(), Selects.end());
    Ctx.CallDepth = 0;
    if (!E.UpdateCode.empty())
      usl::runCode(E.UpdateCode, Net.FuncCode, Ctx, 0);
    else
      usl::execStmts(E.Update, Ctx, 0);
    Ctx.WriteLog = nullptr;
  }
  for (int C : E.ClockResets)
    S.setClock(static_cast<size_t>(C), 0);
}

bool Exec::applyStep(State &S, const Step &St,
                     std::vector<int32_t> *WriteLog) {
  const sa::Automaton &IA =
      *Net.Automata[static_cast<size_t>(St.InitiatorAut)];
  const sa::Edge &IE =
      IA.Edges[static_cast<size_t>(St.Initiator.Edge)];

  runUpdate(S, IE, St.Initiator.Selects, WriteLog);
  S.Locs[static_cast<size_t>(St.InitiatorAut)] = IE.Dst;

  for (const Step::Recv &R : St.Receivers) {
    const sa::Automaton &RA = *Net.Automata[static_cast<size_t>(R.Aut)];
    const sa::Edge &RE = RA.Edges[static_cast<size_t>(R.Inst.Edge)];
    runUpdate(S, RE, R.Inst.Selects, WriteLog);
    S.Locs[static_cast<size_t>(R.Aut)] = RE.Dst;
  }

  syncRates(S, St.InitiatorAut);
  for (const Step::Recv &R : St.Receivers)
    syncRates(S, R.Aut);

  if (!invariantHolds(S, St.InitiatorAut))
    return false;
  for (const Step::Recv &R : St.Receivers)
    if (!invariantHolds(S, R.Aut))
      return false;
  return true;
}

int Exec::rateOf(const State &SIn, int Aut, int ClockIdx) {
  State &S = const_cast<State &>(SIn);
  for (const FoldedAut::FoldedRate &R :
       Folded[static_cast<size_t>(Aut)].LocRates[static_cast<size_t>(
           S.Locs[static_cast<size_t>(Aut)])]) {
    if (R.Clock != ClockIdx)
      continue;
    if (R.Value != DynamicBound)
      return R.Value != 0 ? 1 : 0;
    return evalSite(S, *R.Cond->Rate, R.Cond->RateCode, {}) != 0 ? 1 : 0;
  }
  return 1;
}

int64_t Exec::wakeTime(const State &SIn, int Aut) {
  State &S = const_cast<State &>(SIn);
  const sa::Automaton &A = *Net.Automata[static_cast<size_t>(Aut)];
  const sa::Location &L =
      A.Locations[static_cast<size_t>(S.Locs[static_cast<size_t>(Aut)])];

  int64_t Best = TimeInfinity;
  // Stopped clocks never reach a bound; the rate check is skipped entirely
  // for the common rate-free locations.
  bool HasRates =
      Folded[static_cast<size_t>(Aut)].LocHasRates[static_cast<size_t>(
          S.Locs[static_cast<size_t>(Aut)])] != 0;

  // Invariant expiry forces an action at the bound.
  for (size_t I = 0; I < L.Uppers.size(); ++I) {
    const sa::ClockUpper &U = L.Uppers[I];
    if (HasRates && rateOf(S, Aut, U.Clock) == 0)
      continue;
    int64_t Bound = upperBound(S, Aut, L, I);
    int64_t C = S.clock(static_cast<size_t>(U.Clock));
    int64_t Rem = Bound - C - (U.Strict ? 1 : 0);
    if (Rem < 0)
      Rem = 0;
    Best = std::min(Best, S.Now + Rem);
  }

  // Clock guards becoming enabled.
  for (int EI : L.OutEdges) {
    const sa::Edge &E = A.Edges[static_cast<size_t>(EI)];
    for (size_t I = 0; I < E.ClockGuards.size(); ++I) {
      const sa::ClockGuard &CG = E.ClockGuards[I];
      if (HasRates && rateOf(S, Aut, CG.Clock) == 0)
        continue;
      int64_t Bound = guardBound(S, Aut, EI, I);
      int64_t C = S.clock(static_cast<size_t>(CG.Clock));
      int64_t D = TimeInfinity;
      switch (CG.Op) {
      case usl::BinaryOp::Ge:
      case usl::BinaryOp::Eq:
        if (C < Bound)
          D = Bound - C;
        break;
      case usl::BinaryOp::Gt:
        if (C <= Bound)
          D = Bound - C + 1;
        break;
      default:
        break; // Upper-bound guards never become enabled by waiting.
      }
      if (D != TimeInfinity)
        Best = std::min(Best, S.Now + D);
    }
  }
  return Best;
}

void Exec::syncRates(State &S, int Aut) {
  for (int C : Net.Automata[static_cast<size_t>(Aut)]->Clocks) {
    size_t CI = static_cast<size_t>(C);
    uint8_t Run = rateOf(S, Aut, C) != 0 ? 1 : 0;
    if (S.Running[CI] == Run)
      continue;
    // Origin and value convert into each other by the same subtraction.
    S.Clocks[CI] = S.Now - S.Clocks[CI];
    S.Running[CI] = Run;
  }
}

void Exec::advanceTime(State &S, int64_t Delta) {
  assert(Delta >= 0 && "negative delay");
  if (Delta == 0)
    return;
  for (int32_t A : DynamicRateAuts)
    syncRates(S, A);
  S.Now += Delta;
}

int Exec::countCommitted(const State &S) const {
  int N = 0;
  for (size_t A = 0; A < Net.Automata.size(); ++A)
    if (inCommitted(S, static_cast<int>(A)))
      ++N;
  return N;
}
