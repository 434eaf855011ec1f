//===- mc/ModelChecker.cpp - Explicit-state NSA model checker --------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"

#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace swa;
using namespace swa::mc;
using namespace swa::nsa;

ModelChecker::ModelChecker(const sa::Network &Net) : Net(Net), Ex(Net) {}

void ModelChecker::forEachStep(
    const State &S, const std::function<void(const Step &)> &Cb) {
  size_t N = Net.Automata.size();
  std::vector<std::vector<EnabledInst>> Enabled(N);
  for (size_t A = 0; A < N; ++A)
    Ex.collectEnabled(S, static_cast<int>(A), Enabled[A]);

  bool AnyCommitted = Ex.countCommitted(S) > 0;
  auto CommittedOk = [&](const Step &St) {
    if (!AnyCommitted)
      return true;
    if (Ex.inCommitted(S, St.InitiatorAut))
      return true;
    for (const Step::Recv &R : St.Receivers)
      if (Ex.inCommitted(S, R.Aut))
        return true;
    return false;
  };

  for (size_t A = 0; A < N; ++A) {
    for (const EnabledInst &Inst : Enabled[A]) {
      if (Inst.ChanId >= 0 && !Inst.IsSend)
        continue; // Receivers do not initiate.

      if (Inst.ChanId < 0) {
        Step St;
        St.InitiatorAut = static_cast<int32_t>(A);
        St.Initiator = Inst;
        if (CommittedOk(St))
          Cb(St);
        continue;
      }

      if (!Inst.Broadcast) {
        // Binary: every partner instance is a distinct step.
        for (size_t B = 0; B < N; ++B) {
          if (B == A)
            continue;
          for (const EnabledInst &RI : Enabled[B]) {
            if (RI.ChanId != Inst.ChanId || RI.IsSend)
              continue;
            Step St;
            St.InitiatorAut = static_cast<int32_t>(A);
            St.Initiator = Inst;
            St.Receivers.push_back({static_cast<int32_t>(B), RI});
            if (CommittedOk(St))
              Cb(St);
          }
        }
        continue;
      }

      // Broadcast: receivers are maximal; the only nondeterminism is the
      // choice of receiving edge within each participating automaton.
      std::vector<std::pair<int32_t, std::vector<const EnabledInst *>>>
          Choices;
      for (size_t B = 0; B < N; ++B) {
        if (B == A)
          continue;
        std::vector<const EnabledInst *> Options;
        for (const EnabledInst &RI : Enabled[B])
          if (RI.ChanId == Inst.ChanId && !RI.IsSend)
            Options.push_back(&RI);
        if (!Options.empty())
          Choices.push_back({static_cast<int32_t>(B), std::move(Options)});
      }
      // Cross product over per-automaton edge choices.
      std::vector<size_t> Pick(Choices.size(), 0);
      for (;;) {
        Step St;
        St.InitiatorAut = static_cast<int32_t>(A);
        St.Initiator = Inst;
        for (size_t I = 0; I < Choices.size(); ++I)
          St.Receivers.push_back(
              {Choices[I].first, *Choices[I].second[Pick[I]]});
        if (CommittedOk(St))
          Cb(St);
        size_t I = 0;
        for (; I < Choices.size(); ++I) {
          if (++Pick[I] < Choices[I].second.size()) {
            std::fill(Pick.begin(), Pick.begin() + static_cast<long>(I), 0);
            break;
          }
        }
        if (Choices.empty() || I == Choices.size())
          break;
      }
    }
  }
}

McResult ModelChecker::explore(const McOptions &Options,
                               const StatePredicate &BadState) {
  obs::ScopedTimer Timer("mc.explore");
  McResult Res;
  int64_t Horizon = Options.Horizon >= 0
                        ? Options.Horizon
                        : Net.metaOr("horizon", TimeInfinity);

  // Publish exploration counters on every exit path (the explorer has
  // several early returns). Registry instruments have stable addresses,
  // so the frontier histogram is cached once and fed directly.
  bool Metrics = obs::enabled();
  obs::Histogram *FrontierHist =
      Metrics ? &obs::Registry::global().histogram("mc.frontier.size")
              : nullptr;
  uint64_t FrontierPeak = 0;
  struct Publish {
    const McResult &Res;
    const bool &Metrics;
    const uint64_t &FrontierPeak;
    ~Publish() {
      if (!Metrics)
        return;
      obs::Registry &Reg = obs::Registry::global();
      Reg.counter("mc.states.expanded").add(Res.StatesExplored);
      Reg.counter("mc.transitions.explored").add(Res.TransitionsExplored);
      Reg.counter("mc.complete.runs").add(Res.CompleteRuns);
      Reg.counter("mc.frontier.peak").add(FrontierPeak);
    }
  } Publisher{Res, Metrics, FrontierPeak};

  std::unordered_set<State, StateHash> Visited;
  std::unordered_set<uint64_t> VisitedHashes;
  std::unordered_set<uint64_t> FinalHashes;
  auto RememberFinal = [&](const State &S) {
    uint64_t H = StateHash()(S);
    FinalHashes.insert(H);
    Res.FinalStateHash = H;
  };
  auto Remember = [&](const State &S) {
    if (Options.CompactVisited)
      return VisitedHashes.insert(StateHash()(S)).second;
    return Visited.insert(S).second;
  };

  // Predecessor links for counterexample reconstruction.
  bool Witness = Options.RecordWitness && !Options.CompactVisited;
  struct NodeRec {
    int32_t Parent;
    WitnessStep Step;
  };
  std::vector<NodeRec> Nodes;
  auto DescribeStep = [&](const nsa::Step &St,
                          const State &Pre) -> std::string {
    const sa::Automaton &IA =
        *Net.Automata[static_cast<size_t>(St.InitiatorAut)];
    std::string Out = IA.Name;
    if (St.Initiator.ChanId >= 0) {
      Out += ": " + Net.channelIdName(St.Initiator.ChanId) + "!";
      for (const nsa::Step::Recv &R : St.Receivers)
        Out += " -> " +
               Net.Automata[static_cast<size_t>(R.Aut)]->Name;
    } else {
      const sa::Edge &E =
          IA.Edges[static_cast<size_t>(St.Initiator.Edge)];
      Out += ": " +
             IA.Locations[static_cast<size_t>(E.Src)].Name + " -> " +
             IA.Locations[static_cast<size_t>(E.Dst)].Name;
    }
    (void)Pre;
    return Out;
  };
  auto BuildWitness = [&](int32_t NodeId) {
    std::vector<WitnessStep> Path;
    for (int32_t N = NodeId; N >= 0; N = Nodes[static_cast<size_t>(N)]
                                             .Parent)
      Path.push_back(Nodes[static_cast<size_t>(N)].Step);
    if (!Path.empty())
      Path.pop_back(); // Drop the root's placeholder step.
    std::reverse(Path.begin(), Path.end());
    return Path;
  };

  std::deque<std::pair<State, int32_t>> Frontier;
  State Init;
  Ex.initState(Init);
  Remember(Init);
  if (Witness)
    Nodes.push_back({-1, {}});
  Frontier.push_back({std::move(Init), 0});

  while (!Frontier.empty()) {
    if (FrontierHist) {
      FrontierHist->record(Frontier.size());
      FrontierPeak = std::max(FrontierPeak,
                              static_cast<uint64_t>(Frontier.size()));
    }
    auto [S, NodeId] = std::move(Frontier.back());
    Frontier.pop_back();
    ++Res.StatesExplored;
    if (Res.StatesExplored > Options.MaxStates) {
      Res.Error = formatString("state budget of %llu exceeded",
                               static_cast<unsigned long long>(
                                   Options.MaxStates));
      return Res;
    }

    if (BadState && BadState(Ex, S)) {
      Res.PropertyViolated = true;
      Res.ViolatingState = S;
      if (Witness)
        Res.Witness = BuildWitness(NodeId);
      return Res;
    }

    bool AnyAction = false;
    forEachStep(S, [&](const Step &St) {
      AnyAction = true;
      ++Res.TransitionsExplored;
      State Next = S;
      if (!Ex.applyStep(Next, St))
        return; // Target invariant violated: not a legal successor.
      if (Remember(Next)) {
        int32_t ChildId = 0;
        if (Witness) {
          ChildId = static_cast<int32_t>(Nodes.size());
          Nodes.push_back({NodeId, {S.Now, DescribeStep(St, S)}});
        }
        Frontier.push_back({std::move(Next), ChildId});
      }
    });

    if (AnyAction)
      continue;

    // Maximal progress: delay to the next clock bound.
    if (Ex.countCommitted(S) > 0) {
      // Committed deadlock: treat as a (stuck) complete run.
      ++Res.CompleteRuns;
      RememberFinal(S);
      continue;
    }
    int64_t Next = TimeInfinity;
    for (size_t A = 0; A < Net.Automata.size(); ++A)
      Next = std::min(Next, Ex.wakeTime(S, static_cast<int>(A)));
    if (Next <= S.Now || Next > Horizon) {
      // Quiescent, time-locked, or past the horizon: a complete run.
      // (Actions at exactly the horizon still fire, matching the
      // simulator's boundary semantics.)
      ++Res.CompleteRuns;
      State Final = S;
      if (Next > Horizon && Horizon < TimeInfinity && Horizon > S.Now)
        Ex.advanceTime(Final, Horizon - S.Now);
      RememberFinal(Final);
      continue;
    }
    State Delayed = S;
    Ex.advanceTime(Delayed, Next - S.Now);
    ++Res.TransitionsExplored;
    if (Remember(Delayed)) {
      int32_t ChildId = 0;
      if (Witness) {
        ChildId = static_cast<int32_t>(Nodes.size());
        Nodes.push_back(
            {NodeId,
             {S.Now, formatString("delay to %lld",
                                  static_cast<long long>(Next))}});
      }
      Frontier.push_back({std::move(Delayed), ChildId});
    }
  }

  Res.DistinctFinalStates = FinalHashes.size();
  return Res;
}

ModelChecker::StatePredicate
ModelChecker::storeNonZero(const sa::Network &Net,
                           const std::string &VarName) {
  int Base = -1;
  int Size = 0;
  for (const sa::VarInfo &V : Net.Vars)
    if (V.Name == VarName) {
      Base = V.Base;
      Size = V.Size;
      break;
    }
  return [Base, Size](const Exec &, const State &S) {
    for (int I = 0; I < Size; ++I)
      if (S.Store[static_cast<size_t>(Base + I)] != 0)
        return true;
    return false;
  };
}
