//===- schedtool/ConfigSearch.cpp - Model-in-the-loop config search ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/ConfigSearch.h"

#include "analysis/Analyzer.h"
#include "analysis/ModelArena.h"
#include "config/Decompose.h"
#include "config/Fingerprint.h"
#include "obs/Timer.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "schedtool/VerdictCache.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>

using namespace swa;
using namespace swa::schedtool;

bool swa::schedtool::bindFirstFitDecreasing(cfg::Config &Config) {
  // Order partitions by demand (utilization with type-0 WCETs).
  std::vector<std::pair<double, int>> Order;
  for (size_t P = 0; P < Config.Partitions.size(); ++P) {
    double U = 0;
    for (const cfg::Task &T : Config.Partitions[P].Tasks)
      U += static_cast<double>(T.Wcet[0]) /
           static_cast<double>(T.Period);
    Order.push_back({U, static_cast<int>(P)});
  }
  std::sort(Order.begin(), Order.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });

  std::vector<double> CoreLoad(Config.Cores.size(), 0.0);
  for (auto &[U, P] : Order) {
    int Best = -1;
    for (size_t C = 0; C < Config.Cores.size(); ++C) {
      int Type = Config.Cores[C].CoreType;
      double UC = 0;
      for (const cfg::Task &T :
           Config.Partitions[static_cast<size_t>(P)].Tasks)
        UC += static_cast<double>(T.Wcet[static_cast<size_t>(Type)]) /
              static_cast<double>(T.Period);
      if (CoreLoad[C] + UC <= 1.0 &&
          (Best < 0 || CoreLoad[C] < CoreLoad[static_cast<size_t>(Best)]))
        Best = static_cast<int>(C);
    }
    if (Best < 0)
      return false;
    Config.Partitions[static_cast<size_t>(P)].Core = Best;
    int Type = Config.Cores[static_cast<size_t>(Best)].CoreType;
    for (const cfg::Task &T :
         Config.Partitions[static_cast<size_t>(P)].Tasks)
      CoreLoad[static_cast<size_t>(Best)] +=
          static_cast<double>(T.Wcet[static_cast<size_t>(Type)]) /
          static_cast<double>(T.Period);
  }
  return true;
}

void swa::schedtool::synthesizeWindows(cfg::Config &Config,
                                       const std::vector<double> &Boost) {
  cfg::TimeValue L = Config.hyperperiod();
  for (cfg::Partition &P : Config.Partitions)
    P.Windows.clear();

  for (size_t C = 0; C < Config.Cores.size(); ++C) {
    std::vector<int> Parts;
    cfg::TimeValue Minor = L;
    for (size_t P = 0; P < Config.Partitions.size(); ++P) {
      if (Config.Partitions[P].Core != static_cast<int>(C))
        continue;
      Parts.push_back(static_cast<int>(P));
      for (const cfg::Task &T : Config.Partitions[P].Tasks)
        Minor = std::min(Minor, T.Period);
    }
    if (Parts.empty())
      continue;

    std::vector<double> Raw;
    double RawSum = 0;
    for (int P : Parts) {
      double B = static_cast<size_t>(P) < Boost.size()
                     ? Boost[static_cast<size_t>(P)]
                     : 1.5;
      double Slice = std::max(
          1.0, Config.partitionUtilization(P) *
                   static_cast<double>(Minor) * B);
      Raw.push_back(Slice);
      RawSum += Slice;
    }
    double Scale = RawSum > static_cast<double>(Minor)
                       ? static_cast<double>(Minor) / RawSum
                       : 1.0;

    cfg::TimeValue Cursor = 0;
    for (size_t I = 0; I < Parts.size(); ++I) {
      cfg::TimeValue Len = std::max<cfg::TimeValue>(
          1, static_cast<cfg::TimeValue>(Raw[I] * Scale));
      if (Cursor + Len > Minor)
        Len = Minor - Cursor;
      if (Len <= 0)
        break;
      for (cfg::TimeValue Off = 0; Off < L; Off += Minor)
        Config.Partitions[static_cast<size_t>(Parts[I])]
            .Windows.push_back({Off + Cursor, Off + Cursor + Len});
      Cursor += Len;
    }
  }
}

namespace {

//===----------------------------------------------------------------------===//
// The evaluation pipeline. Every candidate is a list of components — a
// candidate that does not decompose along the message graph is one
// component, the whole config at its own hyperperiod L, whose cache key is
// exactly the config fingerprint (cfg::fingerprintComponent) — and every
// round runs the same five stages:
//
//   plan       split each candidate with cfg::decomposeConfig
//   lookup     resolve components against the one verdict cache and
//              deduplicate the misses into the round's simulation list
//   simulate   run the list (early exit, one model arena per pool thread)
//   reduce     fill the cache, merge component verdicts, log, count the
//              statistics of each candidate it reduces, adapt
//   checkpoint persist cache + loop state at the round boundary
//
// Every stage but simulate is serial, so the hit pattern, the simulation
// list and every SearchResult field are pure functions of the candidate
// sequence — identical for any Workers value.
//===----------------------------------------------------------------------===//

/// One candidate of a round: a concrete binding + window layout, the boost
/// vector that produced it, and the move that derived it from candidate 0
/// as Strategy::perturb recorded it (read only to count dirty components).
struct Candidate {
  cfg::Config Config;
  std::vector<double> Boost;
  Mutation Delta;
  bool Valid = false;
  std::string InvalidReason;
};

/// A verdict slot (one per candidate, one per simulation); written by
/// exactly one worker or filled serially, read after the batch finished.
struct Eval {
  bool Ok = false;
  std::string ErrMsg;
  analysis::VerdictOutcome V;
};

/// One component of a candidate. Sub and GidMap point into round-stable
/// storage: the candidate itself or its plan's decomposition.
struct PlannedComp {
  const cfg::Config *Sub = nullptr;
  /// Component-to-candidate gid map; null for the whole-config component.
  const std::vector<int32_t> *GidMap = nullptr;
  /// Cache key at the global horizon L.
  cfg::Fingerprint Key;
  /// The lookup stage's resolution: a cache entry (stable address — see
  /// VerdictCache.h) or an index into the round's simulation list.
  const VerdictCache::ComponentEntry *Hit = nullptr;
  int Sim = -1;
};

/// A candidate's component list and how the lookup stage resolved it.
/// The reduce stage adds these facts into the result once it reaches the
/// candidate.
struct CandPlan {
  std::vector<PlannedComp> Comps;
  /// The candidate's message-graph split; not Decomposed when the
  /// candidate is its own single component.
  cfg::Decomposition D;
  /// Components served by the cache (SnapHits of them by entries a loaded
  /// snapshot brought), and components holding a core the recorded move
  /// touched.
  int Hits = 0, SnapHits = 0, Dirty = 0;
  bool decomposed() const { return Comps.size() > 1; }
  bool hit() const { return Hits == static_cast<int>(Comps.size()); }
};

/// One deduplicated simulation of a round: the first candidate needing the
/// key contributes the sub-config; every later one shares the verdict.
struct Sim {
  const cfg::Config *Sub = nullptr;
  cfg::Fingerprint Key;
  int FirstCand = -1;
};

/// Everything one round produces, stage by stage.
struct RoundWork {
  int Index = 0;
  std::vector<Candidate> Cands;
  std::vector<CandPlan> Plans;
  std::vector<Sim> Sims;
  std::unordered_map<cfg::Fingerprint, int, cfg::FingerprintHash> SimOf;
  std::vector<Eval> SimEvals;
  std::vector<Eval> Evals;

  void reset(int Round, int N) {
    Index = Round;
    Cands.assign(static_cast<size_t>(N), Candidate());
    Plans.assign(static_cast<size_t>(N), CandPlan());
    Sims.clear();
    SimOf.clear();
    SimEvals.clear();
    Evals.assign(static_cast<size_t>(N), Eval());
  }
};

/// Search-lifetime state the stages share.
struct SearchContext {
  SearchContext(const SearchProblem &P, const cfg::Config &Bound)
      : Problem(P), L(Bound.hyperperiod()), Pool(std::max(1, P.Workers)),
        Arenas(static_cast<size_t>(Pool.threadCount())) {
    // Guard rails, first-miss early exit, and the global horizon: a
    // component carries its own (smaller) hyperperiod but is simulated to
    // L, so backlog beyond it is observed exactly as the whole config
    // observes it — and the verdict is cap-free, valid for any candidate
    // that needs the component.
    SimOpts.WallClockBudgetMs = P.CandidateBudgetMs;
    SimOpts.Cancel = P.Cancel;
    SimOpts.StopOnFirstMiss = true;
    SimOpts.Horizon = L;
  }

  const SearchProblem &Problem;
  /// Candidate badness and every component horizon derive from L, which
  /// depends only on the task periods — no search move touches them.
  const int64_t L;
  ThreadPool Pool;
  /// One model arena per pool slot. Verdicts are arena-independent
  /// (ModelArena.h), so which slot runs which simulation — a timing fact
  /// — cannot influence any result.
  std::vector<analysis::ModelArena> Arenas;
  nsa::SimOptions SimOpts;
  VerdictCache Cache;
  uint32_t BaseCrc = 0;
};

/// The resumable loop state — with the cache, exactly what a checkpoint
/// captures.
struct LoopState {
  cfg::Config Current;
  std::vector<double> Boost;
  Rng R;
  int Iter = 0;
  int Round = 0;
};

/// Per-candidate perturbation seed: a pure function of (Seed, Round, J),
/// never of the thread that evaluates the candidate.
uint64_t candidateSeed(uint64_t Seed, int Round, int J) {
  uint64_t X = static_cast<uint64_t>(Round) * 0x100000001b3ULL +
               static_cast<uint64_t>(J) + 1;
  return Seed ^ (X * 0x9e3779b97f4a7c15ULL);
}

/// Candidate badness: L - FirstMissTime + 1, 0 when schedulable — a metric
/// a first-miss early exit computes exactly.
int64_t badnessOf(int64_t L, const analysis::VerdictOutcome &V) {
  if (V.Schedulable)
    return 0;
  return V.FirstMissTime >= 0 ? L - V.FirstMissTime + 1 : L + 2;
}

/// Generate: candidate 0 is the incumbent; candidates 1..N-1 are seeded
/// perturbations of it, delegated to the strategy. Serial, and a pure
/// function of (Seed, Round, J) and the strategy's deterministic state.
void generateRound(const SearchProblem &Problem, Strategy &Strat,
                   const LoopState &S, RoundWork &W) {
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    Candidate &C = W.Cands[J];
    C.Config = S.Current;
    C.Boost = S.Boost;
    if (J > 0) {
      Rng PJ(candidateSeed(Problem.Seed, W.Index, static_cast<int>(J)));
      Strat.perturb(PJ, Problem, C.Config, C.Boost, C.Delta);
    }
    synthesizeWindows(C.Config, C.Boost);
    if (Error E = C.Config.validate())
      C.InvalidReason = E.message();
    else
      C.Valid = true;
  }
}

/// Plan: candidate J's component list — its message-graph components from
/// one cfg::decomposeConfig call, or the whole config as the single
/// component when it does not decompose. The move the strategy recorded
/// only counts a decomposed candidate's dirty components (those holding a
/// core the move touched) for the statistics; every component is planned
/// the same way, so a wrong record cannot change a verdict.
void planCandidate(SearchContext &Ctx, RoundWork &W, int J) {
  const Candidate &C = W.Cands[static_cast<size_t>(J)];
  CandPlan &Plan = W.Plans[static_cast<size_t>(J)];
  Plan.D = cfg::decomposeConfig(C.Config);
  if (!Plan.D.Decomposed) {
    Plan.Comps.resize(1);
    Plan.Comps[0].Sub = &C.Config;
    Plan.Comps[0].Key = cfg::fingerprintComponent(C.Config, Ctx.L);
    return;
  }

  const std::vector<int32_t> &CompOfCore = Plan.D.CompOfCore;
  std::vector<char> CompDirty(Plan.D.Components.size(), 0);
  auto Touch = [&](int32_t Core) {
    if (Core < 0 || static_cast<size_t>(Core) >= CompOfCore.size())
      return;
    int32_t K = CompOfCore[static_cast<size_t>(Core)];
    if (K >= 0)
      CompDirty[static_cast<size_t>(K)] = 1;
  };
  for (int32_t P : C.Delta.BoostChanged)
    if (P >= 0 && static_cast<size_t>(P) < C.Config.Partitions.size())
      Touch(C.Config.Partitions[static_cast<size_t>(P)].Core);
  if (C.Delta.RebindPart >= 0) {
    Touch(C.Delta.OldCore);
    Touch(C.Delta.NewCore);
  }

  Plan.Comps.resize(Plan.D.Components.size());
  for (size_t K = 0; K < Plan.Comps.size(); ++K) {
    const cfg::Component &Comp = Plan.D.Components[K];
    PlannedComp &PC = Plan.Comps[K];
    PC.Sub = &Comp.Sub;
    PC.GidMap = &Comp.GidMap;
    PC.Key = cfg::fingerprintComponent(Comp.Sub, Ctx.L);
    Plan.Dirty += CompDirty[K];
  }
}

/// Lookup: in candidate order and against the pre-batch cache state, so
/// the hit pattern is a pure function of the candidate sequence. Every
/// candidate resolves each component against the cache; misses join the
/// round's simulation list, first occurrence winning the slot, so each
/// distinct key is simulated once per round and shared — also by a later
/// candidate of the batch that repeats an earlier one. Nothing is counted
/// here: the reduce stage may never reach a candidate.
void lookupRound(const SearchContext &Ctx, RoundWork &W) {
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    if (!W.Cands[J].Valid)
      continue;
    CandPlan &Plan = W.Plans[J];
    for (PlannedComp &PC : Plan.Comps) {
      PC.Hit = Ctx.Cache.lookupComponent(PC.Key);
      if (PC.Hit) {
        ++Plan.Hits;
        Plan.SnapHits += PC.Hit->FromSnapshot;
        continue;
      }
      auto Ins = W.SimOf.emplace(PC.Key, static_cast<int>(W.Sims.size()));
      if (Ins.second)
        W.Sims.push_back({PC.Sub, PC.Key, static_cast<int>(J)});
      PC.Sim = Ins.first->second;
    }
  }
}

/// Runs one simulation of the round's list on the arena of pool slot
/// \p Slot.
Eval simulate(SearchContext &Ctx, const Sim &S, int Slot) {
  Eval E;
  Result<analysis::VerdictOutcome> Out = analysis::analyzeVerdictOnly(
      *S.Sub, Ctx.SimOpts, &Ctx.Arenas[static_cast<size_t>(Slot)]);
  if (Out.ok()) {
    E.Ok = true;
    E.V = std::move(*Out);
  } else {
    E.ErrMsg = Out.error().message();
  }
  return E;
}

/// Simulate: each worker builds (or rebinds) its own model and publishes
/// counters and phase timings into its own thread shard, so more
/// workers cannot race on the registry — and the merged totals stay
/// identical because every simulation publishes the same numbers on
/// whichever thread runs it.
void simulateRound(SearchContext &Ctx, RoundWork &W) {
  W.SimEvals.assign(W.Sims.size(), Eval());
  Ctx.Pool.parallelFor(static_cast<int>(W.Sims.size()),
                       [&](int I, int Slot) {
                         W.SimEvals[static_cast<size_t>(I)] = simulate(
                             Ctx, W.Sims[static_cast<size_t>(I)], Slot);
                       });
}

/// Fills the cache from the round's simulations (in order of first need —
/// a serial-path fact; insertComponent itself rejects undecided verdicts)
/// and assembles every candidate's verdict: a whole-config candidate takes
/// its component's verdict, a decomposed one merges its parts
/// (analysis::mergeComponentVerdicts). Verdicts are copied, never moved:
/// a simulation may serve several candidates.
void mergeRound(SearchContext &Ctx, RoundWork &W) {
  for (size_t I = 0; I < W.Sims.size(); ++I)
    if (W.SimEvals[I].Ok)
      Ctx.Cache.insertComponent(W.Sims[I].Key, W.SimEvals[I].V);
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    const CandPlan &Plan = W.Plans[J];
    if (!W.Cands[J].Valid)
      continue;
    Eval &E = W.Evals[J];
    std::vector<analysis::ComponentVerdict> Parts;
    bool Failed = false;
    for (const PlannedComp &PC : Plan.Comps) {
      const Eval *SE =
          PC.Hit ? nullptr : &W.SimEvals[static_cast<size_t>(PC.Sim)];
      if (SE && !SE->Ok) {
        if (!Failed) // first failing component wins, deterministically
          E.ErrMsg = SE->ErrMsg;
        Failed = true;
        continue;
      }
      const analysis::VerdictOutcome &V = SE ? SE->V : PC.Hit->Verdict;
      if (PC.GidMap)
        Parts.push_back({V, *PC.GidMap});
      else
        E.V = V; // the whole config: its one verdict is the candidate's
    }
    E.Ok = !Failed;
    if (E.Ok && !Parts.empty())
      E.V = analysis::mergeComponentVerdicts(
          Parts, W.Cands[J].Config.numTasks());
  }
}

/// Reduce: merges the round's verdicts, then walks the candidates in order
/// — log lines, statistics, best-so-far and the returned error (if any)
/// are those of the lowest-index candidate, independent of evaluation
/// order — and adapts the incumbent from the round's best. The walk counts
/// each candidate it reaches, once; it stops at a schedulable one, and the
/// candidates after it count nowhere. Every simulation the round ran
/// counts. Returns true when a schedulable candidate ended the search.
Result<bool> reduceRound(SearchContext &Ctx, RoundWork &W, Strategy &Strat,
                         LoopState &S, SearchResult &Res) {
  mergeRound(Ctx, W);
  int Hits = 0, Misses = 0, Decomposed = 0, CompHits = 0, CompMisses = 0,
      Dirty = 0, CompSims = 0, WholeSims = 0;
  for (const Sim &Run : W.Sims)
    ++(W.Plans[static_cast<size_t>(Run.FirstCand)].decomposed() ? CompSims
                                                                 : WholeSims);
  bool Found = false;
  int BestJ = -1;
  int64_t BestJBadness = -1;
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    int IterJ = S.Iter + static_cast<int>(J);
    const Candidate &C = W.Cands[J];
    if (!C.Valid) {
      Res.Log.push_back(formatString("iter %d: invalid candidate (%s)", IterJ,
                                     C.InvalidReason.c_str()));
      continue;
    }
    const Eval &E = W.Evals[J];
    if (!E.Ok)
      return Error::failure(E.ErrMsg);
    const CandPlan &Plan = W.Plans[J];
    ++(Plan.hit() ? Hits : Misses);
    if (Plan.decomposed()) {
      ++Decomposed;
      CompHits += Plan.Hits;
      CompMisses += static_cast<int>(Plan.Comps.size()) - Plan.Hits;
      Dirty += Plan.Dirty;
    }
    // Warm-from-disk hits are counted outside SearchResult: their
    // provenance depends on resume, which the result must not.
    if (Ctx.Problem.CkptStats)
      Ctx.Problem.CkptStats->SnapshotHits +=
          static_cast<uint64_t>(Plan.SnapHits);
    ++Res.StopReasonCounts[static_cast<size_t>(E.V.Stop)];
    if (!E.V.decided()) {
      // The guard rails (per-candidate budget / cancellation) ended the
      // run before a verdict existed: record the reason and move on — a
      // timed-out candidate never aborts the batch.
      ++Res.CandidatesSkipped;
      Res.Log.push_back(formatString(
          "iter %d: skipped (%s after %llu actions)", IterJ,
          nsa::stopReasonName(E.V.Stop),
          static_cast<unsigned long long>(E.V.ActionCount)));
      continue;
    }
    ++Res.ConfigurationsEvaluated;
    int64_t Badness = badnessOf(Ctx.L, E.V);
    if (E.V.Schedulable) {
      Res.Log.push_back(formatString("iter %d: schedulable", IterJ));
      Found = Res.Found = true;
      Res.Best = C.Config;
      Res.BestBadness = 0;
      Res.BestTrajectory.push_back({IterJ, 0});
      break;
    }
    Res.Log.push_back(formatString(
        "iter %d: unschedulable (badness %lld, first miss at t=%lld, "
        "%d tasks)",
        IterJ, static_cast<long long>(Badness),
        static_cast<long long>(E.V.FirstMissTime),
        static_cast<int>(E.V.FirstMissTasks.size())));
    if (Res.BestBadness < 0 || Badness < Res.BestBadness) {
      Res.BestBadness = Badness;
      Res.Best = C.Config;
      Res.BestTrajectory.push_back({IterJ, Badness});
    }
    if (BestJ < 0 || Badness < BestJBadness) {
      BestJ = static_cast<int>(J);
      BestJBadness = Badness;
    }
  }

  Res.CacheHits += Hits;
  Res.CacheMisses += Misses;
  Res.DecomposedCandidates += Decomposed;
  Res.ComponentCacheHits += CompHits;
  Res.ComponentCacheMisses += CompMisses;
  Res.DirtyComponents += Dirty;
  Res.ComponentsSimulated += CompSims;
  Res.SimulationsRun += WholeSims;
  Res.Log.push_back(formatString(
      "round %d: cache %d hits / %d misses (%d entries); decomposed %d/%d "
      "candidates; component cache %d hits / %d misses, %d dirty; "
      "simulated %d components + %d whole configs",
      W.Index, Hits, Misses, static_cast<int>(Ctx.Cache.componentSize()),
      Decomposed, Hits + Misses, CompHits, CompMisses, Dirty, CompSims,
      WholeSims));
  if (Found)
    return true;
  if (BestJ < 0) {
    // Every candidate in the round was invalid; the strategy's escape move
    // (the default resamples all boosts).
    Strat.adaptAllInvalid(S.R, Ctx.Problem, S.Boost);
    return false;
  }
  // Adapt from the round's best candidate — the strategy's move (the
  // default greedily adopts it, grows the windows of the partitions whose
  // tasks miss at the first-miss instant, and occasionally rebinds the
  // worst partition to the least-loaded core).
  const size_t B = static_cast<size_t>(BestJ);
  RoundBest RB;
  RB.Config = &W.Cands[B].Config;
  RB.Boost = &W.Cands[B].Boost;
  RB.Verdict = &W.Evals[B].V;
  RB.Badness = BestJBadness;
  Strat.adapt(S.R, Ctx.Problem, RB, S.Current, S.Boost);
  return false;
}

/// One round of \p N candidates through every stage, timed as the `round`
/// phase. A checkpoint is not part of it: the loop writes those between
/// rounds.
Result<bool> runRound(SearchContext &Ctx, Strategy &Strat, LoopState &LS,
                      RoundWork &W, SearchResult &Res, int N) {
  obs::ScopedTimer Timer("round");
  W.reset(LS.Round, N);
  generateRound(Ctx.Problem, Strat, LS, W);
  for (int J = 0; J < N; ++J)
    if (W.Cands[static_cast<size_t>(J)].Valid)
      planCandidate(Ctx, W, J);
  lookupRound(Ctx, W);
  simulateRound(Ctx, W);
  return reduceRound(Ctx, W, Strat, LS, Res);
}

/// Checkpoint: cache contents + loop state at a round boundary, written
/// atomically (old-or-new, never torn). A write failure is recorded and
/// swallowed: a full disk or read-only filesystem must not change what the
/// search computes — durability is best-effort, results are not. Nothing
/// here touches the result: checkpoint cadence is wall-clock dependent,
/// and SearchResult stays byte-identical with checkpointing on, off, or
/// failing.
void writeCheckpoint(const SearchContext &Ctx, const LoopState &LS,
                     int NextRound, const SearchResult &Res,
                     const Strategy &Strat) {
  const SearchProblem &Problem = Ctx.Problem;
  obs::ScopedTimer Timer("checkpoint");
  Snapshot S;
  S.captureCache(Ctx.Cache);
  S.HasSearchState = true;
  S.Seed = Problem.Seed;
  S.BatchSize = std::max(1, Problem.BatchSize);
  S.BaseCrc = Ctx.BaseCrc;
  S.NextRound = NextRound;
  S.Iter = LS.Iter;
  S.RngState = LS.R.saveState();
  S.Current = LS.Current;
  S.Boost = LS.Boost;
  S.Res = Res;
  S.StrategyName = Strat.name();
  Strat.saveState(S.StrategyState);
  if (Error E = saveSnapshot(S, Problem.CheckpointPath, Problem.CkptStats)) {
    if (Problem.CkptStats) {
      ++Problem.CkptStats->WriteFailures;
      Problem.CkptStats->LastError = E.message();
    }
  }
}

/// \p C with every binding and window cleared: the part of a config the
/// search never changes.
cfg::Config unbound(cfg::Config C) {
  for (cfg::Partition &P : C.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  return C;
}

/// Why the checkpointed loop state of \p Snap cannot continue a search over
/// \p Base, or "" when it can. The incumbent must be a binding of the base:
/// the same cores, partitions, tasks and messages, every partition bound to
/// a core in range, and one boost per partition.
std::string misfit(const Snapshot &Snap, const cfg::Config &Base) {
  const cfg::Config &C = Snap.Current;
  if (Snap.Iter < 0 || Snap.NextRound < 0)
    return "negative loop position";
  if (encodeConfigBytes(unbound(C)) != encodeConfigBytes(unbound(Base)))
    return "incumbent is not a binding of the base";
  if (Snap.Boost.size() != C.Partitions.size())
    return "boost count differs from the partition count";
  for (size_t P = 0; P < C.Partitions.size(); ++P) {
    int Core = C.Partitions[P].Core;
    if (Core < 0 || static_cast<size_t>(Core) >= C.Cores.size())
      return formatString("partition %zu is bound to core %d of %zu", P, Core,
                          C.Cores.size());
  }
  return "";
}

/// Restores the loop state and partial result of a checkpointed search,
/// and seeds the cache. Returns true when the snapshot holds a finished
/// search: its result is final, and replaying the finding round would
/// double-count its candidates into the restored counters.
Result<bool> resumeFrom(SearchContext &Ctx, const Snapshot &Snap,
                        Strategy &Strat, LoopState &LS, SearchResult &Res) {
  const SearchProblem &Problem = Ctx.Problem;
  const int Batch = std::max(1, Problem.BatchSize);
  if (Snap.HasSearchState) {
    if (Snap.Seed != Problem.Seed || Snap.BatchSize != Batch ||
        Snap.BaseCrc != Ctx.BaseCrc)
      return Error::failure(
          ErrorCode::SnapshotMismatch,
          formatString("snapshot belongs to a different search: snapshot "
                       "(seed=%llu batch=%d base=%08x) vs problem "
                       "(seed=%llu batch=%d base=%08x)",
                       static_cast<unsigned long long>(Snap.Seed),
                       Snap.BatchSize, Snap.BaseCrc,
                       static_cast<unsigned long long>(Problem.Seed), Batch,
                       Ctx.BaseCrc));
    std::string Misfit = misfit(Snap, Problem.Base);
    if (!Misfit.empty())
      return Error::failure(ErrorCode::SnapshotCorrupt,
                            "snapshot search state does not fit the base: " +
                                Misfit);
    // The full loop state: incumbent, boosts, the RNG mid-stream, the
    // partial result, and the loop position. The remaining rounds then
    // recompute exactly what the uninterrupted run computed.
    LS.Current = Snap.Current;
    LS.Boost = Snap.Boost;
    LS.R.restoreState(Snap.RngState);
    LS.Iter = Snap.Iter;
    LS.Round = Snap.NextRound;
    Res = Snap.Res;
    // The strategy resumes mid-stream too: a snapshot written under a
    // different metaheuristic must not silently continue as this one.
    if (Snap.StrategyName != Strat.name())
      return Error::failure(
          ErrorCode::SnapshotMismatch,
          formatString("snapshot strategy '%s' does not match this "
                       "search's strategy '%s'",
                       Snap.StrategyName.c_str(), Strat.name()));
    if (!Strat.loadState(Snap.StrategyState.data(), Snap.StrategyState.size()))
      return Error::failure(ErrorCode::SnapshotCorrupt,
                            "malformed strategy state in snapshot");
  }
  uint64_t Merged = Snap.seedCache(Ctx.Cache);
  if (Problem.CkptStats)
    Problem.CkptStats->ComponentEntriesMerged += Merged;
  return Snap.HasSearchState && Res.Found;
}

} // namespace

Result<SearchResult>
swa::schedtool::searchConfiguration(const SearchProblem &Problem) {
  obs::ScopedTimer Timer("schedtool.search");
  SearchResult Res;

  // The search chooses every binding and window itself, so Base is checked
  // with those cleared; everything else must already be valid — first-fit
  // binding reads each task's WCETs, and an invalid task would fail every
  // candidate's validation until the iterations ran out.
  if (Error E = unbound(Problem.Base)
                    .validate(cfg::ValidationPolicy::AllowUnbound))
    return E.withContext("search base");

  // The metaheuristic: the caller's (SearchProblem::Strat) or the built-in
  // local search, which reproduces the historical loop draw for draw.
  std::unique_ptr<Strategy> DefaultStrat;
  Strategy *Strat = Problem.Strat;
  if (!Strat) {
    DefaultStrat = makeStrategy("local");
    Strat = DefaultStrat.get();
  }

  LoopState LS{Problem.Base, {}, Rng(Problem.Seed)};
  if (!bindFirstFitDecreasing(LS.Current)) {
    Res.Log.push_back("initial binding failed: insufficient capacity");
    return Res;
  }
  LS.Boost.assign(LS.Current.Partitions.size(), 1.5);
  SearchContext Ctx(Problem, LS.Current);
  const int Batch = std::max(1, Problem.BatchSize);

  // The identity CRC guards both directions: a snapshot resumes only the
  // (Seed, BatchSize, Base) search that wrote it.
  const bool Checkpointing = !Problem.CheckpointPath.empty();
  if (Checkpointing || (Problem.Resume && Problem.Resume->HasSearchState))
    Ctx.BaseCrc = snapshotBaseCrc(Problem.Base);

  Res.BestBadness = -1;
  if (Problem.Resume) {
    Result<bool> Finished =
        resumeFrom(Ctx, *Problem.Resume, *Strat, LS, Res);
    if (!Finished.ok())
      return Finished.takeError();
    if (*Finished)
      return Res;
  }

  auto LastCkpt = std::chrono::steady_clock::now();
  RoundWork W;
  for (; LS.Iter < Problem.MaxIterations; ++LS.Round) {
    if (Problem.Cancel && Problem.Cancel->isCancelled()) {
      Res.Cancelled = true;
      Res.Log.push_back(
          formatString("search cancelled before iter %d", LS.Iter));
      break;
    }
    // Periodic checkpoint at the round boundary (the top of the loop is
    // one for round == NextRound), throttled by CheckpointEveryMs; 0
    // checkpoints every round.
    if (Checkpointing) {
      auto Now = std::chrono::steady_clock::now();
      if (Problem.CheckpointEveryMs <= 0 ||
          std::chrono::duration_cast<std::chrono::milliseconds>(Now - LastCkpt)
                  .count() >= Problem.CheckpointEveryMs) {
        writeCheckpoint(Ctx, LS, LS.Round, Res, *Strat);
        LastCkpt = Now;
      }
    }
    int N = std::min(Batch, Problem.MaxIterations - LS.Iter);
    Result<bool> Found = runRound(Ctx, *Strat, LS, W, Res, N);
    if (!Found.ok())
      return Found.takeError();
    if (*Found) {
      // Terminal flush: persist the finished result (and every verdict
      // earned) so a later resume returns it without re-running.
      if (Checkpointing)
        writeCheckpoint(Ctx, LS, LS.Round, Res, *Strat);
      return Res;
    }
    LS.Iter += N;
  }
  // The round-top poll only sees a cancel that fired *between* rounds; one
  // that fired during the final round left its mark as skipped candidates
  // but never set the flag. Record it so callers can tell "search ended
  // because it was told to" from "search exhausted its iterations".
  if (!Res.Cancelled && Problem.Cancel && Problem.Cancel->isCancelled()) {
    Res.Cancelled = true;
    Res.Log.push_back("search cancelled during final round");
  }
  // Terminal flush, throttle-free: a cancelled or exhausted run always
  // leaves its latest state (including the cancel marks and StopReason
  // tallies above) on disk. Resuming a cancelled snapshot continues the
  // search from the cancel point; the cancel log line stays in the result
  // as a record of the interruption.
  if (Checkpointing)
    writeCheckpoint(Ctx, LS, LS.Round, Res, *Strat);
  return Res;
}


void swa::schedtool::fillSearchReport(obs::RunReport &Report,
                                      const SearchResult &Res,
                                      double ElapsedSec) {
  Report.addCount("found", Res.Found ? 1 : 0);
  Report.addCount("cancelled", Res.Cancelled ? 1 : 0);
  Report.addCount("candidates.evaluated",
                  static_cast<uint64_t>(Res.ConfigurationsEvaluated));
  Report.addCount("candidates.skipped",
                  static_cast<uint64_t>(Res.CandidatesSkipped));
  Report.addCount("cache.hits", static_cast<uint64_t>(Res.CacheHits));
  Report.addCount("cache.misses", static_cast<uint64_t>(Res.CacheMisses));
  int Lookups = Res.CacheHits + Res.CacheMisses;
  if (Lookups > 0)
    Report.addStat("cache.hit_rate",
                   static_cast<double>(Res.CacheHits) /
                       static_cast<double>(Lookups));
  Report.addCount("decomposed.candidates",
                  static_cast<uint64_t>(Res.DecomposedCandidates));
  Report.addCount("components.simulated",
                  static_cast<uint64_t>(Res.ComponentsSimulated));
  Report.addCount("component_cache.hits",
                  static_cast<uint64_t>(Res.ComponentCacheHits));
  Report.addCount("component_cache.misses",
                  static_cast<uint64_t>(Res.ComponentCacheMisses));
  int CompLookups = Res.ComponentCacheHits + Res.ComponentCacheMisses;
  if (CompLookups > 0)
    Report.addStat("component_cache.hit_rate",
                   static_cast<double>(Res.ComponentCacheHits) /
                       static_cast<double>(CompLookups));
  Report.addCount("components.dirty",
                  static_cast<uint64_t>(Res.DirtyComponents));
  if (CompLookups > 0 && Res.ConfigurationsEvaluated > 0)
    Report.addStat("components.dirty_per_candidate",
                   static_cast<double>(Res.DirtyComponents) /
                       static_cast<double>(Res.ConfigurationsEvaluated));
  Report.addCount("simulations.run",
                  static_cast<uint64_t>(Res.SimulationsRun));
  Report.addStat("best.badness", static_cast<double>(Res.BestBadness));
  for (int R = 0; R < nsa::NumStopReasons; ++R)
    if (Res.StopReasonCounts[static_cast<size_t>(R)] > 0)
      Report.addCount(
          std::string("stop.") +
              nsa::stopReasonName(static_cast<nsa::StopReason>(R)),
          static_cast<uint64_t>(
              Res.StopReasonCounts[static_cast<size_t>(R)]));
  if (ElapsedSec > 0)
    Report.addStat("candidates_per_sec",
                   static_cast<double>(Res.ConfigurationsEvaluated) /
                       ElapsedSec);
}
