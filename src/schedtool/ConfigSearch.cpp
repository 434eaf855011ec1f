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
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "obs/Timer.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "schedtool/VerdictCache.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
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
//   plan       derive each candidate's components from its mutation delta
//   lookup     resolve components against the one verdict cache and
//              deduplicate the misses into the round's simulation list
//   simulate   run the list (early exit, leased arena instances)
//   reduce     fill the cache, merge component verdicts, log, adapt
//   checkpoint persist cache + loop state at the round boundary
//
// Every stage but simulate is serial, so the hit pattern, the simulation
// list and every SearchResult field are pure functions of the candidate
// sequence — identical for any Workers value.
//===----------------------------------------------------------------------===//

/// One candidate of a round: a concrete binding + window layout, the boost
/// vector that produced it, and the mutation delta that derived it from
/// candidate 0 (recorded by Strategy::perturb without touching the RNG
/// call sequence).
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
/// storage: the candidate itself, its Owned list, or the round base.
struct PlannedComp {
  const cfg::Config *Sub = nullptr;
  /// Component-to-candidate gid map; null for the whole-config component.
  const std::vector<int32_t> *GidMap = nullptr;
  /// Cache key at the global horizon L, and the raw (uncanonicalized)
  /// fingerprint that tells symmetry folds from plain revisits.
  cfg::Fingerprint Canon, Raw;
  /// The lookup stage's resolution: a cache entry (stable address — see
  /// VerdictCache.h) or an index into the round's simulation list.
  const VerdictCache::ComponentEntry *Hit = nullptr;
  int Sim = -1;
};

/// A candidate's component list and how the lookup stage classified it.
struct CandPlan {
  std::vector<PlannedComp> Comps;
  /// Components a mutation dirtied (deque: pointers survive growth).
  std::deque<cfg::Component> Owned;
  int Dirty = 0, Clean = 0;
  /// Earlier candidate of the batch with the identical key list, whose
  /// verdict this one copies; -1 = none.
  int DupOf = -1;
  /// Verdict provenance for the "candidate" span: 0 = simulated, 1 = cache
  /// hit, 2 = symmetry fold, 3 = intra-batch duplicate.
  int Src = 0;
  bool decomposed() const { return Comps.size() > 1; }
};

/// One deduplicated simulation of a round: the first candidate needing the
/// key contributes the sub-config; every later one shares the verdict.
struct Sim {
  const cfg::Config *Sub = nullptr;
  cfg::Fingerprint Canon, Raw;
  int FirstCand = -1;
};

/// The round base: candidate 0's component structure, materialized
/// components and their keys. Candidate 0 carries the round's shared
/// binding, so every candidate's clean components reuse these outright.
struct BaseRound {
  bool Ready = false;
  cfg::ComponentStructure S;
  std::vector<cfg::Component> Comps;
  std::vector<char> Ok;
  std::vector<cfg::Fingerprint> Canon, Raw;
};

/// One round's evaluation statistics, added into the SearchResult (and
/// the obs counters) when the round is flushed.
struct RoundStats {
  int Hits = 0, Misses = 0, Folds = 0, Dups = 0;
  int Decomposed = 0, CompHits = 0, CompMisses = 0, Dirty = 0, Clean = 0;
  int CompSims = 0, WholeSims = 0;
};

/// Everything one round produces, stage by stage.
struct RoundWork {
  int Index = 0;
  std::vector<Candidate> Cands;
  std::vector<CandPlan> Plans;
  BaseRound Base;
  std::vector<Sim> Sims;
  std::unordered_map<cfg::Fingerprint, int, cfg::FingerprintHash> SimOf;
  std::vector<Eval> SimEvals;
  std::vector<Eval> Evals;
  RoundStats Stats;

  void reset(int Round, int N) {
    Index = Round;
    Cands.assign(static_cast<size_t>(N), Candidate());
    Plans.assign(static_cast<size_t>(N), CandPlan());
    Base = BaseRound();
    Sims.clear();
    SimOf.clear();
    SimEvals.clear();
    Evals.assign(static_cast<size_t>(N), Eval());
    Stats = RoundStats();
  }
};

/// A pool of model arenas for instance reuse. ThreadPool::parallelFor
/// exposes no worker identity, so simulations lease an arena each; with W
/// workers at most W arenas ever exist and the steady state is one per
/// worker. Verdicts are arena-independent (ModelArena.h), so which
/// simulation draws which arena — a timing fact — cannot influence any
/// result.
class ArenaPool {
public:
  std::unique_ptr<analysis::ModelArena> acquire() {
    std::lock_guard<std::mutex> Lock(M);
    if (Free.empty()) {
      // Every arena of the pool shares one compiled-bytecode cache:
      // compilation is shape-keyed and its output immutable, so one
      // worker's compile pays for every worker's rebuild of that shape
      // (core::BytecodeCache — wall-clock only, never verdicts).
      auto A = std::make_unique<analysis::ModelArena>();
      A->setSharedBytecode(&Bytecode);
      return A;
    }
    std::unique_ptr<analysis::ModelArena> A = std::move(Free.back());
    Free.pop_back();
    return A;
  }
  void release(std::unique_ptr<analysis::ModelArena> A) {
    std::lock_guard<std::mutex> Lock(M);
    Free.push_back(std::move(A));
  }

private:
  std::mutex M;
  std::vector<std::unique_ptr<analysis::ModelArena>> Free;
  core::BytecodeCache Bytecode;
};

/// RAII lease of one arena for one simulation.
class ArenaLease {
public:
  explicit ArenaLease(ArenaPool &Pool) : Pool(Pool), A(Pool.acquire()) {}
  ~ArenaLease() { Pool.release(std::move(A)); }
  ArenaLease(const ArenaLease &) = delete;
  ArenaLease &operator=(const ArenaLease &) = delete;
  analysis::ModelArena *get() const { return A.get(); }

private:
  ArenaPool &Pool;
  std::unique_ptr<analysis::ModelArena> A;
};

/// The search's obs counters (stable registry addresses within the calling
/// thread's shard), null when metrics are off. Only the calling thread
/// touches them; workers publish engine-level counters into their own
/// shards, and the merged totals are identical for every Workers value
/// because the simulation list is fixed by (Seed, BatchSize).
struct SearchCounters {
  obs::Counter *Cand = nullptr, *Sim = nullptr, *Sched = nullptr;
  obs::Counter *Hit = nullptr, *Miss = nullptr, *Fold = nullptr;
  obs::Counter *Decomp = nullptr, *Comp = nullptr;
  obs::Counter *CompHit = nullptr, *CompMiss = nullptr;
  obs::Counter *Dirty = nullptr, *Clean = nullptr;
  obs::Counter *SnapHit = nullptr, *Ckpt = nullptr;

  SearchCounters() {
    if (!obs::enabled())
      return;
    obs::Registry &Reg = obs::Registry::global();
    Cand = &Reg.counter("schedtool.candidates.evaluated");
    Sim = &Reg.counter("schedtool.simulations.run");
    Sched = &Reg.counter("schedtool.schedulable.seen");
    Hit = &Reg.counter("schedtool.cache.hits");
    Miss = &Reg.counter("schedtool.cache.misses");
    Fold = &Reg.counter("schedtool.cache.folds");
    Decomp = &Reg.counter("schedtool.decomposed.candidates");
    Comp = &Reg.counter("schedtool.components.simulated");
    CompHit = &Reg.counter("schedtool.component_cache.hits");
    CompMiss = &Reg.counter("schedtool.component_cache.misses");
    Dirty = &Reg.counter("schedtool.components.dirty");
    Clean = &Reg.counter("schedtool.components.clean_reused");
    // Warm-from-disk hits vs same-run memoization, and checkpoints
    // actually written — durable-search traffic, outside SearchResult.
    SnapHit = &Reg.counter("verdict_cache.snapshot_hits");
    Ckpt = &Reg.counter("schedtool.checkpoints.written");
  }
};

void bump(obs::Counter *C, int V) {
  if (C)
    C->add(static_cast<uint64_t>(V));
}

/// Search-lifetime state the stages share.
struct SearchContext {
  SearchContext(const SearchProblem &P, const cfg::Config &Bound)
      : Problem(P), L(Bound.hyperperiod()),
        Decomposable(L > 0 && L != std::numeric_limits<int64_t>::max()),
        MsgGroups(cfg::messageGroups(Bound)), UF(Bound.Cores.size()),
        Pool(std::max(1, P.Workers)) {
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
  const bool Decomposable;
  /// Message groups depend only on the message topology, which no search
  /// move touches: computed once, and each candidate's union-find runs
  /// over the grouped edges (one unite per partition) against UF.
  const cfg::MessageGroups MsgGroups;
  support::UnionFind UF;
  ThreadPool Pool;
  nsa::SimOptions SimOpts;
  VerdictCache Cache;
  ArenaPool Arenas;
  SearchCounters C;
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

void ensureBase(SearchContext &Ctx, RoundWork &W) {
  BaseRound &B = W.Base;
  if (B.Ready)
    return;
  B.Ready = true;
  B.S = cfg::componentStructureFromGroups(W.Cands[0].Config, Ctx.MsgGroups,
                                          Ctx.UF);
  if (!B.S.Valid || B.S.NumComps < 2)
    return;
  size_t NK = static_cast<size_t>(B.S.NumComps);
  B.Comps.assign(NK, cfg::Component());
  B.Ok.assign(NK, 0);
  B.Canon.assign(NK, {});
  B.Raw.assign(NK, {});
  for (size_t K = 0; K < NK; ++K) {
    if (!cfg::materializeComponent(W.Cands[0].Config, B.S,
                                   static_cast<int32_t>(K), Ctx.L, B.Comps[K]))
      continue;
    B.Ok[K] = 1;
    B.Canon[K] = cfg::fingerprintComponent(B.Comps[K].Sub, Ctx.L);
    B.Raw[K] = cfg::fingerprintComponent(B.Comps[K].Sub, Ctx.L,
                                         /*CanonicalizeCores=*/false);
  }
}

/// Splits candidate J into its message-graph components, deriving the
/// structure from the mutation delta: only components containing a
/// mutated core are re-materialized; clean ones reuse the round base's
/// sub-configs and keys. Returns false when the candidate does not
/// decompose — the same condition cfg::decomposeConfig reports, because
/// the mutated-core set is conservative: a boost resample only moves
/// window shares on the resampled partition's core, and a rebind changes
/// membership of exactly the components containing its endpoint cores
/// (the rebound partition's message group follows it). Any component with
/// no mutated core is therefore byte-identical to its base counterpart
/// (matched through CompOfCore, which the rebind cannot have touched for
/// clean cores) — including materialization failure, so declining when
/// the base counterpart failed is exact parity.
bool planComponents(SearchContext &Ctx, RoundWork &W, int J) {
  ensureBase(Ctx, W);
  const BaseRound &Base = W.Base;
  const Candidate &C = W.Cands[static_cast<size_t>(J)];
  const Mutation &DJ = C.Delta;
  CandPlan &Plan = W.Plans[static_cast<size_t>(J)];
  const cfg::ComponentStructure *S = &Base.S;
  cfg::ComponentStructure LocalS;
  if (DJ.RebindPart >= 0) {
    LocalS = cfg::componentStructureFromGroups(C.Config, Ctx.MsgGroups, Ctx.UF);
    S = &LocalS;
  }
  if (!S->Valid || S->NumComps < 2)
    return false;

  std::vector<char> DirtyCore(C.Config.Cores.size(), 0);
  for (int32_t P : DJ.BoostChanged)
    DirtyCore[static_cast<size_t>(
        C.Config.Partitions[static_cast<size_t>(P)].Core)] = 1;
  if (DJ.RebindPart >= 0) {
    DirtyCore[static_cast<size_t>(DJ.OldCore)] = 1;
    DirtyCore[static_cast<size_t>(DJ.NewCore)] = 1;
  }

  size_t NK = static_cast<size_t>(S->NumComps);
  std::vector<char> CompDirty(NK, 0);
  std::vector<int32_t> RepCore(NK, -1);
  for (size_t Core = 0; Core < S->CompOfCore.size(); ++Core) {
    int32_t K = S->CompOfCore[Core];
    if (K < 0)
      continue;
    if (RepCore[static_cast<size_t>(K)] < 0)
      RepCore[static_cast<size_t>(K)] = static_cast<int32_t>(Core);
    if (DirtyCore[Core])
      CompDirty[static_cast<size_t>(K)] = 1;
  }

  Plan.Comps.assign(NK, PlannedComp());
  for (size_t K = 0; K < NK; ++K) {
    PlannedComp &PC = Plan.Comps[K];
    if (!CompDirty[K]) {
      int32_t B = Base.S.CompOfCore[static_cast<size_t>(RepCore[K])];
      if (B < 0 || static_cast<size_t>(B) >= Base.Ok.size() ||
          !Base.Ok[static_cast<size_t>(B)])
        return false;
      size_t BK = static_cast<size_t>(B);
      PC.Sub = &Base.Comps[BK].Sub;
      PC.GidMap = &Base.Comps[BK].GidMap;
      PC.Canon = Base.Canon[BK];
      PC.Raw = Base.Raw[BK];
      ++Plan.Clean;
      continue;
    }
    Plan.Owned.emplace_back();
    if (!cfg::materializeComponent(C.Config, *S, static_cast<int32_t>(K),
                                   Ctx.L, Plan.Owned.back()))
      return false; // window pattern not sub-periodic: decline whole
    PC.Sub = &Plan.Owned.back().Sub;
    PC.GidMap = &Plan.Owned.back().GidMap;
    PC.Canon = cfg::fingerprintComponent(*PC.Sub, Ctx.L);
    PC.Raw = cfg::fingerprintComponent(*PC.Sub, Ctx.L,
                                       /*CanonicalizeCores=*/false);
    ++Plan.Dirty;
  }
  return true;
}

/// Plan: candidate J's component list — its message-graph components, or
/// the whole config as the single component when it does not decompose.
void planCandidate(SearchContext &Ctx, RoundWork &W, int J) {
  if (Ctx.Decomposable && planComponents(Ctx, W, J))
    return;
  const cfg::Config &Whole = W.Cands[static_cast<size_t>(J)].Config;
  CandPlan &Plan = W.Plans[static_cast<size_t>(J)];
  Plan = CandPlan();
  Plan.Comps.resize(1);
  Plan.Comps[0].Sub = &Whole;
  Plan.Comps[0].Canon = cfg::fingerprintComponent(Whole, Ctx.L);
  Plan.Comps[0].Raw =
      cfg::fingerprintComponent(Whole, Ctx.L, /*CanonicalizeCores=*/false);
}

bool sameKeys(const CandPlan &A, const CandPlan &B) {
  if (A.Comps.size() != B.Comps.size())
    return false;
  for (size_t K = 0; K < A.Comps.size(); ++K)
    if (A.Comps[K].Canon != B.Comps[K].Canon)
      return false;
  return true;
}

/// Lookup: in candidate order and against the pre-batch cache state, so
/// the hit pattern is a pure function of the candidate sequence. A
/// candidate whose key list repeats an earlier one of the batch is a
/// duplicate and copies that verdict after the batch. Every other
/// candidate resolves each component against the cache; misses join the
/// round's simulation list, first occurrence winning the slot, so each
/// distinct key is simulated once per round and shared.
void lookupRound(SearchContext &Ctx, RoundWork &W) {
  RoundStats &St = W.Stats;
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    if (!W.Cands[J].Valid)
      continue;
    CandPlan &Plan = W.Plans[J];
    for (size_t I = 0; I < J; ++I)
      if (W.Cands[I].Valid && sameKeys(W.Plans[I], Plan)) {
        Plan.DupOf = static_cast<int>(I);
        Plan.Src = 3;
        ++St.Dups;
        break;
      }
    if (Plan.DupOf >= 0)
      continue;

    int Hits = 0;
    bool Fold = false;
    for (PlannedComp &PC : Plan.Comps) {
      if (const VerdictCache::ComponentEntry *E =
              Ctx.Cache.lookupComponent(PC.Canon)) {
        PC.Hit = E;
        ++Hits;
        Fold = Fold || E->Raw != PC.Raw;
        if (E->FromSnapshot) {
          // Warm-from-disk hit: counted outside SearchResult (the
          // provenance depends on resume, which the result must not).
          if (Ctx.Problem.CkptStats)
            ++Ctx.Problem.CkptStats->SnapshotHits;
          bump(Ctx.C.SnapHit, 1);
        }
        continue;
      }
      auto Ins = W.SimOf.emplace(PC.Canon, static_cast<int>(W.Sims.size()));
      if (Ins.second) {
        W.Sims.push_back({PC.Sub, PC.Canon, PC.Raw, static_cast<int>(J)});
        ++(Plan.decomposed() ? St.CompSims : St.WholeSims);
      }
      PC.Sim = Ins.first->second;
    }
    if (Plan.decomposed()) {
      ++St.Decomposed;
      St.CompHits += Hits;
      St.CompMisses += static_cast<int>(Plan.Comps.size()) - Hits;
      St.Dirty += Plan.Dirty;
      St.Clean += Plan.Clean;
    }
    if (Hits == static_cast<int>(Plan.Comps.size())) {
      ++St.Hits;
      Plan.Src = 1;
      if (Fold) {
        ++St.Folds;
        Plan.Src = 2;
      }
    } else {
      ++St.Misses;
    }
  }
}

/// Runs one simulation of the round's list.
Eval simulate(SearchContext &Ctx, const Sim &S, int Index) {
  obs::Span Span("simulate.component", "search");
  Span.arg("cand", S.FirstCand);
  Span.arg("sim", Index);
  ArenaLease Lease(Ctx.Arenas);
  Eval E;
  Result<analysis::VerdictOutcome> Out =
      analysis::analyzeVerdictOnly(*S.Sub, Ctx.SimOpts, Lease.get());
  if (Out.ok()) {
    E.Ok = true;
    E.V = std::move(*Out);
  } else {
    E.ErrMsg = Out.error().message();
  }
  return E;
}

/// Simulate: each worker builds (or rebinds) its own model and publishes
/// counters, phase timings and spans into its own thread shard, so more
/// workers cannot race on the registry — and the merged totals stay
/// identical because every simulation publishes the same numbers on
/// whichever thread runs it.
void simulateRound(SearchContext &Ctx, RoundWork &W) {
  W.SimEvals.assign(W.Sims.size(), Eval());
  Ctx.Pool.parallelFor(static_cast<int>(W.Sims.size()), [&](int I) {
    W.SimEvals[static_cast<size_t>(I)] =
        simulate(Ctx, W.Sims[static_cast<size_t>(I)], I);
  });
}

/// Fills the cache from the round's simulations (in order of first need —
/// a serial-path fact; insertComponent itself rejects undecided verdicts)
/// and assembles every candidate's verdict: a whole-config candidate takes
/// its component's verdict, a decomposed one merges its parts
/// (analysis::mergeComponentVerdicts), a duplicate copies its first
/// occurrence. Verdicts are copied, never moved: a simulation may serve
/// several candidates.
void mergeRound(SearchContext &Ctx, RoundWork &W) {
  for (size_t I = 0; I < W.Sims.size(); ++I)
    if (W.SimEvals[I].Ok)
      Ctx.Cache.insertComponent(W.Sims[I].Canon, W.Sims[I].Raw,
                                W.SimEvals[I].V);
  for (size_t J = 0; J < W.Cands.size(); ++J) {
    const CandPlan &Plan = W.Plans[J];
    if (!W.Cands[J].Valid || Plan.DupOf >= 0)
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
  for (size_t J = 0; J < W.Cands.size(); ++J)
    if (W.Plans[J].DupOf >= 0)
      W.Evals[J] = W.Evals[static_cast<size_t>(W.Plans[J].DupOf)];
}

/// Reduce: merges the round's verdicts, then walks the candidates in order
/// — log lines, counters, best-so-far and the returned error (if any) are
/// those of the lowest-index candidate, independent of evaluation order —
/// and adapts the incumbent from the round's best. Returns true when a
/// schedulable candidate ended the search.
Result<bool> reduceRound(SearchContext &Ctx, RoundWork &W, Strategy &Strat,
                         LoopState &S, SearchResult &Res) {
  mergeRound(Ctx, W);
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
    // Per-candidate metadata span: component count, verdict provenance
    // (src: 0 sim / 1 hit / 2 fold / 3 dup), stop reason, badness. It
    // rides the serial reduce, so its args — like the counters — are
    // identical for any worker count.
    obs::Span CandSpan("candidate", "search");
    CandSpan.arg("comps", static_cast<int64_t>(W.Plans[J].Comps.size()));
    CandSpan.arg("src", W.Plans[J].Src);
    CandSpan.arg("stop", static_cast<int64_t>(E.V.Stop));
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
    bump(Ctx.C.Cand, 1);
    int64_t Badness = badnessOf(Ctx.L, E.V);
    CandSpan.arg("badness", Badness);
    if (E.V.Schedulable) {
      Res.Log.push_back(formatString("iter %d: schedulable", IterJ));
      ++Res.SchedulableSeen;
      bump(Ctx.C.Sched, 1);
      Res.Found = true;
      Res.Best = C.Config;
      Res.BestBadness = 0;
      Res.BestTrajectory.push_back({IterJ, 0});
      return true;
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

/// Adds the round's statistics into the result, its summary lines to the
/// log and its deltas to the obs counters. Runs once per round, also on
/// the found-and-returning path, so the schedtool.* counters always equal
/// the SearchResult stats the report prints; the values are serial-path
/// facts, identical for every Workers/BatchSize.
void flushRound(SearchContext &Ctx, const RoundWork &W, SearchResult &Res) {
  const RoundStats &St = W.Stats;
  Res.CacheHits += St.Hits;
  Res.CacheMisses += St.Misses;
  Res.SymmetryFolds += St.Folds;
  Res.DuplicateCandidates += St.Dups;
  Res.DecomposedCandidates += St.Decomposed;
  Res.ComponentCacheHits += St.CompHits;
  Res.ComponentCacheMisses += St.CompMisses;
  Res.DirtyComponents += St.Dirty;
  Res.CleanComponentsReused += St.Clean;
  Res.ComponentsSimulated += St.CompSims;
  Res.SimulationsRun += St.WholeSims;
  Res.Log.push_back(formatString(
      "round %d: cache %d hits / %d misses / %d folds / %d dups "
      "(%d entries)",
      W.Index, St.Hits, St.Misses, St.Folds, St.Dups,
      static_cast<int>(Ctx.Cache.componentSize())));
  Res.Log.push_back(formatString(
      "round %d: decomposed %d/%d candidates; component cache %d hits / "
      "%d misses; incremental %d dirty / %d clean components",
      W.Index, St.Decomposed, St.Hits + St.Misses, St.CompHits,
      St.CompMisses, St.Dirty, St.Clean));
  Res.Log.push_back(formatString(
      "round %d: simulated %d components + %d whole configs", W.Index,
      St.CompSims, St.WholeSims));
  const SearchCounters &C = Ctx.C;
  bump(C.Hit, St.Hits);
  bump(C.Miss, St.Misses);
  bump(C.Fold, St.Folds);
  bump(C.Decomp, St.Decomposed);
  bump(C.Comp, St.CompSims);
  bump(C.CompHit, St.CompHits);
  bump(C.CompMiss, St.CompMisses);
  bump(C.Dirty, St.Dirty);
  bump(C.Clean, St.Clean);
  bump(C.Sim, St.CompSims + St.WholeSims);
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
  obs::Span CkptSpan("checkpoint", "search");
  CkptSpan.arg("iter", LS.Iter);
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
    return;
  }
  bump(Ctx.C.Ckpt, 1);
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
    // Snapshots without a name were always the local strategy.
    std::string SnapStrat =
        Snap.StrategyName.empty() ? "local" : Snap.StrategyName;
    if (SnapStrat != Strat.name())
      return Error::failure(
          ErrorCode::SnapshotMismatch,
          formatString("snapshot strategy '%s' does not match this "
                       "search's strategy '%s'",
                       SnapStrat.c_str(), Strat.name()));
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

  // The metaheuristic: explicit (--strategy) or the built-in local
  // search, which reproduces the historical loop draw for draw.
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
    obs::Span RoundSpan("batch", "search");
    RoundSpan.arg("round", LS.Round);
    RoundSpan.arg("n", N);

    W.reset(LS.Round, N);
    generateRound(Problem, *Strat, LS, W);
    for (int J = 0; J < N; ++J)
      if (W.Cands[static_cast<size_t>(J)].Valid)
        planCandidate(Ctx, W, J);
    lookupRound(Ctx, W);
    simulateRound(Ctx, W);
    Result<bool> Found = reduceRound(Ctx, W, *Strat, LS, Res);
    if (!Found.ok())
      return Found.takeError();
    flushRound(Ctx, W, Res);
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
  Report.addCount("schedulable.seen",
                  static_cast<uint64_t>(Res.SchedulableSeen));
  Report.addCount("cache.hits", static_cast<uint64_t>(Res.CacheHits));
  Report.addCount("cache.misses", static_cast<uint64_t>(Res.CacheMisses));
  Report.addCount("cache.folds", static_cast<uint64_t>(Res.SymmetryFolds));
  Report.addCount("cache.duplicates",
                  static_cast<uint64_t>(Res.DuplicateCandidates));
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
  Report.addCount("components.clean_reused",
                  static_cast<uint64_t>(Res.CleanComponentsReused));
  if (Res.DirtyComponents + Res.CleanComponentsReused > 0 &&
      Res.ConfigurationsEvaluated > 0)
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
