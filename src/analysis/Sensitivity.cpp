//===- analysis/Sensitivity.cpp - Parametric sensitivity analysis ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Sensitivity.h"

#include "analysis/Analyzer.h"
#include "analysis/ModelArena.h"
#include "config/Fingerprint.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "obs/Timer.h"
#include "schedtool/VerdictCache.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <limits>

using namespace swa;
using namespace swa::analysis;

//===----------------------------------------------------------------------===//
// Perturbation builders
//===----------------------------------------------------------------------===//

cfg::Config swa::analysis::withWcetDelta(const cfg::Config &Base, int TaskGid,
                                         cfg::TimeValue Delta) {
  cfg::Config C = Base;
  cfg::TaskRef Ref = C.taskRefOf(TaskGid);
  cfg::Task &T = C.Partitions[static_cast<size_t>(Ref.Partition)]
                     .Tasks[static_cast<size_t>(Ref.Task)];
  for (cfg::TimeValue &W : T.Wcet)
    W += Delta;
  return C;
}

cfg::Config swa::analysis::withPeriod(const cfg::Config &Base, int TaskGid,
                                      cfg::TimeValue Period) {
  cfg::Config C = Base;
  cfg::TaskRef Ref = C.taskRefOf(TaskGid);
  cfg::Task &T = C.Partitions[static_cast<size_t>(Ref.Partition)]
                     .Tasks[static_cast<size_t>(Ref.Task)];
  T.Period = Period;
  T.Deadline = std::min(T.Deadline, Period);
  return C;
}

cfg::Config swa::analysis::withWindowShift(const cfg::Config &Base,
                                           int Partition,
                                           cfg::TimeValue Shift) {
  cfg::Config C = Base;
  for (cfg::Window &W : C.Partitions[static_cast<size_t>(Partition)].Windows) {
    W.Start += Shift;
    W.End += Shift;
  }
  return C;
}

cfg::Config swa::analysis::withUniformInflation(const cfg::Config &Base,
                                                int Permille) {
  cfg::Config C = Base;
  for (cfg::Partition &P : C.Partitions)
    for (cfg::Task &T : P.Tasks)
      for (cfg::TimeValue &W : T.Wcet) {
        if (W > (std::numeric_limits<cfg::TimeValue>::max() - 999) /
                    std::max(Permille, 1)) {
          // Saturate past the deadline: the probe then fails validation,
          // which is the "failing by convention" verdict the search wants.
          W = T.Deadline + 1;
          continue;
        }
        W = (W * Permille + 999) / 1000;
      }
  return C;
}

//===----------------------------------------------------------------------===//
// The probe engine
//===----------------------------------------------------------------------===//

namespace {

/// Convergence granularity of the breakdown-frontier factor search, in
/// per-mille of the inflation factor.
constexpr int FrontierTolerancePermille = 10;
/// Safety valve per query; every search here converges in well under 64
/// probes, so hitting the cap marks the query undecided.
constexpr int MaxProbesPerQuery = 64;

enum class Probe { Pass, Fail, Undecided };

/// One query's oracle frontend: validates, consults the shared verdict
/// cache, and simulates on a miss through the running thread's model
/// arena, so same-shape probes — offset shifts, across queries too —
/// rebind instead of rebuilding.
/// Guard-rail stops, cancellation and the probe cap latch Aborted; a
/// model error latches Error. Both make every later probe Undecided, so
/// a query winds down instead of looping.
struct ProbeEngine {
  const SensitivityOptions &Opts;
  schedtool::VerdictCache &Cache;
  ModelArena &Arena;
  obs::Counter *ProbesC = nullptr;
  obs::Counter *HitC = nullptr;
  obs::Counter *MissC = nullptr;
  obs::Counter *InvalidC = nullptr;

  int Probes = 0;
  bool Aborted = false;
  std::string ErrMsg;

  ProbeEngine(const SensitivityOptions &Opts, schedtool::VerdictCache &Cache,
              ModelArena &Arena)
      : Opts(Opts), Cache(Cache), Arena(Arena) {
    if (obs::enabled()) {
      obs::Registry &Reg = obs::Registry::global();
      ProbesC = &Reg.counter("sensitivity.probes");
      HitC = &Reg.counter("sensitivity.cache.hits");
      MissC = &Reg.counter("sensitivity.cache.misses");
      InvalidC = &Reg.counter("sensitivity.invalid_probes");
    }
  }

  Probe probe(const cfg::Config &C) {
    if (Aborted || !ErrMsg.empty())
      return Probe::Undecided;
    if (Opts.Cancel && Opts.Cancel->isCancelled()) {
      Aborted = true;
      return Probe::Undecided;
    }
    if (Probes >= MaxProbesPerQuery) {
      Aborted = true;
      return Probe::Undecided;
    }
    ++Probes;
    if (ProbesC)
      ProbesC->add(1);
    // An invalid perturbation is "not schedulable as specified" — failing
    // by convention, and never cached (its fingerprint would not be a
    // congruence for anything).
    if (Error E = C.validate()) {
      if (InvalidC)
        InvalidC->add(1);
      return Probe::Fail;
    }
    // A whole config is the one-component case of the search's cache:
    // fingerprintConfig is its key at its own hyperperiod.
    cfg::Fingerprint Canon = cfg::fingerprintConfig(C);
    if (const schedtool::VerdictCache::ComponentEntry *E =
            Cache.lookupComponent(Canon)) {
      if (HitC)
        HitC->add(1);
      return E->Verdict.Schedulable ? Probe::Pass : Probe::Fail;
    }
    if (MissC)
      MissC->add(1);
    // First-miss verdicts are exact (the EarlyExitVsFull oracle
    // contract), so the early exit is pure speed.
    nsa::SimOptions SO;
    SO.StopOnFirstMiss = true;
    SO.WallClockBudgetMs = Opts.ProbeBudgetMs;
    SO.Cancel = Opts.Cancel;
    Result<VerdictOutcome> Out = analyzeVerdictOnly(C, SO, &Arena);
    if (!Out.ok()) {
      ErrMsg = Out.error().message();
      return Probe::Undecided;
    }
    if (!Out->decided()) {
      Aborted = true;
      return Probe::Undecided;
    }
    Cache.insertComponent(
        Canon, cfg::fingerprintConfig(C, /*CanonicalizeCores=*/false), *Out);
    return Out->Schedulable ? Probe::Pass : Probe::Fail;
  }
};

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

// Precondition for every query: the unperturbed config is schedulable, so
// the zero perturbation passes without a probe.

WcetSlackResult wcetSlackQuery(const cfg::Config &Base, int Gid,
                               ProbeEngine &E) {
  WcetSlackResult R;
  R.TaskGid = Gid;
  const cfg::Task &T = Base.taskOf(Base.taskRefOf(Gid));
  cfg::TimeValue MaxW = *std::max_element(T.Wcet.begin(), T.Wcet.end());
  R.DomainMax = T.Deadline - MaxW;
  auto Factor = [&](cfg::TimeValue Slack) {
    return MaxW > 0 ? static_cast<double>(MaxW + Slack) /
                          static_cast<double>(MaxW)
                    : 1.0;
  };
  if (R.DomainMax <= 0) {
    // WCET already sits on the deadline: no room to inflate at all.
    R.SlackTicks = 0;
    R.SlackFactor = 1.0;
    R.UnboundedInDomain = true;
    R.HasPassing = true;
    R.LargestPassing = Base;
    R.Decided = true;
    return R;
  }
  cfg::Config HiCfg = withWcetDelta(Base, Gid, R.DomainMax);
  Probe Edge = E.probe(HiCfg);
  if (Edge == Probe::Undecided)
    return R;
  if (Edge == Probe::Pass) {
    R.SlackTicks = R.DomainMax;
    R.SlackFactor = Factor(R.DomainMax);
    R.UnboundedInDomain = true;
    R.HasPassing = true;
    R.LargestPassing = std::move(HiCfg);
    R.Decided = true;
    return R;
  }
  cfg::TimeValue Lo = 0, Hi = R.DomainMax;
  cfg::Config LoCfg = Base;
  while (Hi - Lo > E.Opts.ToleranceTicks) {
    cfg::TimeValue Mid = Lo + (Hi - Lo) / 2;
    if (Mid == Lo)
      break;
    cfg::Config MidCfg = withWcetDelta(Base, Gid, Mid);
    Probe P = E.probe(MidCfg);
    if (P == Probe::Undecided)
      return R;
    if (P == Probe::Pass) {
      Lo = Mid;
      LoCfg = std::move(MidCfg);
    } else {
      Hi = Mid;
      HiCfg = std::move(MidCfg);
    }
  }
  R.SlackTicks = Lo;
  R.SlackFactor = Factor(Lo);
  R.HasPassing = true;
  R.LargestPassing = std::move(LoCfg);
  R.HasFailing = true;
  R.SmallestFailing = std::move(HiCfg);
  R.Decided = true;
  return R;
}

PeriodIntervalResult periodQuery(const cfg::Config &Base, int Gid,
                                 ProbeEngine &E) {
  PeriodIntervalResult R;
  R.TaskGid = Gid;
  cfg::TaskRef Ref = Base.taskRefOf(Gid);
  const cfg::Task &T = Base.taskOf(Ref);
  R.BasePeriod = T.Period;
  // Messages tie their endpoints' periods together (validate requires
  // equality), so a lone-task period probe can never be valid: empty
  // domain, reported as such.
  for (const cfg::Message &M : Base.Messages)
    if (M.Sender == Ref || M.Receiver == Ref) {
      R.Decided = true;
      return R;
    }
  cfg::TimeValue MaxW = *std::max_element(T.Wcet.begin(), T.Wcet.end());
  // Divisor shrinkages only: every divisor of the base period divides the
  // base hyperperiod, so the global window tables stay within L.
  std::vector<cfg::TimeValue> Divs;
  for (cfg::TimeValue D = 1; D * D <= T.Period; ++D) {
    if (T.Period % D != 0)
      continue;
    if (D >= MaxW && D < T.Period)
      Divs.push_back(D);
    cfg::TimeValue Q = T.Period / D;
    if (Q != D && Q >= MaxW && Q < T.Period)
      Divs.push_back(Q);
  }
  std::sort(Divs.begin(), Divs.end(), std::greater<cfg::TimeValue>());
  R.DomainSize = static_cast<int>(Divs.size());
  if (Divs.empty()) {
    R.MinFeasiblePeriod = R.BasePeriod;
    R.Decided = true;
    return R;
  }
  // Largest passing index in the descending list (feasibility is a prefix
  // under the demand-monotonicity argument; the endpoints actually probed
  // are exact either way).
  int Lo = -1, Hi = static_cast<int>(Divs.size());
  while (Hi - Lo > 1) {
    int Mid = Lo + (Hi - Lo) / 2;
    Probe P = E.probe(withPeriod(Base, Gid, Divs[static_cast<size_t>(Mid)]));
    if (P == Probe::Undecided)
      return R;
    if (P == Probe::Pass)
      Lo = Mid;
    else
      Hi = Mid;
  }
  R.MinFeasiblePeriod = Lo >= 0 ? Divs[static_cast<size_t>(Lo)] : R.BasePeriod;
  R.Decided = true;
  return R;
}

OffsetIntervalResult offsetQuery(const cfg::Config &Base, int Gid,
                                 ProbeEngine &E) {
  OffsetIntervalResult R;
  R.TaskGid = Gid;
  int Part = Base.taskRefOf(Gid).Partition;
  const std::vector<cfg::Window> &Ws =
      Base.Partitions[static_cast<size_t>(Part)].Windows;
  if (Ws.empty()) {
    R.Decided = true;
    return R;
  }
  cfg::TimeValue MinStart = Ws.front().Start, MaxEnd = Ws.front().End;
  for (const cfg::Window &W : Ws) {
    MinStart = std::min(MinStart, W.Start);
    MaxEnd = std::max(MaxEnd, W.End);
  }
  const cfg::TimeValue L = Base.hyperperiod();
  R.DomainLo = -MinStart;
  R.DomainHi = L - MaxEnd;

  // One endpoint search per direction: shift magnitudes grow toward the
  // domain edge, a failing edge brackets a binary search back to the
  // tolerance. Signed = +1 searches later starts, -1 earlier ones.
  auto SearchEdge = [&](cfg::TimeValue Edge, cfg::TimeValue &OutShift,
                        bool &OutUnbounded) -> bool {
    if (Edge == 0) {
      OutShift = 0;
      OutUnbounded = true;
      return true;
    }
    Probe P = E.probe(withWindowShift(Base, Part, Edge));
    if (P == Probe::Undecided)
      return false;
    if (P == Probe::Pass) {
      OutShift = Edge;
      OutUnbounded = true;
      return true;
    }
    cfg::TimeValue Sign = Edge > 0 ? 1 : -1;
    cfg::TimeValue Lo = 0, Hi = Edge * Sign; // magnitudes
    while (Hi - Lo > E.Opts.ToleranceTicks) {
      cfg::TimeValue Mid = Lo + (Hi - Lo) / 2;
      if (Mid == Lo)
        break;
      Probe PM = E.probe(withWindowShift(Base, Part, Mid * Sign));
      if (PM == Probe::Undecided)
        return false;
      if (PM == Probe::Pass)
        Lo = Mid;
      else
        Hi = Mid;
    }
    OutShift = Lo * Sign;
    OutUnbounded = false;
    return true;
  };

  if (!SearchEdge(R.DomainHi, R.MaxShift, R.HiUnbounded))
    return R;
  if (!SearchEdge(R.DomainLo, R.MinShift, R.LoUnbounded))
    return R;
  R.Decided = true;
  return R;
}

BreakdownFrontierResult frontierQuery(const cfg::Config &Base,
                                      ProbeEngine &E) {
  BreakdownFrontierResult R;
  // Smallest factor at which some WCET outgrows its deadline — the config
  // is invalid there, i.e. failing by convention, so it brackets the
  // search from above. Capped at 1000x for degenerate workloads.
  int64_t FInvalid = std::numeric_limits<int64_t>::max();
  for (const cfg::Partition &P : Base.Partitions)
    for (const cfg::Task &T : P.Tasks)
      for (cfg::TimeValue W : T.Wcet) {
        if (W <= 0 ||
            T.Deadline > std::numeric_limits<int64_t>::max() / 1000)
          continue;
        FInvalid = std::min(FInvalid, (1000 * T.Deadline) / W + 1);
      }
  R.DomainMaxPermille = static_cast<int>(
      std::max<int64_t>(1001, std::min<int64_t>(FInvalid, 1000000)));

  Probe Edge = E.probe(withUniformInflation(Base, R.DomainMaxPermille));
  if (Edge == Probe::Undecided)
    return R;
  if (Edge == Probe::Pass) {
    R.FrontierPermille = R.DomainMaxPermille;
    R.UnboundedInDomain = true;
    R.Decided = true;
    return R;
  }
  int Lo = 1000, Hi = R.DomainMaxPermille;
  while (Hi - Lo > FrontierTolerancePermille) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (Mid == Lo)
      break;
    Probe P = E.probe(withUniformInflation(Base, Mid));
    if (P == Probe::Undecided)
      return R;
    if (P == Probe::Pass)
      Lo = Mid;
    else
      Hi = Mid;
  }
  R.FrontierPermille = Lo;
  R.Decided = true;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

Result<SensitivityResult>
swa::analysis::analyzeSensitivity(const cfg::Config &Config,
                                  const SensitivityOptions &Options) {
  if (Error E = Config.validate())
    return E;
  obs::ScopedTimer Timer("sensitivity");

  SensitivityResult Res;
  schedtool::VerdictCache LocalCache;
  schedtool::VerdictCache &Cache = Options.Cache ? *Options.Cache : LocalCache;

  // One model arena per pool slot. The base probe runs on the caller,
  // slot 0, so the queries slot 0 runs later rebind the base model.
  const int Threads = std::max(1, Options.Workers);
  std::vector<ModelArena> Arenas;
  for (int I = 0; I < Threads; ++I)
    Arenas.emplace_back(8);

  // Base verdict first, through the same probe machinery (so it seeds the
  // cache and honors the guard rails).
  {
    obs::ScopedTimer BaseTimer("sensitivity.base");
    ProbeEngine E(Options, Cache, Arenas[0]);
    Probe P = E.probe(Config);
    Res.TotalProbes += E.Probes;
    if (!E.ErrMsg.empty())
      return Error::failure(E.ErrMsg);
    if (P == Probe::Undecided) {
      Res.Cancelled = Options.Cancel && Options.Cancel->isCancelled();
      return Res;
    }
    Res.BaseDecided = true;
    Res.BaseSchedulable = P == Probe::Pass;
  }

  const int NumTasks = Config.numTasks();
  if (!Res.BaseSchedulable) {
    // Nothing to search: every slack is -1 by definition. The per-task
    // WCET entries still materialize (the certificate of failure is the
    // base config itself) so downstream consumers see one row per task.
    if (Options.QueryWcet) {
      Res.Wcet.assign(static_cast<size_t>(NumTasks), WcetSlackResult());
      for (int G = 0; G < NumTasks; ++G) {
        WcetSlackResult &R = Res.Wcet[static_cast<size_t>(G)];
        R.TaskGid = G;
        const cfg::Task &T = Config.taskOf(Config.taskRefOf(G));
        R.DomainMax =
            T.Deadline - *std::max_element(T.Wcet.begin(), T.Wcet.end());
        R.HasFailing = true;
        R.SmallestFailing = Config;
        R.Decided = true;
      }
    }
    Res.Frontier.Decided = true;
    return Res;
  }

  // Build the query list: one item per (task, parameter), plus the
  // frontier. The fan-out writes results by (kind, gid) index, so the
  // merged vectors are in task order no matter which thread ran what.
  enum { KWcet = 0, KPeriod = 1, KOffset = 2, KFrontier = 3 };
  struct Query {
    int Kind;
    int Gid;
  };
  std::vector<Query> Queries;
  if (Options.QueryWcet) {
    Res.Wcet.assign(static_cast<size_t>(NumTasks), WcetSlackResult());
    for (int G = 0; G < NumTasks; ++G)
      Queries.push_back({KWcet, G});
  }
  if (Options.QueryPeriod) {
    Res.Periods.assign(static_cast<size_t>(NumTasks), PeriodIntervalResult());
    for (int G = 0; G < NumTasks; ++G)
      Queries.push_back({KPeriod, G});
  }
  if (Options.QueryOffset) {
    Res.Offsets.assign(static_cast<size_t>(NumTasks), OffsetIntervalResult());
    for (int G = 0; G < NumTasks; ++G)
      Queries.push_back({KOffset, G});
  }
  if (Options.QueryFrontier)
    Queries.push_back({KFrontier, -1});

  ThreadPool Pool(Threads);
  std::vector<int> ProbeCounts(Queries.size(), 0);
  std::vector<std::string> Errors(Queries.size());
  Pool.parallelFor(static_cast<int>(Queries.size()), [&](int I, int Slot) {
    const Query &Q = Queries[static_cast<size_t>(I)];
    const char *Phase = Q.Kind == KWcet      ? "sensitivity.wcet"
                        : Q.Kind == KPeriod  ? "sensitivity.period"
                        : Q.Kind == KOffset  ? "sensitivity.offset"
                                             : "sensitivity.frontier";
    obs::ScopedTimer QueryTimer(Phase);
    obs::Span QuerySpan("query", "sensitivity");
    QuerySpan.arg("param", Q.Kind);
    QuerySpan.arg("task", Q.Gid);
    // Resolved here, not outside the fan-out: counter cells are
    // single-writer and live in the *calling thread's* shard.
    if (obs::enabled())
      obs::Registry::global().counter("sensitivity.queries").add(1);
    ProbeEngine E(Options, Cache, Arenas[static_cast<size_t>(Slot)]);
    switch (Q.Kind) {
    case KWcet: {
      WcetSlackResult R = wcetSlackQuery(Config, Q.Gid, E);
      R.Probes = E.Probes;
      Res.Wcet[static_cast<size_t>(Q.Gid)] = std::move(R);
      break;
    }
    case KPeriod: {
      PeriodIntervalResult R = periodQuery(Config, Q.Gid, E);
      R.Probes = E.Probes;
      Res.Periods[static_cast<size_t>(Q.Gid)] = std::move(R);
      break;
    }
    case KOffset: {
      OffsetIntervalResult R = offsetQuery(Config, Q.Gid, E);
      R.Probes = E.Probes;
      Res.Offsets[static_cast<size_t>(Q.Gid)] = std::move(R);
      break;
    }
    default: {
      BreakdownFrontierResult R = frontierQuery(Config, E);
      R.Probes = E.Probes;
      Res.Frontier = R;
      break;
    }
    }
    ProbeCounts[static_cast<size_t>(I)] = E.Probes;
    Errors[static_cast<size_t>(I)] = E.ErrMsg;
    QuerySpan.arg("probes", E.Probes);
  });

  for (size_t I = 0; I < Queries.size(); ++I) {
    // First model error in query order wins — deterministic, like the
    // search's first-failing-candidate rule.
    if (!Errors[I].empty())
      return Error::failure(Errors[I]);
    Res.TotalProbes += ProbeCounts[I];
  }
  Res.Cancelled = Options.Cancel && Options.Cancel->isCancelled();
  return Res;
}

//===----------------------------------------------------------------------===//
// Rendering & reporting
//===----------------------------------------------------------------------===//

std::string SensitivityResult::summary() const {
  std::string S;
  S += formatString(
      "base: %s%s\n",
      !BaseDecided ? "undecided"
                   : (BaseSchedulable ? "schedulable" : "unschedulable"),
      Cancelled ? " (cancelled)" : "");
  S += formatString("probes: %d\n", TotalProbes);
  for (const WcetSlackResult &R : Wcet) {
    if (!R.Decided) {
      S += formatString("wcet task=%d: undecided\n", R.TaskGid);
      continue;
    }
    S += formatString(
        "wcet task=%d: slack=%lld/%lld factor=%.4f%s%s%s probes=%d\n",
        R.TaskGid, static_cast<long long>(R.SlackTicks),
        static_cast<long long>(R.DomainMax), R.SlackFactor,
        R.UnboundedInDomain ? " (domain edge)" : "",
        R.HasPassing ? " +pass" : "", R.HasFailing ? " +fail" : "",
        R.Probes);
  }
  for (const PeriodIntervalResult &R : Periods) {
    if (!R.Decided) {
      S += formatString("period task=%d: undecided\n", R.TaskGid);
      continue;
    }
    S += formatString("period task=%d: base=%lld min=%lld domain=%d "
                      "probes=%d\n",
                      R.TaskGid, static_cast<long long>(R.BasePeriod),
                      static_cast<long long>(R.MinFeasiblePeriod),
                      R.DomainSize, R.Probes);
  }
  for (const OffsetIntervalResult &R : Offsets) {
    if (!R.Decided) {
      S += formatString("offset task=%d: undecided\n", R.TaskGid);
      continue;
    }
    S += formatString(
        "offset task=%d: feasible=[%lld,%lld] domain=[%lld,%lld]%s%s "
        "probes=%d\n",
        R.TaskGid, static_cast<long long>(R.MinShift),
        static_cast<long long>(R.MaxShift),
        static_cast<long long>(R.DomainLo),
        static_cast<long long>(R.DomainHi),
        R.LoUnbounded ? " lo-edge" : "", R.HiUnbounded ? " hi-edge" : "",
        R.Probes);
  }
  if (Frontier.Decided)
    S += formatString("frontier: %d/%d permille%s probes=%d\n",
                      Frontier.FrontierPermille, Frontier.DomainMaxPermille,
                      Frontier.UnboundedInDomain ? " (domain edge)" : "",
                      Frontier.Probes);
  return S;
}

void swa::analysis::fillSensitivityReport(obs::RunReport &Report,
                                          const SensitivityResult &Res,
                                          double ElapsedSec) {
  Report.addCount("base.schedulable", Res.BaseSchedulable ? 1 : 0);
  Report.addCount("cancelled", Res.Cancelled ? 1 : 0);
  Report.addCount("probes", static_cast<uint64_t>(Res.TotalProbes));
  size_t Queries = Res.Wcet.size() + Res.Periods.size() + Res.Offsets.size() +
                   (Res.Frontier.Decided || Res.Frontier.Probes > 0 ? 1 : 0);
  Report.addCount("queries", static_cast<uint64_t>(Queries));
  if (Queries > 0)
    Report.addStat("probes_per_query", static_cast<double>(Res.TotalProbes) /
                                           static_cast<double>(Queries));
  if (ElapsedSec > 0)
    Report.addStat("probes_per_sec", static_cast<double>(Res.TotalProbes) /
                                         ElapsedSec);
  bool HaveSlack = false;
  cfg::TimeValue MinSlack = 0, MaxSlack = 0;
  for (const WcetSlackResult &R : Res.Wcet) {
    if (!R.Decided || R.SlackTicks < 0)
      continue;
    if (!HaveSlack) {
      MinSlack = MaxSlack = R.SlackTicks;
      HaveSlack = true;
    } else {
      MinSlack = std::min(MinSlack, R.SlackTicks);
      MaxSlack = std::max(MaxSlack, R.SlackTicks);
    }
  }
  if (HaveSlack) {
    Report.addCount("wcet.min_slack", static_cast<uint64_t>(MinSlack));
    Report.addCount("wcet.max_slack", static_cast<uint64_t>(MaxSlack));
  }
  if (Res.Frontier.Decided && Res.Frontier.FrontierPermille >= 0)
    Report.addCount("frontier_permille",
                    static_cast<uint64_t>(Res.Frontier.FrontierPermille));
}
