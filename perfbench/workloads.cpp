//===- perfbench/workloads.cpp - The benchmark's four workloads -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Inputs come from the analyzer's own generators (gen::industrialConfig*),
// keyed by a pool key, and reach the program only as configuration XML.
// Traced answers read the analyzer's existing obs phase tree (build,
// compile, simulate, analyze, map_trace, criterion) and counters, and add
// benchmark-side spans only for the layers no phase times (the XML parse,
// the release, the strategy); nothing inside src/ is instrumented for the
// benchmark.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "analysis/Analyzer.h"
#include "analysis/Sensitivity.h"
#include "configio/ConfigXml.h"
#include "core/SystemTrace.h"
#include "gen/Workload.h"
#include "models/ModelLibrary.h"
#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "sa/NetworkBuilder.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

using namespace swa;

namespace swabench {
namespace {

/// FNV-1a over the bytes of \p V, chained through \p H.
template <class T> uint64_t fnv(uint64_t H, const T &V) {
  const auto *P = reinterpret_cast<const unsigned char *>(&V);
  for (size_t I = 0; I < sizeof(T); ++I)
    H = (H ^ P[I]) * 1099511628211ULL;
  return H;
}
constexpr uint64_t FnvBasis = 1469598103934665603ULL;

/// Accumulates the answer's wall time over the intervals it runs, so the
/// benchmark's golden rendering can sit between them untimed.
class Stopwatch {
public:
  void start() { T0 = nowNs(); }
  void stop() { Total += nowNs() - T0; }
  uint64_t ns() const { return Total; }

private:
  uint64_t T0 = 0;
  uint64_t Total = 0;
};

/// A benchmark-side span around one public call: its duration lands in
/// the layer metric \p Metric (ms) and in the answer's covered time.
class Span {
public:
  Span(LayerSample &S, const char *Metric)
      : S(S), Metric(Metric), T0(nowNs()) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    uint64_t D = nowNs() - T0;
    S.CoveredNs += D;
    S.Values[Metric] += static_cast<double>(D) / 1e6;
  }

private:
  LayerSample &S;
  const char *Metric;
  uint64_t T0;
};

/// The analyzer's obs phases and counters of one traced answer, summed
/// over every thread.
struct ObsTotals {
  uint64_t BuildNs = 0;
  uint64_t Builds = 0;
  uint64_t CompileNs = 0;
  uint64_t SimulateNs = 0;
  uint64_t AnalyzeNs = 0;
  uint64_t MapTraceNs = 0;
  /// Thread time inside the outermost layer phases (see isLayerPhase).
  uint64_t LayerNs = 0;
  std::map<std::string, uint64_t> Counters;

  double counter(const char *Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0.0 : static_cast<double>(It->second);
  }
};

/// The obs phases that time one module's own work. Outer phases such as
/// schedtool.search or sensitivity only wrap them and cover idle time too.
bool isLayerPhase(const std::string &Name) {
  return Name == "build" || Name == "compile" || Name == "simulate" ||
         Name == "analyze" || Name == "map_trace" || Name == "criterion";
}

/// Sums the phases of \p N's subtree. Only the outermost layer phase on
/// each path counts towards LayerNs: the ones nested in it (compile in
/// build, map_trace and criterion in analyze) are inside its time.
void sumPhases(const obs::PhaseTree::Node &N, ObsTotals &T, bool InLayer) {
  for (const auto &C : N.Children) {
    if (C->Name == "build") {
      T.BuildNs += C->Nanos;
      T.Builds += C->Count;
    } else if (C->Name == "compile") {
      T.CompileNs += C->Nanos;
    } else if (C->Name == "simulate") {
      T.SimulateNs += C->Nanos;
    } else if (C->Name == "analyze") {
      T.AnalyzeNs += C->Nanos;
    } else if (C->Name == "map_trace") {
      T.MapTraceNs += C->Nanos;
    }
    bool Layer = !InLayer && isLayerPhase(C->Name);
    if (Layer)
      T.LayerNs += C->Nanos;
    sumPhases(*C, T, InLayer || Layer);
  }
}

/// Switches obs on, cleared, for the lifetime of one traced answer.
class ObsScope {
public:
  ObsScope() {
    obs::PhaseTree::resetAll();
    obs::Registry::global().reset();
    obs::setEnabled(true);
  }
  ObsScope(const ObsScope &) = delete;
  ObsScope &operator=(const ObsScope &) = delete;
  ~ObsScope() { obs::setEnabled(false); }

  /// Reads the totals; call after the traced calls returned.
  static ObsTotals read() {
    ObsTotals T;
    obs::PhaseTree::Node Root = obs::PhaseTree::mergedRoot();
    sumPhases(Root, T, false);
    for (auto &[Name, V] : obs::Registry::global().counterValues())
      T.Counters[Name] = V;
    return T;
  }
};

/// Standalone cost of the template library for one model of \p C's
/// dimensions: the global declarations plus ModelLibrary::create, which
/// every core::buildModel runs first.
double libraryMs(const cfg::Config &C) {
  uint64_t T0 = nowNs();
  sa::NetworkBuilder NB;
  if (NB.addGlobals(models::globalDeclsSource(
          C.numTasks(), static_cast<int>(C.Partitions.size()),
          static_cast<int>(C.Messages.size()))))
    return 0.0;
  auto Lib = models::ModelLibrary::create(NB.globalDecls());
  return Lib.ok() ? static_cast<double>(nowNs() - T0) / 1e6 : 0.0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// The layer metrics every workload derives from the obs totals: the
/// build phase split into template library (standalone estimate per
/// build, 0 where none is taken), bytecode compile and the rest of
/// Algorithm 1, plus simulation time and actions. Times are summed over
/// threads; the answer's covered time grows by the outermost layer phases.
void addModelLayers(LayerSample &S, const ObsTotals &T, double LibMsPerBuild,
                    double JobsPerBuild) {
  double Builds = static_cast<double>(T.Builds);
  double BuildMs = static_cast<double>(T.BuildNs) / 1e6;
  double LibMs = LibMsPerBuild * Builds;
  double CompileMs = static_cast<double>(T.CompileNs) / 1e6;
  // The rest is attributed by subtraction only; an estimate above the
  // measured build reads as no core time rather than a negative one.
  double CoreMs = std::max(0.0, BuildMs - CompileMs - LibMs);
  S.CoveredNs += T.LayerNs;
  S.Values["models.library_ms"] = LibMs;
  S.Values["sa.compile_ms"] = CompileMs;
  S.Values["core.build_ms"] = CoreMs;
  S.Values["core.build_residual_share"] = ratio(CoreMs, BuildMs);
  S.Values["core.builds_per_answer"] = Builds;
  S.Values["core.build_ns_per_job"] =
      JobsPerBuild > 0 ? ratio(static_cast<double>(T.BuildNs),
                               Builds * JobsPerBuild)
                       : 0.0;
  double Actions = T.counter("nsa.steps.action");
  S.Values["nsa.actions"] = Actions;
  S.Values["nsa.simulate_ms"] = static_cast<double>(T.SimulateNs) / 1e6;
  S.Values["nsa.ns_per_action"] =
      ratio(static_cast<double>(T.SimulateNs), Actions);
}

void setBusyShare(LayerSample &S, const ObsTotals &T, uint64_t WallNs,
                  int Workers) {
  S.Values["schedtool.eval_busy_share"] =
      ratio(static_cast<double>(T.BuildNs + T.SimulateNs),
            static_cast<double>(WallNs) * Workers);
}

//===----------------------------------------------------------------------===//
// verdict-e2: XML in, verdict out, at the paper's E2 scale.
//===----------------------------------------------------------------------===//

class VerdictE2 final : public Workload {
public:
  const char *name() const override { return "verdict-e2"; }
  int workers() const override { return 1; }
  int ringSize() const override { return 10; }
  int poolSize() const override { return 12; }

  std::string makeInput(uint64_t Key) const override {
    return configio::writeConfigXml(gen::industrialConfigWithJobs(12500, Key));
  }
  bool prepare(uint64_t, const std::string &Xml, std::string &) override {
    Docs.push_back(Xml);
    return true;
  }
  void clear() override { Docs.clear(); }

  Answer answer(int Slot, int) override {
    Answer A;
    Stopwatch W;
    W.start();
    auto Config = std::make_unique<Result<cfg::Config>>(
        configio::parseConfigXml(Docs[static_cast<size_t>(Slot)]));
    std::unique_ptr<Result<analysis::AnalyzeOutcome>> Out;
    if (Config->ok())
      Out = std::make_unique<Result<analysis::AnalyzeOutcome>>(
          analysis::analyzeConfiguration(**Config));
    W.stop();
    settle(A, *Config, Out.get());
    W.start();
    Out.reset();
    Config.reset();
    W.stop();
    A.WallNs = W.ns();
    return A;
  }

  /// The same public calls with the parse and the release behind spans;
  /// the pipeline in between is split by analyzeConfiguration's own obs
  /// phases (build > compile, simulate, analyze > map_trace, criterion).
  Answer answerTraced(int Slot, int, LayerSample &S) override {
    Answer A;
    ObsScope Obs;
    Stopwatch W;
    W.start();
    std::unique_ptr<Result<cfg::Config>> Config;
    {
      Span Sp(S, "configio.parse_ms");
      Config = std::make_unique<Result<cfg::Config>>(
          configio::parseConfigXml(Docs[static_cast<size_t>(Slot)]));
    }
    std::unique_ptr<Result<analysis::AnalyzeOutcome>> Out;
    if (Config->ok())
      Out = std::make_unique<Result<analysis::AnalyzeOutcome>>(
          analysis::analyzeConfiguration(**Config));
    W.stop();
    ObsTotals T = ObsScope::read();
    settle(A, *Config, Out.get());
    if (A.Ok) {
      const analysis::AnalysisResult &R = (*Out)->Analysis;
      S.Values["analysis.jobs"] = static_cast<double>(R.TotalJobs);
      S.Values["analysis.missed_jobs"] = static_cast<double>(R.MissedJobs);
      addModelLayers(S, T, libraryMs(**Config),
                     static_cast<double>((*Config)->jobCount()));
      S.Values["core.map_trace_ms"] = static_cast<double>(T.MapTraceNs) / 1e6;
      S.Values["analysis.criterion_ms"] =
          static_cast<double>(T.AnalyzeNs - T.MapTraceNs) / 1e6;
    }
    W.start();
    {
      Span Sp(S, "core.release_ms");
      Out.reset();
      Config.reset();
    }
    W.stop();
    A.WallNs = W.ns();
    if (A.Ok)
      setBusyShare(S, T, A.WallNs, 1);
    return A;
  }

private:
  /// Fills \p A from the results of the parse and, when it succeeded, of
  /// the analysis.
  static void settle(Answer &A, const Result<cfg::Config> &Config,
                     const Result<analysis::AnalyzeOutcome> *Out) {
    if (!Config.ok())
      A.Error = Config.error().message();
    else if (!Out->ok())
      A.Error = Out->error().message();
    else
      render(A, (*Out)->Analysis, (*Out)->failureFlagsConsistent());
  }

  static void render(Answer &A, const analysis::AnalysisResult &R,
                     bool FlagsConsistent) {
    uint64_t H = FnvBasis;
    for (const analysis::JobStats &J : R.Jobs) {
      H = fnv(H, J.TaskGid);
      H = fnv(H, J.JobIndex);
      H = fnv(H, J.FinishTime);
      H = fnv(H, J.ExecTotal);
    }
    A.Ok = true;
    // E2's scale is "about 12,500 jobs"; a narrow band keeps the pool's
    // answers comparable in cost.
    A.Poolable = std::abs(R.TotalJobs - 12500) <= 100;
    A.Summary = formatString("schedulable=%d jobs=%lld missed=%lld",
                             R.Schedulable ? 1 : 0,
                             static_cast<long long>(R.TotalJobs),
                             static_cast<long long>(R.MissedJobs));
    A.Golden = A.Summary +
               formatString(" flags_consistent=%d job_digest=%016llx",
                            FlagsConsistent ? 1 : 0,
                            static_cast<unsigned long long>(H));
  }

  std::vector<std::string> Docs;
};

//===----------------------------------------------------------------------===//
// search-*: one complete searchConfiguration per answer.
//===----------------------------------------------------------------------===//

/// Times the default ("local") strategy's decisions; draw-for-draw the
/// same strategy, so the search result is unchanged.
class TimedStrategy final : public schedtool::Strategy {
public:
  TimedStrategy() : Inner(schedtool::makeStrategy("local")) {}

  const char *name() const override { return Inner->name(); }
  void perturb(Rng &PJ, const schedtool::SearchProblem &P, cfg::Config &C,
               std::vector<double> &Boost, schedtool::Mutation &M) override {
    uint64_t T0 = nowNs();
    Inner->perturb(PJ, P, C, Boost, M);
    Ns += nowNs() - T0;
  }
  void adapt(Rng &R, const schedtool::SearchProblem &P,
             const schedtool::RoundBest &Best, cfg::Config &Current,
             std::vector<double> &Boost) override {
    uint64_t T0 = nowNs();
    Inner->adapt(R, P, Best, Current, Boost);
    Ns += nowNs() - T0;
  }
  void adaptAllInvalid(Rng &R, const schedtool::SearchProblem &P,
                       std::vector<double> &Boost) override {
    uint64_t T0 = nowNs();
    Inner->adaptAllInvalid(R, P, Boost);
    Ns += nowNs() - T0;
  }
  void saveState(std::string &Out) const override { Inner->saveState(Out); }
  bool loadState(const char *Data, size_t Len) override {
    return Inner->loadState(Data, Len);
  }

  uint64_t ns() const { return Ns.load(); }
  double ms() const { return static_cast<double>(ns()) / 1e6; }

private:
  std::unique_ptr<schedtool::Strategy> Inner;
  std::atomic<uint64_t> Ns{0};
};

struct SearchShape {
  const char *Name;
  int Modules;
  double MessageProbability;
  int Iterations;
  bool Durable;
};

class SearchWorkload final : public Workload {
public:
  SearchWorkload(SearchShape Shape, const std::string &ScratchDir)
      : Shape(Shape),
        CkptPath(formatString("%s/%s-%d.ckpt", ScratchDir.c_str(), Shape.Name,
                              static_cast<int>(getpid()))) {}
  ~SearchWorkload() override {
    std::remove(CkptPath.c_str());
    std::remove((CkptPath + ".copy").c_str());
  }

  const char *name() const override { return Shape.Name; }
  int workers() const override { return 2; }
  int ringSize() const override { return 36; }
  int poolSize() const override { return 40; }

  std::string makeInput(uint64_t Key) const override {
    gen::IndustrialParams Params;
    Params.Modules = Shape.Modules;
    Params.CoresPerModule = 2;
    Params.PartitionsPerCore = 2;
    Params.CoreUtilization = 0.8;
    Params.MessageProbability = Shape.MessageProbability;
    Params.Seed = Key;
    cfg::Config Base = gen::industrialConfig(Params);
    for (cfg::Partition &P : Base.Partitions) {
      P.Core = -1;
      P.Windows.clear();
    }
    return configio::writeConfigXml(Base);
  }
  bool prepare(uint64_t Key, const std::string &Xml,
               std::string &Error) override {
    Result<cfg::Config> C = configio::parseConfigXml(Xml);
    if (!C.ok()) {
      Error = C.error().message();
      return false;
    }
    Bases.push_back(C.takeValue());
    Seeds.push_back(41 + Key);
    return true;
  }
  void clear() override {
    Bases.clear();
    Seeds.clear();
  }

  Answer answer(int Slot, int Workers) override {
    schedtool::SnapshotStats Stats;
    schedtool::SearchProblem P = problem(Slot, Workers, Stats);
    Answer A;
    uint64_t T0 = nowNs();
    Result<schedtool::SearchResult> Res = schedtool::searchConfiguration(P);
    A.WallNs = nowNs() - T0;
    render(A, Res, Shape.Iterations);
    return A;
  }

  Answer answerTraced(int Slot, int Workers, LayerSample &S) override {
    schedtool::SnapshotStats Stats;
    schedtool::SearchProblem P = problem(Slot, Workers, Stats);
    TimedStrategy Strat;
    P.Strat = &Strat;
    Answer A;
    ObsScope Obs;
    uint64_t T0 = nowNs();
    Result<schedtool::SearchResult> Res = schedtool::searchConfiguration(P);
    A.WallNs = nowNs() - T0;
    ObsTotals T = ObsScope::read();
    render(A, Res, Shape.Iterations);
    if (!A.Ok)
      return A;
    const schedtool::SearchResult &R = *Res;
    double Evaluated = R.ConfigurationsEvaluated;
    int Completed =
        R.StopReasonCounts[static_cast<size_t>(nsa::StopReason::Completed)];
    int EarlyExit =
        R.StopReasonCounts[static_cast<size_t>(nsa::StopReason::DeadlineMiss)];
    auto &V = S.Values;
    V["schedtool.candidates_per_answer"] = Evaluated;
    V["schedtool.found_share"] = R.Found ? 1.0 : 0.0;
    V["schedtool.early_exit_share"] = ratio(EarlyExit, Completed + EarlyExit);
    V["schedtool.cache_hit_share"] =
        ratio(R.CacheHits, R.CacheHits + R.CacheMisses);
    V["schedtool.sims_per_candidate"] =
        ratio(R.SimulationsRun + R.ComponentsSimulated, Evaluated);
    V["schedtool.component_hit_share"] = ratio(
        R.ComponentCacheHits, R.ComponentCacheHits + R.ComponentCacheMisses);
    V["schedtool.dirty_components_per_candidate"] =
        ratio(R.DirtyComponents, Evaluated);
    V["schedtool.strategy_ms"] = Strat.ms();
    S.CoveredNs += Strat.ns();
    // Decomposed candidates build models of one component each, smaller
    // than the base configuration, so neither the base's library cost nor
    // its job count stands for a build here.
    addModelLayers(S, T, 0.0, 0.0);
    setBusyShare(S, T, A.WallNs, Workers);
    if (Shape.Durable) {
      V["schedtool.checkpoints_per_answer"] =
          static_cast<double>(Stats.SnapshotsWritten);
      V["schedtool.checkpoint_kb_per_answer"] =
          static_cast<double>(Stats.BytesWritten) / 1024.0;
      V["schedtool.checkpoint_write_ms"] = checkpointWriteMs();
    }
    return A;
  }

private:
  schedtool::SearchProblem problem(int Slot, int Workers,
                                   schedtool::SnapshotStats &Stats) {
    schedtool::SearchProblem P;
    P.Base = Bases[static_cast<size_t>(Slot)];
    P.Seed = Seeds[static_cast<size_t>(Slot)];
    P.MaxIterations = Shape.Iterations;
    P.Workers = Workers;
    if (Shape.Durable) {
      std::remove(CkptPath.c_str());
      P.CheckpointPath = CkptPath;
      P.CheckpointEveryMs = 0;
      P.CkptStats = &Stats;
    }
    return P;
  }

  /// One saveSnapshot of the answer's terminal checkpoint, through the
  /// public API (encode, CRC, AtomicFile).
  double checkpointWriteMs() {
    Result<schedtool::Snapshot> Snap = schedtool::loadSnapshot(CkptPath);
    if (!Snap.ok())
      return 0.0;
    std::string Copy = CkptPath + ".copy";
    uint64_t T0 = nowNs();
    Error E = schedtool::saveSnapshot(*Snap, Copy);
    double Ms = static_cast<double>(nowNs() - T0) / 1e6;
    std::remove(Copy.c_str());
    return E ? 0.0 : Ms;
  }

  static void render(Answer &A, const Result<schedtool::SearchResult> &Res,
                     int Iterations) {
    if (!Res.ok()) {
      A.Error = Res.error().message();
      return;
    }
    const schedtool::SearchResult &R = *Res;
    if (R.Cancelled || R.CandidatesSkipped > 0) {
      A.Error = formatString("undecided: cancelled=%d skipped=%d",
                             R.Cancelled ? 1 : 0, R.CandidatesSkipped);
      return;
    }
    std::string Trajectory;
    for (const auto &[Iter, Badness] : R.BestTrajectory)
      Trajectory += formatString(" %d:%lld", Iter,
                                 static_cast<long long>(Badness));
    A.Ok = true;
    // Only searches that walk the neighbourhood for most of their budget
    // enter the pool: many seeds bind schedulably on the first candidate,
    // which exercises none of the search's layers.
    A.Poolable = 4 * R.ConfigurationsEvaluated >= 3 * Iterations;
    A.Summary = formatString("found=%d best_badness=%lld evaluated=%d",
                             R.Found ? 1 : 0,
                             static_cast<long long>(R.BestBadness),
                             R.ConfigurationsEvaluated);
    A.Golden = A.Summary +
               formatString(" best=%016llx trajectory=",
                            static_cast<unsigned long long>(
                                digest(configio::writeConfigXml(R.Best)))) +
               Trajectory;
  }

  SearchShape Shape;
  std::string CkptPath;
  std::vector<cfg::Config> Bases;
  std::vector<uint64_t> Seeds;
};

//===----------------------------------------------------------------------===//
// sensitivity-all: every query family on a small schedulable layout.
//===----------------------------------------------------------------------===//

class SensitivityAll final : public Workload {
public:
  const char *name() const override { return "sensitivity-all"; }
  int workers() const override { return 2; }
  int ringSize() const override { return 7; }
  int poolSize() const override { return 8; }

  std::string makeInput(uint64_t Key) const override {
    gen::IndustrialParams Params;
    Params.Modules = 2;
    Params.CoresPerModule = 2;
    Params.PartitionsPerCore = 2;
    Params.CoreUtilization = 0.45;
    Params.Seed = Key;
    return configio::writeConfigXml(gen::industrialConfig(Params));
  }
  bool prepare(uint64_t, const std::string &Xml, std::string &Error) override {
    Result<cfg::Config> C = configio::parseConfigXml(Xml);
    if (!C.ok()) {
      Error = C.error().message();
      return false;
    }
    Configs.push_back(C.takeValue());
    return true;
  }
  void clear() override { Configs.clear(); }

  Answer answer(int Slot, int Workers) override {
    analysis::SensitivityOptions O;
    O.Workers = Workers;
    Answer A;
    uint64_t T0 = nowNs();
    Result<analysis::SensitivityResult> Res =
        analysis::analyzeSensitivity(Configs[static_cast<size_t>(Slot)], O);
    A.WallNs = nowNs() - T0;
    render(A, Res);
    return A;
  }

  Answer answerTraced(int Slot, int Workers, LayerSample &S) override {
    const cfg::Config &C = Configs[static_cast<size_t>(Slot)];
    analysis::SensitivityOptions O;
    O.Workers = Workers;
    Answer A;
    ObsScope Obs;
    uint64_t T0 = nowNs();
    Result<analysis::SensitivityResult> Res =
        analysis::analyzeSensitivity(C, O);
    A.WallNs = nowNs() - T0;
    ObsTotals T = ObsScope::read();
    render(A, Res);
    if (!A.Ok)
      return A;
    double Hits = T.counter("sensitivity.cache.hits");
    double Misses = T.counter("sensitivity.cache.misses");
    double Probes = Res->TotalProbes;
    S.Values["sensitivity.probes"] = Probes;
    S.Values["sensitivity.cache_hit_share"] = ratio(Hits, Hits + Misses);
    S.Values["sensitivity.invalid_probe_share"] =
        ratio(T.counter("sensitivity.invalid_probes"), Probes);
    // Probes perturb WCETs, periods and windows of this configuration; the
    // base job count stands in for every probe's.
    addModelLayers(S, T, libraryMs(C), static_cast<double>(C.jobCount()));
    setBusyShare(S, T, A.WallNs, Workers);
    return A;
  }

private:
  static void render(Answer &A,
                     const Result<analysis::SensitivityResult> &Res) {
    if (!Res.ok()) {
      A.Error = Res.error().message();
      return;
    }
    const analysis::SensitivityResult &R = *Res;
    std::string G = formatString("base_decided=%d base_schedulable=%d",
                                 R.BaseDecided ? 1 : 0,
                                 R.BaseSchedulable ? 1 : 0);
    bool Decided = R.BaseDecided && !R.Cancelled && R.Frontier.Decided;
    for (const analysis::WcetSlackResult &W : R.Wcet) {
      Decided = Decided && W.Decided;
      G += formatString("\nwcet %d %lld %lld %d %d %d", W.TaskGid,
                        static_cast<long long>(W.SlackTicks),
                        static_cast<long long>(W.DomainMax),
                        W.UnboundedInDomain ? 1 : 0, W.HasPassing ? 1 : 0,
                        W.HasFailing ? 1 : 0);
    }
    for (const analysis::PeriodIntervalResult &P : R.Periods) {
      Decided = Decided && P.Decided;
      G += formatString("\nperiod %d %lld %lld %d", P.TaskGid,
                        static_cast<long long>(P.BasePeriod),
                        static_cast<long long>(P.MinFeasiblePeriod),
                        P.DomainSize);
    }
    for (const analysis::OffsetIntervalResult &Off : R.Offsets) {
      Decided = Decided && Off.Decided;
      G += formatString("\noffset %d [%lld,%lld] [%lld,%lld] %d %d",
                        Off.TaskGid, static_cast<long long>(Off.MinShift),
                        static_cast<long long>(Off.MaxShift),
                        static_cast<long long>(Off.DomainLo),
                        static_cast<long long>(Off.DomainHi),
                        Off.LoUnbounded ? 1 : 0, Off.HiUnbounded ? 1 : 0);
    }
    G += formatString("\nfrontier %d %d %d", R.Frontier.FrontierPermille,
                      R.Frontier.DomainMaxPermille,
                      R.Frontier.UnboundedInDomain ? 1 : 0);
    if (!Decided) {
      A.Error = "undecided: a guard rail ended a query";
      return;
    }
    A.Ok = true;
    // Only schedulable bases are probed at all; the probe band keeps the
    // pool near the bench_sensitivity configuration's 899 probes.
    A.Poolable = R.BaseSchedulable && R.TotalProbes >= 800 &&
                 R.TotalProbes <= 950;
    A.Golden = G;
    A.Summary = formatString("base_schedulable=%d tasks=%zu frontier=%d "
                             "probes=%d",
                             R.BaseSchedulable ? 1 : 0, R.Wcet.size(),
                             R.Frontier.FrontierPermille, R.TotalProbes);
  }

  std::vector<cfg::Config> Configs;
};

} // namespace

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t digest(const std::string &S) {
  uint64_t H = FnvBasis;
  for (char C : S)
    H = fnv(H, C);
  return H;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &ScratchDir) {
  if (Name == "verdict-e2")
    return std::make_unique<VerdictE2>();
  if (Name == "search-neighborhood")
    return std::make_unique<SearchWorkload>(
        SearchShape{"search-neighborhood", 2, 0.0, 120, false}, ScratchDir);
  if (Name == "search-coupled-durable")
    return std::make_unique<SearchWorkload>(
        SearchShape{"search-coupled-durable", 3, 0.5, 60, true}, ScratchDir);
  if (Name == "sensitivity-all")
    return std::make_unique<SensitivityAll>();
  return nullptr;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "verdict-e2", "search-neighborhood", "search-coupled-durable",
      "sensitivity-all"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Metrics = {
      {"configio.parse_ms", "ms"},
      {"models.library_ms", "ms"},
      {"sa.compile_ms", "ms"},
      {"core.build_ms", "ms"},
      {"core.build_residual_share", "share"},
      {"core.build_ns_per_job", "ns"},
      {"core.builds_per_answer", "count"},
      {"core.release_ms", "ms"},
      {"nsa.simulate_ms", "ms"},
      {"nsa.actions", "count"},
      {"nsa.ns_per_action", "ns"},
      {"core.map_trace_ms", "ms"},
      {"analysis.criterion_ms", "ms"},
      {"analysis.jobs", "count"},
      {"analysis.missed_jobs", "count"},
      {"schedtool.candidates_per_answer", "count"},
      {"schedtool.found_share", "share"},
      {"schedtool.early_exit_share", "share"},
      {"schedtool.cache_hit_share", "share"},
      {"schedtool.sims_per_candidate", "count"},
      {"schedtool.component_hit_share", "share"},
      {"schedtool.dirty_components_per_candidate", "count"},
      {"schedtool.strategy_ms", "ms"},
      {"schedtool.eval_busy_share", "share"},
      {"schedtool.checkpoints_per_answer", "count"},
      {"schedtool.checkpoint_kb_per_answer", "KiB"},
      {"schedtool.checkpoint_write_ms", "ms"},
      {"sensitivity.probes", "count"},
      {"sensitivity.cache_hit_share", "share"},
      {"sensitivity.invalid_probe_share", "share"},
      {"failed_share", "share"},
      {"unattributed_share", "share"},
      {"trace_overhead_share", "share"},
  };
  return Metrics;
}

} // namespace swabench
