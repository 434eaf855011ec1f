//===- tests/SchedtoolTest.cpp - Configuration search tests ----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/Crc32.h"
#include "tests/TestConfigs.h"

#include <cstdio>

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::schedtool;

namespace {

/// The 2x2x2 industrial shape, unbound: the search chooses every binding
/// and window.
cfg::Config unboundProblem(double Utilization, uint64_t Seed,
                           double MessageProbability = 0.25) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = Utilization;
  P.MessageProbability = MessageProbability;
  P.Seed = Seed;
  cfg::Config C = gen::industrialConfig(P);
  for (cfg::Partition &Part : C.Partitions) {
    Part.Core = -1;
    Part.Windows.clear();
  }
  return C;
}

} // namespace

TEST(FirstFit, BindsAllPartitionsUnderCapacity) {
  cfg::Config C = unboundProblem(0.4, 1);
  ASSERT_TRUE(bindFirstFitDecreasing(C));
  for (const cfg::Partition &P : C.Partitions) {
    EXPECT_GE(P.Core, 0);
    EXPECT_LT(P.Core, static_cast<int>(C.Cores.size()));
  }
  // No core may end up over unit utilization.
  for (size_t Core = 0; Core < C.Cores.size(); ++Core) {
    double U = 0;
    for (size_t P = 0; P < C.Partitions.size(); ++P)
      if (C.Partitions[P].Core == static_cast<int>(Core))
        U += C.partitionUtilization(static_cast<int>(P));
    EXPECT_LE(U, 1.0) << "core " << Core;
  }
}

TEST(FirstFit, FailsWhenDemandExceedsCapacity) {
  cfg::Config C = testcfg::twoTasksOneCore();
  // One core, three copies of a 60%-utilization partition.
  C.Partitions[0].Tasks = {{"t", 1, {6}, 10, 10}};
  C.Partitions.push_back(C.Partitions[0]);
  C.Partitions.push_back(C.Partitions[0]);
  for (cfg::Partition &P : C.Partitions)
    P.Core = -1;
  EXPECT_FALSE(bindFirstFitDecreasing(C));
}

TEST(Windows, SynthesisProducesValidLayouts) {
  cfg::Config C = unboundProblem(0.5, 2);
  ASSERT_TRUE(bindFirstFitDecreasing(C));
  synthesizeWindows(C, std::vector<double>(C.Partitions.size(), 1.5));
  Error E = C.validate();
  EXPECT_FALSE(E.isFailure()) << E.message();
  for (const cfg::Partition &P : C.Partitions)
    EXPECT_FALSE(P.Windows.empty()) << P.Name;
}

TEST(Search, FindsScheduleAtModerateUtilization) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.35, 3);
  Problem.Seed = 3;
  Problem.MaxIterations = 30;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Found);
  EXPECT_GE(Res->ConfigurationsEvaluated, 1);
  // The returned configuration must itself re-verify as schedulable.
  auto Recheck = analysis::analyzeConfiguration(Res->Best);
  ASSERT_TRUE(Recheck.ok()) << Recheck.error().message();
  EXPECT_TRUE(Recheck->Analysis.Schedulable);
}

TEST(Search, DiscardsUnschedulableCandidates) {
  // At very high utilization the search evaluates and rejects candidates;
  // whether it succeeds is workload-dependent, but every iteration must be
  // logged and counted.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 4);
  Problem.Seed = 4;
  Problem.MaxIterations = 6;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_GE(Res->ConfigurationsEvaluated, 1);
  EXPECT_EQ(Res->Log.empty(), false);
  if (!Res->Found) {
    EXPECT_GT(Res->BestBadness, 0);
  }
}

TEST(Search, IsDeterministicPerSeed) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 5);
  Problem.Seed = 9;
  Problem.MaxIterations = 10;
  auto A = searchConfiguration(Problem);
  auto B = searchConfiguration(Problem);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A->Found, B->Found);
  EXPECT_EQ(A->ConfigurationsEvaluated, B->ConfigurationsEvaluated);
  EXPECT_EQ(A->Log, B->Log);
}

namespace {

void expectSameResult(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.ConfigurationsEvaluated, B.ConfigurationsEvaluated);
  EXPECT_EQ(A.BestBadness, B.BestBadness);
  EXPECT_EQ(A.BestTrajectory, B.BestTrajectory);
  EXPECT_EQ(A.Log, B.Log);
  // The chosen configuration must be identical, not merely equivalent.
  ASSERT_EQ(A.Best.Partitions.size(), B.Best.Partitions.size());
  for (size_t P = 0; P < A.Best.Partitions.size(); ++P) {
    EXPECT_EQ(A.Best.Partitions[P].Core, B.Best.Partitions[P].Core);
    ASSERT_EQ(A.Best.Partitions[P].Windows.size(),
              B.Best.Partitions[P].Windows.size());
    for (size_t W = 0; W < A.Best.Partitions[P].Windows.size(); ++W) {
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].Start,
                B.Best.Partitions[P].Windows[W].Start);
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].End,
                B.Best.Partitions[P].Windows[W].End);
    }
  }
}

} // namespace

TEST(Search, ResultIndependentOfWorkerCount) {
  // The candidate sequence is fixed by (Seed, BatchSize) and batches are
  // reduced in candidate order, so every Workers value must produce the
  // byte-identical SearchResult — including at a utilization where the
  // search has to iterate.
  for (double Util : {0.45, 0.8}) {
    SearchProblem Problem;
    Problem.Base = unboundProblem(Util, 6);
    Problem.Seed = 13;
    Problem.MaxIterations = 12;

    Problem.Workers = 1;
    auto Serial = searchConfiguration(Problem);
    ASSERT_TRUE(Serial.ok()) << Serial.error().message();

    for (int Workers : {2, 4}) {
      Problem.Workers = Workers;
      auto Parallel = searchConfiguration(Problem);
      ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
      expectSameResult(*Serial, *Parallel);
    }
  }
}

TEST(Search, BudgetFiresAndSearchStillTerminates) {
  // A zero budget expires at every candidate's first guard check: every
  // evaluation is skipped, none aborts the batch, and the search ends
  // cleanly reporting what it skipped.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 5);
  Problem.Seed = 9;
  Problem.MaxIterations = 8;
  Problem.CandidateBudgetMs = 0;
  for (int Workers : {1, 2}) {
    Problem.Workers = Workers;
    auto Res = searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_FALSE(Res->Found);
    EXPECT_EQ(Res->ConfigurationsEvaluated, 0);
    EXPECT_GT(Res->CandidatesSkipped, 0);
    bool Logged = false;
    for (const std::string &Line : Res->Log)
      if (Line.find("skipped") != std::string::npos &&
          Line.find("budget-exceeded") != std::string::npos)
        Logged = true;
    EXPECT_TRUE(Logged) << "no skip reason in the search log";
  }
}

TEST(Search, UnfiredBudgetPreservesDeterminism) {
  // When the budget never fires the SearchResult must be byte-identical
  // to a no-budget run, for every worker count.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.45, 6);
  Problem.Seed = 13;
  Problem.MaxIterations = 12;

  Problem.Workers = 1;
  Problem.CandidateBudgetMs = -1;
  auto Baseline = searchConfiguration(Problem);
  ASSERT_TRUE(Baseline.ok()) << Baseline.error().message();

  Problem.CandidateBudgetMs = 600000; // Ten minutes: never fires here.
  for (int Workers : {1, 2, 4}) {
    Problem.Workers = Workers;
    auto Budgeted = searchConfiguration(Problem);
    ASSERT_TRUE(Budgeted.ok()) << Budgeted.error().message();
    EXPECT_EQ(Budgeted->CandidatesSkipped, 0);
    EXPECT_FALSE(Budgeted->Cancelled);
    expectSameResult(*Baseline, *Budgeted);
  }
}

TEST(Search, PreCancelledSearchStopsImmediately) {
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.5, 7);
  Problem.Seed = 11;
  Problem.MaxIterations = 20;
  CancelToken Tok;
  Tok.cancel();
  Problem.Cancel = &Tok;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Cancelled);
  EXPECT_FALSE(Res->Found);
  EXPECT_EQ(Res->ConfigurationsEvaluated, 0);
}

TEST(Search, VerdictOnlyAgreesWithFullAnalysis) {
  // The fast verdict path used inside the search must agree with the full
  // trace-based criterion for both schedulable and unschedulable layouts.
  for (double Util : {0.35, 0.85}) {
    cfg::Config C = unboundProblem(Util, 8);
    ASSERT_TRUE(bindFirstFitDecreasing(C));
    synthesizeWindows(C, std::vector<double>(C.Partitions.size(), 1.5));
    ASSERT_FALSE(C.validate().isFailure());

    auto Full = analysis::analyzeConfiguration(C);
    ASSERT_TRUE(Full.ok()) << Full.error().message();
    auto Fast = analysis::analyzeVerdictOnly(C);
    ASSERT_TRUE(Fast.ok()) << Fast.error().message();
    EXPECT_EQ(Fast->Schedulable, Full->Analysis.Schedulable);
    EXPECT_EQ(Fast->Schedulable, Fast->FailedTasks == 0);
  }
}

namespace {

/// Like unboundProblem but with no messages: every core group is an
/// independent component, so the decomposition layer engages.
cfg::Config decoupledProblem(double Utilization, uint64_t Seed) {
  return unboundProblem(Utilization, Seed, /*MessageProbability=*/0.0);
}

/// The per-iteration lines of the search log — the verdict stream, without
/// the per-round statistics lines, which describe how verdicts were
/// obtained rather than what they are.
std::vector<std::string> iterLines(const SearchResult &R) {
  std::vector<std::string> Out;
  for (const std::string &L : R.Log)
    if (L.rfind("iter ", 0) == 0)
      Out.push_back(L);
  return Out;
}

/// A golden search outcome: the per-iteration log lines, the best-so-far
/// trajectory and the chosen configuration. Every Best window list is the
/// synthesized minor-frame slice [Start, End) repeated kGoldenFrames times
/// at a stride of kGoldenMinor (the goldens' minor frame is 250 ticks in a
/// 2000-tick hyperperiod), so a partition is pinned by (core, first slice).
struct GoldenSearch {
  double Utilization;
  uint64_t BaseSeed;
  uint64_t Seed;
  int Iterations;
  std::vector<std::string> IterLines;
  std::vector<std::pair<int, int64_t>> Trajectory;
  struct Part {
    int Core;
    cfg::TimeValue Start, End;
  };
  std::vector<Part> Best;
};
constexpr cfg::TimeValue kGoldenMinor = 250;
constexpr int kGoldenFrames = 8;

void expectGolden(const GoldenSearch &G, const SearchResult &R) {
  EXPECT_EQ(iterLines(R), G.IterLines);
  EXPECT_EQ(R.BestTrajectory, G.Trajectory);
  ASSERT_EQ(R.Best.Partitions.size(), G.Best.size());
  for (size_t P = 0; P < G.Best.size(); ++P) {
    const cfg::Partition &Part = R.Best.Partitions[P];
    EXPECT_EQ(Part.Core, G.Best[P].Core) << "partition " << P;
    ASSERT_EQ(Part.Windows.size(), static_cast<size_t>(kGoldenFrames))
        << "partition " << P;
    for (int K = 0; K < kGoldenFrames; ++K) {
      EXPECT_EQ(Part.Windows[static_cast<size_t>(K)].Start,
                G.Best[P].Start + K * kGoldenMinor)
          << "partition " << P << " window " << K;
      EXPECT_EQ(Part.Windows[static_cast<size_t>(K)].End,
                G.Best[P].End + K * kGoldenMinor)
          << "partition " << P << " window " << K;
    }
  }
}

/// Recorded from the plain search — no verdict cache, full-horizon runs,
/// monolithic evaluation, no component reuse — before the search was
/// reduced to its single component pipeline. That pipeline must reproduce
/// the plain verdict stream exactly, so these never change.
const std::vector<GoldenSearch> &plainGoldens() {
  static const std::vector<GoldenSearch> Goldens = {
      {0.45, 21, 17, 12,
       {"iter 0: schedulable"},
       {{0, 0}},
       {{0, 0, 161}, {0, 161, 168}, {2, 0, 56}, {2, 56, 208},
        {3, 0, 26}, {1, 0, 145}, {3, 26, 178}, {1, 145, 190}}},
      {0.8, 21, 17, 12,
       {"iter 0: schedulable"},
       {{0, 0}},
       {{0, 0, 241}, {0, 241, 249}, {2, 0, 65}, {2, 65, 249},
        {3, 0, 35}, {1, 0, 190}, {3, 35, 249}, {1, 190, 249}}},
      {0.8, 26, 23, 10,
       {"iter 0: schedulable"},
       {{0, 0}},
       {{3, 0, 199}, {1, 0, 55}, {2, 0, 21}, {0, 0, 206},
        {2, 21, 249}, {0, 206, 249}, {3, 199, 249}, {1, 55, 249}}},
      // A multi-round run: every candidate misses, the trajectory settles
      // on the first candidate, and the cache, decomposition and dirty
      // tracking all engage on the pipeline side.
      {0.8, 27, 37, 16,
       {"iter 0: unschedulable (badness 1, first miss at t=2000, 1 tasks)",
        "iter 1: unschedulable (badness 1001, first miss at t=1000, 2 "
        "tasks)",
        "iter 2: unschedulable (badness 1, first miss at t=2000, 1 tasks)",
        "iter 3: unschedulable (badness 1, first miss at t=2000, 2 tasks)",
        "iter 4: unschedulable (badness 1, first miss at t=2000, 2 tasks)",
        "iter 5: unschedulable (badness 1, first miss at t=2000, 2 tasks)",
        "iter 6: unschedulable (badness 1001, first miss at t=1000, 2 "
        "tasks)",
        "iter 7: unschedulable (badness 1751, first miss at t=250, 1 tasks)",
        "iter 8: unschedulable (badness 1, first miss at t=2000, 3 tasks)",
        "iter 9: unschedulable (badness 1, first miss at t=2000, 4 tasks)",
        "iter 10: unschedulable (badness 1001, first miss at t=1000, 2 "
        "tasks)",
        "iter 11: unschedulable (badness 1, first miss at t=2000, 3 tasks)",
        "iter 12: unschedulable (badness 1, first miss at t=2000, 3 tasks)",
        "iter 13: unschedulable (badness 1501, first miss at t=500, 1 "
        "tasks)",
        "iter 14: unschedulable (badness 1501, first miss at t=500, 2 "
        "tasks)",
        "iter 15: unschedulable (badness 1001, first miss at t=1000, 1 "
        "tasks)"},
       {{0, 1}},
       {{3, 0, 176}, {1, 0, 62}, {0, 0, 240}, {0, 240, 249},
        {2, 0, 28}, {1, 62, 249}, {3, 176, 249}, {2, 28, 249}}},
  };
  return Goldens;
}

} // namespace

TEST(Search, ReproducesPlainSearchGoldens) {
  // The single evaluation path (component cache, first-miss early exit,
  // decomposition, dirty tracking, instance reuse — all at once) must
  // reproduce the plain search's verdict stream, trajectory and chosen
  // configuration, on decomposing workloads and for every worker count.
  for (const GoldenSearch &G : plainGoldens()) {
    SearchProblem Problem;
    Problem.Base = decoupledProblem(G.Utilization, G.BaseSeed);
    Problem.Seed = G.Seed;
    Problem.MaxIterations = G.Iterations;
    for (int Workers : {1, 2, 4}) {
      SCOPED_TRACE("base seed " + std::to_string(G.BaseSeed) + ", workers " +
                   std::to_string(Workers));
      Problem.Workers = Workers;
      auto Res = searchConfiguration(Problem);
      ASSERT_TRUE(Res.ok()) << Res.error().message();
      EXPECT_EQ(Res->Found, G.Trajectory.back().second == 0);
      EXPECT_EQ(Res->ConfigurationsEvaluated,
                static_cast<int>(G.IterLines.size()));
      expectGolden(G, *Res);
    }
  }
}

TEST(Search, DecomposedResultIndependentOfWorkerCount) {
  // The SearchResult — including the cache and decomposition statistics,
  // which are serial-path facts — must stay byte-identical for every
  // worker count on a workload that decomposes.
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 22);
  Problem.Seed = 19;
  Problem.MaxIterations = 12;

  Problem.Workers = 1;
  auto Serial = searchConfiguration(Problem);
  ASSERT_TRUE(Serial.ok()) << Serial.error().message();

  for (int Workers : {2, 4}) {
    Problem.Workers = Workers;
    auto Parallel = searchConfiguration(Problem);
    ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
    expectSameResult(*Serial, *Parallel);
    EXPECT_EQ(Serial->CacheHits, Parallel->CacheHits);
    EXPECT_EQ(Serial->CacheMisses, Parallel->CacheMisses);
    EXPECT_EQ(Serial->DecomposedCandidates, Parallel->DecomposedCandidates);
    EXPECT_EQ(Serial->ComponentsSimulated, Parallel->ComponentsSimulated);
    EXPECT_EQ(Serial->SimulationsRun, Parallel->SimulationsRun);
  }
}

TEST(Search, PlainResultIndependentOfWorkerCount) {
  // The same guarantee on a message-coupled workload, where candidates
  // are evaluated as whole configs.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 23);
  Problem.Seed = 19;
  Problem.MaxIterations = 12;

  Problem.Workers = 1;
  auto Serial = searchConfiguration(Problem);
  ASSERT_TRUE(Serial.ok()) << Serial.error().message();
  for (int Workers : {2, 4}) {
    Problem.Workers = Workers;
    auto Parallel = searchConfiguration(Problem);
    ASSERT_TRUE(Parallel.ok()) << Parallel.error().message();
    expectSameResult(*Serial, *Parallel);
  }
}

TEST(Search, CacheHitsHappenAndAreCounted) {
  // At high utilization the boost vector saturates after a few rounds and
  // candidate 0 (the unperturbed adaptive state) starts repeating — the
  // cache must catch those revisits, and the statistics must be coherent:
  // every decided candidate was a hit or a miss.
  SearchProblem Problem;
  Problem.Base = unboundProblem(0.8, 99);
  Problem.Seed = 29;
  Problem.MaxIterations = 60;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_GT(Res->ConfigurationsEvaluated, 0);
  ASSERT_FALSE(Res->Found); // overloaded on purpose
  EXPECT_GT(Res->CacheHits, 0);
  EXPECT_GT(Res->CacheMisses, 0);
  EXPECT_EQ(Res->ConfigurationsEvaluated,
            Res->CacheHits + Res->CacheMisses);
  bool StatsLogged = false;
  for (const std::string &Line : Res->Log)
    if (Line.rfind("round ", 0) == 0 &&
        Line.find("cache") != std::string::npos)
      StatsLogged = true;
  EXPECT_TRUE(StatsLogged) << "no cache statistics in the search log";
}

TEST(Search, DecompositionEngagesOnDecoupledWorkloads) {
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 25);
  Problem.Seed = 31;
  Problem.MaxIterations = 12;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_GT(Res->DecomposedCandidates, 0);
  // A decomposed candidate has at least two components, each resolved
  // against the component cache. (ComponentsSimulated can fall below
  // two-per-candidate: hits and intra-round duplicates are not re-run.)
  EXPECT_GE(Res->ComponentCacheHits + Res->ComponentCacheMisses,
            2 * Res->DecomposedCandidates);
  // The round that finds also ran the simulations of the candidates after
  // the schedulable one, which count as runs but not as misses.
  if (!Res->Found) {
    EXPECT_GE(Res->ComponentCacheMisses, Res->ComponentsSimulated);
  }
  // Every round, the one that finds included, logs its statistics line.
  bool StatsLogged = false;
  for (const std::string &Line : Res->Log)
    if (Line.rfind("round ", 0) == 0 &&
        Line.find("decomposed") != std::string::npos)
      StatsLogged = true;
  EXPECT_TRUE(StatsLogged) << "no decomposition statistics in the log";
}

TEST(Search, ComponentCacheAndDirtyTrackingEngage) {
  // On a decoupled workload the component cache must produce cross-round
  // hits (the adaptive state mutates a few components per step, the rest
  // repeat), the recorded moves must leave some components clean, and the
  // statistics must be coherent.
  SearchProblem Problem;
  Problem.Base = decoupledProblem(0.8, 27);
  Problem.Seed = 37;
  Problem.MaxIterations = 16;
  auto Res = searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_GT(Res->DecomposedCandidates, 0);
  EXPECT_GT(Res->ComponentCacheHits, 0);
  EXPECT_GT(Res->ComponentCacheMisses, 0);
  EXPECT_GE(Res->ComponentCacheMisses, Res->ComponentsSimulated);
  EXPECT_GT(Res->DirtyComponents, 0);
  // Every component of a decomposed candidate meets the cache exactly
  // once, and some hold no core the move touched.
  EXPECT_LT(Res->DirtyComponents,
            Res->ComponentCacheHits + Res->ComponentCacheMisses);
  bool CacheLine = false, DirtyLine = false;
  for (const std::string &Line : Res->Log) {
    if (Line.rfind("round ", 0) != 0)
      continue;
    if (Line.find("component cache") != std::string::npos)
      CacheLine = true;
    if (Line.find("dirty") != std::string::npos)
      DirtyLine = true;
  }
  EXPECT_TRUE(CacheLine) << "no component-cache statistics in the log";
  EXPECT_TRUE(DirtyLine) << "no dirty-component statistics in the log";
}

TEST(Search, StatsCountOnlyReducedCandidates) {
  // The cache and component statistics describe the candidates the search
  // reduced. In the round that finds a schedulable candidate, the
  // candidates after it are resolved against the cache but never reduced,
  // so they must count nowhere. These are perfbench's neighbourhood
  // searches (base key K, search seed 41 + K) that find at a candidate
  // other than the last of its batch, in round 0 (K = 2) or later.
  for (uint64_t K : {2, 3, 4, 16}) {
    SearchProblem Problem;
    Problem.Base = decoupledProblem(0.8, K);
    Problem.Seed = 41 + K;
    Problem.MaxIterations = 120;
    Problem.BatchSize = 4;
    for (int Workers : {1, 2, 4}) {
      SCOPED_TRACE("key " + std::to_string(K) + ", workers " +
                   std::to_string(Workers));
      Problem.Workers = Workers;
      auto Res = searchConfiguration(Problem);
      ASSERT_TRUE(Res.ok()) << Res.error().message();
      ASSERT_TRUE(Res->Found);
      ASSERT_NE(Res->BestTrajectory.back().first % Problem.BatchSize,
                Problem.BatchSize - 1);
      EXPECT_EQ(Res->CacheHits + Res->CacheMisses,
                Res->ConfigurationsEvaluated + Res->CandidatesSkipped);
      EXPECT_LE(Res->DirtyComponents,
                Res->ComponentCacheHits + Res->ComponentCacheMisses);
    }
  }
}

namespace {

uint32_t resultDigest(const SearchResult &R) {
  std::string Bytes = encodeSearchResultBytes(R);
  return support::crc32(Bytes.data(), Bytes.size());
}

/// CRC-32 of the verdict stream alone: Found, Best, BestBadness, the
/// trajectory and every "iter" log line. Cache and simulation statistics
/// and their round lines are left out, so a change to how verdicts are
/// reused keeps this digest while it may move resultDigest's.
uint32_t verdictDigest(const SearchResult &R) {
  std::string S = std::to_string(R.Found) + ' ' +
                  std::to_string(snapshotBaseCrc(R.Best)) + ' ' +
                  std::to_string(R.BestBadness) + '\n';
  for (const auto &[Iter, Badness] : R.BestTrajectory)
    S += std::to_string(Iter) + ':' + std::to_string(Badness) + ' ';
  for (const std::string &Line : R.Log)
    if (Line.rfind("iter ", 0) == 0)
      S += '\n' + Line;
  return support::crc32(S.data(), S.size());
}

struct PinnedShape {
  double MessageProbability;
  std::vector<uint32_t> Digests;
};

/// Runs 12 seeds of each shape (120 iterations) at Workers 1, 2 and 4 and
/// expects \p Digest of every result to equal the pinned value; prints
/// the actual table on a mismatch.
void expectPinned(const std::vector<PinnedShape> &Shapes,
                  uint32_t (*Digest)(const SearchResult &)) {
  std::string Actual;
  bool AllMatch = true;
  for (const PinnedShape &Sh : Shapes) {
    Actual += "{" + std::to_string(Sh.MessageProbability) + ", {";
    for (uint64_t K = 0; K < 12; ++K) {
      SearchProblem Problem;
      Problem.Base = unboundProblem(0.8, 40 + K, Sh.MessageProbability);
      Problem.Seed = 70 + K;
      Problem.MaxIterations = 120;
      uint32_t Serial = 0;
      for (int Workers : {1, 2, 4}) {
        SCOPED_TRACE("message probability " +
                     std::to_string(Sh.MessageProbability) + ", key " +
                     std::to_string(K) + ", workers " +
                     std::to_string(Workers));
        Problem.Workers = Workers;
        auto Res = searchConfiguration(Problem);
        ASSERT_TRUE(Res.ok()) << Res.error().message();
        uint32_t D = Digest(*Res);
        if (Workers == 1) {
          Serial = D;
          char Buf[16];
          std::snprintf(Buf, sizeof(Buf), "0x%08xu, ", D);
          Actual += Buf;
        }
        EXPECT_EQ(D, Serial);
        bool Match =
            K < Sh.Digests.size() && D == Sh.Digests[static_cast<size_t>(K)];
        EXPECT_TRUE(Match);
        AllMatch = AllMatch && Match;
      }
    }
    Actual += "}},\n";
  }
  if (!AllMatch)
    ADD_FAILURE() << "digests:\n" << Actual;
}

} // namespace

TEST(Search, ResultBytesArePinned) {
  // CRC-32 of the encoded SearchResult — verdict stream, best layout and
  // every statistic, dirty counts included — for 12 seeds in each of a
  // decoupled, a sparse and a coupled shape. Re-recorded when the
  // statistics began to count only the candidates the search reduces, one
  // line per round, without SchedulableSeen and CleanComponentsReused (the
  // verdict stream, pinned below, held); any change to how the search
  // evaluates candidates must keep every byte.
  expectPinned(
      {
          {0.0,
           {0x75958678u, 0x697dda91u, 0x25527ddcu, 0x5922152eu, 0xe52f78b9u,
            0x4d0e7979u, 0x11cf268du, 0x17c596f5u, 0xeecea29au, 0x2648f2c6u,
            0x8581593eu, 0x9a48029fu}},
          {0.15,
           {0x8599f148u, 0x773f479fu, 0x5ac0620bu, 0xa7d6cf5au, 0x377a4c0au,
            0x4d0e7979u, 0x9290d3ccu, 0x20682535u, 0x3c00cc3au, 0xaae2d5f2u,
            0x5c999b53u, 0x0c3bd7aau}},
          {0.5,
           {0xf85bb865u, 0x7296a5d7u, 0x0ea2c48du, 0xc0c2fc0eu, 0x813f96e8u,
            0x4d0e7979u, 0xfaca309eu, 0xb24a0d6fu, 0x5e31d2fbu, 0x56266f02u,
            0x46299284u, 0x44af38feu}},
      },
      resultDigest);
}

TEST(Search, VerdictStreamIsPinned) {
  // The same 36 searches, pinned on the verdict stream only. Recorded
  // while the cache still folded core relabelings and copied intra-batch
  // duplicates; keying by the plain fingerprint kept every verdict.
  expectPinned(
      {
          {0.0,
           {0xbe5ee690u, 0xa16ab2f2u, 0x6038ae82u, 0x2e593f4du, 0x0a195bbeu,
            0xf7ec776du, 0x02887b28u, 0x277d68a4u, 0x7e3e58e2u, 0xc94ee8f3u,
            0x907bc43bu, 0x1621d5f6u}},
          {0.15,
           {0x2627e3e7u, 0xfb658e5au, 0xb8404c42u, 0xf6b866d5u, 0xeac7881du,
            0xf7ec776du, 0x302ff9dbu, 0xb839bd79u, 0x5c09f7e0u, 0x9fe6df1du,
            0xf4853baeu, 0x6e4e4bd4u}},
          {0.5,
           {0xa00e1399u, 0xa0935e7eu, 0x04b80047u, 0x00b448f0u, 0x91b96248u,
            0xf7ec776du, 0xe7818c89u, 0xcb1ea818u, 0xea3386acu, 0xf92c27a4u,
            0x7f55cc89u, 0x4e01b6ccu}},
      },
      verdictDigest);
}

namespace {

/// The local strategy with every move left unrecorded: perturb makes the
/// same change and then clears the Mutation.
class UnrecordedStrategy : public Strategy {
public:
  const char *name() const override { return Inner->name(); }
  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    Inner->perturb(PJ, P, Config, Boost, M);
    M = Mutation();
  }
  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    Inner->adapt(R, P, Best, Current, Boost);
  }
  void adaptAllInvalid(Rng &R, const SearchProblem &P,
                       std::vector<double> &Boost) override {
    Inner->adaptAllInvalid(R, P, Boost);
  }

private:
  std::unique_ptr<Strategy> Inner = makeStrategy("local");
};

} // namespace

TEST(Search, UnrecordedMovesCannotChangeVerdicts) {
  // The Mutation a strategy records feeds only the dirty/clean statistics:
  // a strategy that records nothing must still reach the plain search's
  // verdict stream, trajectory and chosen layout.
  for (uint64_t K = 0; K < 12; ++K) {
    SCOPED_TRACE("key " + std::to_string(K));
    SearchProblem Problem;
    Problem.Base = decoupledProblem(0.8, 40 + K);
    Problem.Seed = 70 + K;
    Problem.MaxIterations = 120;
    auto Plain = searchConfiguration(Problem);
    ASSERT_TRUE(Plain.ok()) << Plain.error().message();
    UnrecordedStrategy Unrecorded;
    Problem.Strat = &Unrecorded;
    auto Res = searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_EQ(iterLines(*Res), iterLines(*Plain));
    EXPECT_EQ(Res->Found, Plain->Found);
    EXPECT_EQ(Res->BestTrajectory, Plain->BestTrajectory);
    EXPECT_EQ(snapshotBaseCrc(Res->Best), snapshotBaseCrc(Plain->Best));
  }
}

namespace {

/// Counts every strategy call; the moves themselves are the local
/// strategy's.
class CountingStrategy : public UnrecordedStrategy {
public:
  int Calls = 0;
  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    ++Calls;
    UnrecordedStrategy::perturb(PJ, P, Config, Boost, M);
  }
  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    ++Calls;
    UnrecordedStrategy::adapt(R, P, Best, Current, Boost);
  }
  void adaptAllInvalid(Rng &R, const SearchProblem &P,
                       std::vector<double> &Boost) override {
    ++Calls;
    UnrecordedStrategy::adaptAllInvalid(R, P, Boost);
  }
};

} // namespace

TEST(Search, InvalidBaseIsAnErrorBeforeAnyCandidate) {
  // A Base task with no WCETs (first-fit binding would read past the list)
  // and one with a negative period (every candidate would fail validation)
  // are both rejected at entry, before any candidate is generated.
  for (int Case = 0; Case < 2; ++Case) {
    SCOPED_TRACE("case " + std::to_string(Case));
    SearchProblem Problem;
    Problem.Base = decoupledProblem(0.5, 3);
    cfg::Task &T = Problem.Base.Partitions[1].Tasks[0];
    if (Case == 0)
      T.Wcet.clear();
    else
      T.Period = -10;
    Problem.MaxIterations = 8;
    CountingStrategy Counting;
    Problem.Strat = &Counting;
    auto Res = searchConfiguration(Problem);
    ASSERT_FALSE(Res.ok());
    EXPECT_NE(Res.error().message().find("partition 1"), std::string::npos)
        << Res.error().message();
    EXPECT_EQ(Counting.Calls, 0);
  }
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
