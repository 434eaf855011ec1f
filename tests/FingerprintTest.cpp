//===- tests/FingerprintTest.cpp - Fingerprint & decomposition tests -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the search-acceleration substrate of the config search:
/// the structural fingerprint (cache key), the message-graph
/// decomposition, and the component-verdict merge.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Sensitivity.h"
#include "config/Decompose.h"
#include "config/Fingerprint.h"
#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "support/UnionFind.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

using namespace swa;

namespace {

/// Two modules, each with two same-type cores; four single-task FPPS
/// partitions, initially unbound and windowless. The playground for
/// binding tests.
cfg::Config symmetricBase() {
  cfg::Config C;
  C.Name = "sym";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"m0c0", 0, 0});
  C.Cores.push_back({"m0c1", 0, 0});
  C.Cores.push_back({"m1c0", 1, 0});
  C.Cores.push_back({"m1c1", 1, 0});
  for (int I = 0; I < 4; ++I) {
    cfg::Partition P;
    P.Name = "p" + std::to_string(I);
    P.Scheduler = cfg::SchedulerKind::FPPS;
    P.Tasks.push_back(
        {"t" + std::to_string(I), 1 + I, {2 + I}, 20, 20});
    P.Windows.push_back({static_cast<cfg::TimeValue>(I * 5),
                         static_cast<cfg::TimeValue>(I * 5 + 5)});
    C.Partitions.push_back(std::move(P));
  }
  return C;
}

} // namespace

TEST(Fingerprint, SameClassRelabelingChangesTheKey) {
  cfg::Config A = symmetricBase();
  A.Partitions[0].Core = 0;
  A.Partitions[1].Core = 1;
  A.Partitions[2].Core = 2;
  A.Partitions[3].Core = 3;

  // Swap the two module-0 cores: a relabeling within one (Module,
  // CoreType) class. The key hashes actual core indices, so the two
  // bindings are different keys (and different cache entries).
  cfg::Config B = A;
  B.Partitions[0].Core = 1;
  B.Partitions[1].Core = 0;
  EXPECT_NE(cfg::fingerprintConfig(A), cfg::fingerprintConfig(B));
}

TEST(Fingerprint, CrossClassRebindChangesTheKey) {
  cfg::Config A = symmetricBase();
  for (int I = 0; I < 4; ++I)
    A.Partitions[static_cast<size_t>(I)].Core = I;
  cfg::Config B = A;
  // Core 2 lives in module 1: moving p0 there changes message locality
  // and changes the core class.
  B.Partitions[0].Core = 2;
  EXPECT_NE(cfg::fingerprintConfig(A), cfg::fingerprintConfig(B));
}

TEST(Fingerprint, CoLocationIsPartOfTheKey) {
  cfg::Config A = symmetricBase();
  A.Partitions[0].Core = 0;
  A.Partitions[1].Core = 0; // shares the core with p0
  A.Partitions[2].Core = 2;
  A.Partitions[3].Core = 3;
  cfg::Config B = A;
  B.Partitions[1].Core = 1; // now alone on the sibling core
  EXPECT_NE(cfg::fingerprintConfig(A), cfg::fingerprintConfig(B));
}

TEST(Fingerprint, EverySemanticParameterChangesTheKey) {
  cfg::Config Base = symmetricBase();
  for (int I = 0; I < 4; ++I)
    Base.Partitions[static_cast<size_t>(I)].Core = I;
  cfg::Fingerprint F0 = cfg::fingerprintConfig(Base);

  {
    cfg::Config C = Base;
    C.Partitions[2].Tasks[0].Wcet[0] += 1;
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "wcet";
  }
  {
    cfg::Config C = Base;
    C.Partitions[1].Tasks[0].Priority += 1;
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "priority";
  }
  {
    cfg::Config C = Base;
    C.Partitions[3].Tasks[0].Deadline -= 1;
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "deadline";
  }
  {
    cfg::Config C = Base;
    C.Partitions[0].Windows[0].End += 1;
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "window";
  }
  {
    cfg::Config C = Base;
    C.Partitions[1].Scheduler = cfg::SchedulerKind::EDF;
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "scheduler";
  }
  {
    cfg::Config C = Base;
    C.Messages.push_back({{0, 0}, {1, 0}, 2, 7});
    EXPECT_NE(cfg::fingerprintConfig(C), F0) << "message";
  }
}

TEST(Fingerprint, NamesAndUnusedCoresAreIrrelevant) {
  cfg::Config A = symmetricBase();
  for (int I = 0; I < 4; ++I)
    A.Partitions[static_cast<size_t>(I)].Core = I;
  cfg::Config B = A;
  B.Name = "renamed";
  B.Partitions[0].Name = "other";
  B.Partitions[0].Tasks[0].Name = "other-task";
  B.Cores.push_back({"spare", 0, 0}); // never bound
  EXPECT_EQ(cfg::fingerprintConfig(A), cfg::fingerprintConfig(B));
}

TEST(UnionFind, GroupsAndSeparates) {
  support::UnionFind UF(5);
  EXPECT_TRUE(UF.unite(0, 1));
  EXPECT_TRUE(UF.unite(3, 4));
  EXPECT_FALSE(UF.unite(1, 0));
  EXPECT_TRUE(UF.same(0, 1));
  EXPECT_FALSE(UF.same(1, 3));
  EXPECT_TRUE(UF.unite(1, 3));
  EXPECT_TRUE(UF.same(0, 4));
  EXPECT_FALSE(UF.same(2, 0));
}

namespace {

/// A decoupled two-component system: two single-core modules, each with
/// one FPPS partition; periods 4 on component 0 and 8 on component 1, so
/// the global hyperperiod (8) is twice component 0's.
cfg::Config twoComponents() {
  cfg::Config C;
  C.Name = "two-comp";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"m0c0", 0, 0});
  C.Cores.push_back({"m1c0", 1, 0});
  cfg::Partition A;
  A.Name = "pA";
  A.Scheduler = cfg::SchedulerKind::FPPS;
  A.Core = 0;
  A.Tasks.push_back({"a", 1, {1}, 4, 4});
  A.Windows.push_back({0, 2});
  A.Windows.push_back({4, 6}); // 4-periodic pattern over L = 8
  cfg::Partition B;
  B.Name = "pB";
  B.Scheduler = cfg::SchedulerKind::FPPS;
  B.Core = 1;
  B.Tasks.push_back({"b", 1, {3}, 8, 8});
  B.Windows.push_back({0, 8});
  C.Partitions.push_back(std::move(A));
  C.Partitions.push_back(std::move(B));
  return C;
}

} // namespace

TEST(Decompose, SplitsDecoupledCoresAndTruncatesWindows) {
  cfg::Config C = twoComponents();
  ASSERT_FALSE(C.validate().isFailure());
  cfg::Decomposition D = cfg::decomposeConfig(C);
  ASSERT_TRUE(D.Decomposed);
  ASSERT_EQ(D.Components.size(), 2u);
  EXPECT_EQ(D.Horizon, 8);

  // Component 0: hyperperiod 4, the window pattern truncated to [0, 2).
  const cfg::Component &C0 = D.Components[0];
  EXPECT_EQ(C0.Sub.hyperperiod(), 4);
  ASSERT_EQ(C0.Sub.Partitions.size(), 1u);
  ASSERT_EQ(C0.Sub.Partitions[0].Windows.size(), 1u);
  EXPECT_EQ(C0.Sub.Partitions[0].Windows[0].Start, 0);
  EXPECT_EQ(C0.Sub.Partitions[0].Windows[0].End, 2);
  EXPECT_EQ(C0.GidMap, (std::vector<int32_t>{0}));
  EXPECT_FALSE(C0.Sub.validate().isFailure());

  const cfg::Component &C1 = D.Components[1];
  EXPECT_EQ(C1.Sub.hyperperiod(), 8);
  EXPECT_EQ(C1.GidMap, (std::vector<int32_t>{1}));
  EXPECT_FALSE(C1.Sub.validate().isFailure());
}

TEST(Decompose, DeclinesNonPeriodicWindows) {
  cfg::Config C = twoComponents();
  // Break component 0's periodicity: a window straddling the 4-tick
  // block boundary. Still a valid config (hyperperiod 8).
  C.Partitions[0].Windows = {{3, 5}};
  ASSERT_FALSE(C.validate().isFailure());
  EXPECT_FALSE(cfg::decomposeConfig(C).Decomposed);
  // An asymmetric pattern (different windows in the two blocks) also
  // declines.
  C.Partitions[0].Windows = {{0, 2}, {5, 7}};
  ASSERT_FALSE(C.validate().isFailure());
  EXPECT_FALSE(cfg::decomposeConfig(C).Decomposed);
}

TEST(Decompose, MessagesCoupleCores) {
  cfg::Config C = twoComponents();
  // Same-period messaging is not required for coupling; use a message
  // between the two tasks to weld the components together.
  C.Messages.push_back({{0, 0}, {1, 0}, 1, 2});
  EXPECT_FALSE(cfg::decomposeConfig(C).Decomposed);
}

TEST(Decompose, GeneratedDecoupledWorkloadSplitsPerCoreGroup) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = 0.5;
  P.MessageProbability = 0.0;
  P.Seed = 77;
  cfg::Config C = gen::industrialConfig(P);
  for (cfg::Partition &Part : C.Partitions) {
    Part.Core = -1;
    Part.Windows.clear();
  }
  ASSERT_TRUE(schedtool::bindFirstFitDecreasing(C));
  schedtool::synthesizeWindows(
      C, std::vector<double>(C.Partitions.size(), 1.5));
  ASSERT_FALSE(C.validate().isFailure());

  cfg::Decomposition D = cfg::decomposeConfig(C);
  ASSERT_TRUE(D.Decomposed);
  EXPECT_GE(D.Components.size(), 2u);
  // The gid maps must partition [0, numTasks) exactly.
  std::vector<char> Seen(static_cast<size_t>(C.numTasks()), 0);
  for (const cfg::Component &Comp : D.Components) {
    EXPECT_FALSE(Comp.Sub.validate().isFailure());
    for (int32_t G : Comp.GidMap) {
      ASSERT_GE(G, 0);
      ASSERT_LT(G, C.numTasks());
      EXPECT_EQ(Seen[static_cast<size_t>(G)], 0);
      Seen[static_cast<size_t>(G)] = 1;
    }
  }
  for (char S : Seen)
    EXPECT_EQ(S, 1);
}

TEST(Decompose, MergedVerdictMatchesMonolithic) {
  // Make the decoupled system unschedulable in one component and verify
  // the merged verdict reproduces the monolithic analysis bit for bit.
  cfg::Config C = twoComponents();
  // pB needs 6 ticks but its window grants only 4 per hyperperiod.
  C.Partitions[1].Tasks[0].Wcet[0] = 6;
  C.Partitions[1].Windows = {{0, 4}};
  ASSERT_FALSE(C.validate().isFailure());

  Result<analysis::VerdictOutcome> Mono = analysis::analyzeVerdictOnly(C);
  ASSERT_TRUE(Mono.ok()) << Mono.error().message();
  ASSERT_TRUE(Mono->decided());

  cfg::Decomposition D = cfg::decomposeConfig(C);
  ASSERT_TRUE(D.Decomposed);
  std::vector<analysis::ComponentVerdict> Parts;
  for (cfg::Component &Comp : D.Components) {
    nsa::SimOptions Opt;
    Opt.Horizon = D.Horizon;
    Result<analysis::VerdictOutcome> R =
        analysis::analyzeVerdictOnly(Comp.Sub, Opt);
    ASSERT_TRUE(R.ok()) << R.error().message();
    ASSERT_TRUE(R->decided());
    Parts.push_back({std::move(*R), Comp.GidMap});
  }
  analysis::VerdictOutcome Merged =
      analysis::mergeComponentVerdicts(Parts, C.numTasks());
  EXPECT_EQ(Merged.Schedulable, Mono->Schedulable);
  EXPECT_EQ(Merged.FailedTasks, Mono->FailedTasks);
  EXPECT_EQ(Merged.TaskFailed, Mono->TaskFailed);
  EXPECT_EQ(Merged.FirstMissTime, Mono->FirstMissTime);
  EXPECT_EQ(Merged.FirstMissTasks, Mono->FirstMissTasks);
}

TEST(EarlyExit, TruncatedRunAgreesWithFullRun) {
  // overloadedOneCore misses at t=20; the extra long-period task
  // stretches the hyperperiod to 40 so the early exit has room to save.
  cfg::Config C = testcfg::overloadedOneCore();
  C.Partitions[0].Tasks.push_back({"slow", 3, {1}, 40, 40});
  ASSERT_FALSE(C.validate().isFailure());
  Result<analysis::VerdictOutcome> Full = analysis::analyzeVerdictOnly(C);
  ASSERT_TRUE(Full.ok());
  ASSERT_TRUE(Full->decided());
  ASSERT_FALSE(Full->Schedulable);
  ASSERT_GE(Full->FirstMissTime, 0);

  nsa::SimOptions Opt;
  Opt.StopOnFirstMiss = true;
  Result<analysis::VerdictOutcome> Early =
      analysis::analyzeVerdictOnly(C, Opt);
  ASSERT_TRUE(Early.ok());
  ASSERT_TRUE(Early->decided());
  EXPECT_EQ(Early->Stop, nsa::StopReason::DeadlineMiss);
  EXPECT_FALSE(Early->Schedulable);
  EXPECT_EQ(Early->FirstMissTime, Full->FirstMissTime);
  EXPECT_EQ(Early->FirstMissTasks, Full->FirstMissTasks);
  // The truncated run does strictly less work.
  EXPECT_LT(Early->ActionCount, Full->ActionCount);
  // And observes only failures the full run also observes.
  for (size_t G = 0; G < Early->TaskFailed.size(); ++G) {
    if (Early->TaskFailed[G]) {
      EXPECT_TRUE(Full->TaskFailed[G]) << "gid " << G;
    }
  }
}

TEST(EarlyExit, SchedulableRunsAreUntouched) {
  cfg::Config C = testcfg::twoTasksOneCore();
  nsa::SimOptions Opt;
  Opt.StopOnFirstMiss = true;
  Result<analysis::VerdictOutcome> Early =
      analysis::analyzeVerdictOnly(C, Opt);
  Result<analysis::VerdictOutcome> Full = analysis::analyzeVerdictOnly(C);
  ASSERT_TRUE(Early.ok());
  ASSERT_TRUE(Full.ok());
  EXPECT_TRUE(Early->Schedulable);
  EXPECT_EQ(Early->Stop, nsa::StopReason::Completed);
  EXPECT_EQ(Early->ActionCount, Full->ActionCount);
  EXPECT_EQ(Early->FirstMissTime, -1);
  EXPECT_TRUE(Early->FirstMissTasks.empty());
}

TEST(ComponentFingerprint, OwnHyperperiodEqualsStandaloneKey) {
  // A component simulated to its own hyperperiod is indistinguishable
  // from the same config analyzed standalone, so the keys must coincide
  // — the component cache then serves standalone-analysis revisits too.
  cfg::Decomposition D = cfg::decomposeConfig(twoComponents());
  ASSERT_TRUE(D.Decomposed);
  const cfg::Config &C1 = D.Components[1].Sub; // hyperperiod 8 == L
  EXPECT_EQ(C1.hyperperiod(), D.Horizon);
  EXPECT_EQ(cfg::fingerprintComponent(C1, D.Horizon),
            cfg::fingerprintConfig(C1));
}

TEST(ComponentFingerprint, ForeignHorizonDivergesFromStandaloneKey) {
  // Component 0's hyperperiod (4) divides the global horizon (8): a run
  // to 8 observes different backlog than a run to 4, so the key must
  // separate the two — and separate every other horizon as well.
  cfg::Decomposition D = cfg::decomposeConfig(twoComponents());
  ASSERT_TRUE(D.Decomposed);
  const cfg::Config &C0 = D.Components[0].Sub; // hyperperiod 4 < L = 8
  ASSERT_EQ(C0.hyperperiod(), 4);
  cfg::Fingerprint At8 = cfg::fingerprintComponent(C0, 8);
  EXPECT_NE(At8, cfg::fingerprintConfig(C0));
  EXPECT_NE(At8, cfg::fingerprintComponent(C0, 4));
  EXPECT_NE(At8, cfg::fingerprintComponent(C0, 16));
  // At its own hyperperiod the standalone identity holds here too.
  EXPECT_EQ(cfg::fingerprintComponent(C0, 4), cfg::fingerprintConfig(C0));
}

TEST(ShapeFingerprint, WindowPlacementIsNotPartOfTheShape) {
  // The arena key must survive exactly the mutations rebindWindows can
  // patch: moving or resizing windows keeps the shape; changing the
  // window *count* (different table sizes) or the binding changes it.
  cfg::Config A = symmetricBase();
  for (int P = 0; P < 4; ++P)
    A.Partitions[static_cast<size_t>(P)].Core = P;
  cfg::Config B = A;
  B.Partitions[0].Windows = {{1, 3}}; // moved, same count
  EXPECT_EQ(cfg::fingerprintShape(A), cfg::fingerprintShape(B));
  cfg::Config C = A;
  C.Partitions[0].Windows.push_back({10, 12}); // extra window
  EXPECT_NE(cfg::fingerprintShape(A), cfg::fingerprintShape(C));
  cfg::Config E = A;
  E.Partitions[0].Core = 1; // rebind: different automaton network
  EXPECT_NE(cfg::fingerprintShape(A), cfg::fingerprintShape(E));
}

TEST(Fingerprint, SensitivityPerturbationsMoveExactlyTheRightKeys) {
  // The sensitivity probes key their VerdictCache lookups on
  // fingerprintConfig and their arena slots on fingerprintShape; the
  // perturbation builders must therefore move (or preserve) exactly the
  // keys each layer expects — a WCET or offset probe that aliased the
  // base config's cache entry would return the base verdict for a
  // perturbed workload.
  cfg::Config Base = symmetricBase();
  for (int I = 0; I < 4; ++I)
    Base.Partitions[static_cast<size_t>(I)].Core = I;
  int64_t L = Base.hyperperiod() * 2;

  // WCET inflation: a new whole-config key, a new component key (the
  // component cache would otherwise replay the uninflated verdict), and
  // a new arena shape (WCETs live in the automaton guards, not the
  // window tables rebindWindows can patch).
  cfg::Config Inflated = analysis::withWcetDelta(Base, /*TaskGid=*/0, 1);
  EXPECT_NE(cfg::fingerprintConfig(Inflated), cfg::fingerprintConfig(Base));
  EXPECT_NE(cfg::fingerprintComponent(Inflated, L),
            cfg::fingerprintComponent(Base, L));
  EXPECT_NE(cfg::fingerprintShape(Inflated), cfg::fingerprintShape(Base));

  // Window-offset shift: new config and component keys (the verdict
  // genuinely depends on placement) but the *same* shape — the offset
  // query's probes are exactly the mutation the arena exists to serve.
  cfg::Config Shifted = analysis::withWindowShift(Base, /*PartIndex=*/0, 1);
  EXPECT_NE(cfg::fingerprintConfig(Shifted), cfg::fingerprintConfig(Base));
  EXPECT_NE(cfg::fingerprintComponent(Shifted, L),
            cfg::fingerprintComponent(Base, L));
  EXPECT_EQ(cfg::fingerprintShape(Shifted), cfg::fingerprintShape(Base));

  // A zero-magnitude shift is the identity on every key.
  cfg::Config Same = analysis::withWindowShift(Base, /*PartIndex=*/0, 0);
  EXPECT_EQ(cfg::fingerprintConfig(Same), cfg::fingerprintConfig(Base));
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
