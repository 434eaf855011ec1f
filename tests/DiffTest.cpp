//===- tests/DiffTest.cpp - Differential-testing harness tests -------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `difftest` label: the acceptance gate of the differential-testing
/// subsystem. Asserts (1) the fixed-seed 200-configuration campaign is
/// clean, (2) every implemented fault-injection class is detected by the
/// online invariant checker, (3) the checker is a pure observer (the
/// trace with the checker attached is byte-identical to the trace
/// without), (4) the shrinker's output is 1-minimal, (5) reproducer
/// bundles round-trip through XML and replay deterministically, (6) the
/// XML parser enforces its ParseLimits with structured errors, and
/// (7) writeConfigXml/parseConfigXml is a byte fixed point over the
/// adversarial generator's whole output distribution.
///
//===----------------------------------------------------------------------===//

#include "configio/ConfigXml.h"
#include "core/InstanceBuilder.h"
#include "difftest/Campaign.h"
#include "difftest/Oracles.h"
#include "difftest/Reproducer.h"
#include "difftest/Shrink.h"
#include "config/Decompose.h"
#include "difftest/TraceInvariants.h"
#include "gen/Adversarial.h"
#include "gen/Workload.h"
#include "nsa/Event.h"
#include "nsa/JsonlSink.h"
#include "nsa/Simulator.h"
#include "support/Rng.h"
#include "tests/TestConfigs.h"
#include "xml/Xml.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include <sys/wait.h>

using namespace swa;

namespace {

//===----------------------------------------------------------------------===//
// Campaign: the fixed-seed acceptance gate.
//===----------------------------------------------------------------------===//

TEST(DiffCampaign, FixedSeed200ConfigsClean) {
  difftest::CampaignOptions Options;
  Options.Seed = 20260806;
  Options.NumConfigs = 200;
  difftest::CampaignResult Res = difftest::runCampaign(Options);

  for (const difftest::CampaignMismatch &M : Res.Mismatches)
    ADD_FAILURE() << "config " << M.ConfigIndex << " (seed " << M.ConfigSeed
                  << ") pair=" << difftest::oraclePairName(M.Finding.Pair)
                  << "\n  expected: " << M.Finding.Expected
                  << "\n  actual:   " << M.Finding.Actual
                  << "\n  detail:   " << M.Finding.Detail;
  EXPECT_TRUE(Res.clean());

  // The draw distribution must actually exercise the harness: valid
  // configurations through the oracles, invalid ones (zero-WCET mutants)
  // through the clean-rejection assertion, and mutated XML into the
  // parser.
  EXPECT_EQ(Res.ConfigsRun + Res.RejectedConfigs, 200);
  EXPECT_GT(Res.ConfigsRun, 100);
  EXPECT_GT(Res.RejectedConfigs, 0);
  EXPECT_GT(Res.OraclePairsRun, Res.ConfigsRun); // > one pair per config.
  EXPECT_EQ(Res.XmlDocsFuzzed, 200 * 4);
}

TEST(DiffCampaign, SensitivitySlackGateOnFixedSeed100) {
  // The slack-certificate acceptance gate: on a fixed-seed 100-config
  // campaign, every decided per-task WCET slack must be certified by
  // fresh full runs — schedulable at the reported slack, verdict flipped
  // one tolerance past it (the sensitivity-slack pair asserts exactly
  // this, config by config).
  difftest::CampaignOptions Options;
  Options.Seed = 20260808;
  Options.NumConfigs = 100;
  Options.XmlFuzzPerConfig = 0; // this gate is about the oracle pairs
  difftest::CampaignResult Res = difftest::runCampaign(Options);

  for (const difftest::CampaignMismatch &M : Res.Mismatches)
    ADD_FAILURE() << "config " << M.ConfigIndex << " (seed " << M.ConfigSeed
                  << ") pair=" << difftest::oraclePairName(M.Finding.Pair)
                  << "\n  expected: " << M.Finding.Expected
                  << "\n  actual:   " << M.Finding.Actual
                  << "\n  detail:   " << M.Finding.Detail;
  EXPECT_TRUE(Res.clean());
  EXPECT_GT(Res.ConfigsRun, 50);

  // Prove the pair itself was exercised, not just gated away: the same
  // campaign with the pair disabled runs strictly fewer oracle pairs.
  Options.Oracle.EnableSensitivity = false;
  difftest::CampaignResult Without = difftest::runCampaign(Options);
  EXPECT_TRUE(Without.clean());
  EXPECT_GT(Res.OraclePairsRun, Without.OraclePairsRun);
}

TEST(DiffCampaign, DeterministicInSeed) {
  difftest::CampaignOptions Options;
  Options.Seed = 7;
  Options.NumConfigs = 20;
  difftest::CampaignResult A = difftest::runCampaign(Options);
  difftest::CampaignResult B = difftest::runCampaign(Options);
  EXPECT_EQ(A.ConfigsRun, B.ConfigsRun);
  EXPECT_EQ(A.RejectedConfigs, B.RejectedConfigs);
  EXPECT_EQ(A.OraclePairsRun, B.OraclePairsRun);
  EXPECT_EQ(A.Mismatches.size(), B.Mismatches.size());
}

//===----------------------------------------------------------------------===//
// Fault injection: the checker self-test. Every fault class must stop the
// run with StopReason::InvariantViolation; without a fault the same
// configuration must complete with zero violations.
//===----------------------------------------------------------------------===//

nsa::SimResult runWithFault(const core::BuiltModel &Model,
                            difftest::TraceInvariantChecker &Checker,
                            nsa::FaultPlan *Fault) {
  nsa::SimOptions Options;
  Options.Observer = &Checker;
  Options.Fault = Fault;
  nsa::Simulator Sim(*Model.Net);
  return Sim.run(Options);
}

TEST(DiffFaultInjection, CleanRunHasNoViolations) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::preemptionShowcase());
  ASSERT_TRUE(Model.ok());
  difftest::TraceInvariantChecker Checker(*Model);
  nsa::SimResult Res = runWithFault(*Model, Checker, nullptr);
  EXPECT_EQ(Res.Stop, nsa::StopReason::Completed) << Res.Error;
  EXPECT_GT(Checker.stats().StepsChecked, 0u);
  EXPECT_GT(Checker.stats().FinsChecked, 0u);
}

TEST(DiffFaultInjection, FlipVariableDetected) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::preemptionShowcase());
  ASSERT_TRUE(Model.ok());
  difftest::TraceInvariantChecker Checker(*Model);
  nsa::FaultPlan Fault;
  Fault.FaultKind = nsa::FaultPlan::Kind::FlipVariable;
  Fault.AtAction = 2;
  Fault.Index = 0; // is_ready[0]: the scheduler reads it every decision.
  Fault.Delta = 1;
  nsa::SimResult Res = runWithFault(*Model, Checker, &Fault);
  EXPECT_TRUE(Fault.Fired);
  EXPECT_EQ(Res.Stop, nsa::StopReason::InvariantViolation);
  EXPECT_NE(Res.Error.find("trace invariant violated"), std::string::npos)
      << Res.Error;
}

TEST(DiffFaultInjection, SkewClockDetected) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::preemptionShowcase());
  ASSERT_TRUE(Model.ok());
  difftest::TraceInvariantChecker Checker(*Model);
  nsa::FaultPlan Fault;
  Fault.FaultKind = nsa::FaultPlan::Kind::SkewClock;
  Fault.AtAction = 2;
  Fault.Index = 0; // The first task's period clock.
  Fault.Delta = 3;
  nsa::SimResult Res = runWithFault(*Model, Checker, &Fault);
  EXPECT_TRUE(Fault.Fired);
  EXPECT_EQ(Res.Stop, nsa::StopReason::InvariantViolation);
}

TEST(DiffFaultInjection, SkipSyncDetected) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::preemptionShowcase());
  ASSERT_TRUE(Model.ok());

  // Find the first binary sync action of the clean run, so the skip
  // targets an action that really has a receiver to drop. The observer
  // sees every applied step, internal ones included, so its count is the
  // 1-based action count AtAction expects. The fixture has no virtual
  // links, so any one-receiver sync is binary (its broadcast sends have
  // zero receivers).
  struct FirstBinarySync : nsa::RunObserver {
    uint64_t Steps = 0;
    uint64_t Target = 0;
    std::string onStep(const nsa::State &, const nsa::Step &St,
                       const std::vector<int32_t> &) override {
      ++Steps;
      if (Target == 0 && St.Initiator.ChanId >= 0 &&
          St.Receivers.size() == 1)
        Target = Steps;
      return {};
    }
  } Finder;
  nsa::SimOptions Probe;
  Probe.Observer = &Finder;
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult Clean = Sim.run(Probe);
  ASSERT_EQ(Clean.Stop, nsa::StopReason::Completed);
  uint64_t Target = Finder.Target;
  ASSERT_GT(Target, 0u) << "trace has no binary sync to skip";

  difftest::TraceInvariantChecker Checker(*Model);
  nsa::FaultPlan Fault;
  Fault.FaultKind = nsa::FaultPlan::Kind::SkipSync;
  Fault.AtAction = Target;
  nsa::SimResult Res = runWithFault(*Model, Checker, &Fault);
  EXPECT_TRUE(Fault.Fired);
  EXPECT_EQ(Res.Stop, nsa::StopReason::InvariantViolation);
  EXPECT_NE(Res.Error.find("receiver"), std::string::npos) << Res.Error;
}

TEST(DiffFaultInjection, EveryFaultClassDetectedOnCampaignConfigs) {
  // The self-test must hold on generator output, not just fixtures: draw
  // valid adversarial configurations and inject each fault class.
  Rng R(99);
  int Tested = 0;
  for (int Draw = 0; Draw < 40 && Tested < 5; ++Draw) {
    cfg::Config C = gen::adversarialConfig(R);
    if (C.validate()) // Error: invalid draw (e.g. a zero-WCET mutant).
      continue;
    Result<core::BuiltModel> Model = core::buildModel(C);
    if (!Model.ok())
      continue;
    // Clean baseline first: skip configurations whose clean run does not
    // complete (guard rails) — fault detection is only meaningful there.
    {
      difftest::TraceInvariantChecker Checker(*Model);
      nsa::SimResult Res = runWithFault(*Model, Checker, nullptr);
      if (Res.Stop != nsa::StopReason::Completed || Res.ActionCount < 4)
        continue;
    }
    for (nsa::FaultPlan::Kind Kind : {nsa::FaultPlan::Kind::FlipVariable,
                                      nsa::FaultPlan::Kind::SkewClock}) {
      difftest::TraceInvariantChecker Checker(*Model);
      nsa::FaultPlan Fault;
      Fault.FaultKind = Kind;
      Fault.AtAction = 2;
      Fault.Index = 0;
      Fault.Delta = 7;
      nsa::SimResult Res = runWithFault(*Model, Checker, &Fault);
      if (!Fault.Fired)
        continue;
      EXPECT_EQ(Res.Stop, nsa::StopReason::InvariantViolation)
          << nsa::faultKindName(Kind) << " undetected on config '" << C.Name
          << "'";
    }
    ++Tested;
  }
  EXPECT_GT(Tested, 0);
}

//===----------------------------------------------------------------------===//
// Checker purity: attaching the checker must not change the run.
//===----------------------------------------------------------------------===//

TEST(DiffChecker, AttachedCheckerLeavesTraceByteIdentical) {
  for (const cfg::Config &C :
       {testcfg::twoTasksOneCore(), testcfg::preemptionShowcase(),
        testcfg::twoPartitionsWindows()}) {
    Result<core::BuiltModel> Model = core::buildModel(C);
    ASSERT_TRUE(Model.ok());

    nsa::SimOptions Plain;
    Plain.RecordTrace = true;
    nsa::Simulator SimA(*Model->Net);
    nsa::SimResult Without = SimA.run(Plain);

    difftest::TraceInvariantChecker Checker(*Model);
    nsa::SimOptions Checked = Plain;
    Checked.Observer = &Checker;
    nsa::Simulator SimB(*Model->Net);
    nsa::SimResult With = SimB.run(Checked);

    EXPECT_EQ(Without.Stop, With.Stop);
    EXPECT_EQ(Without.ActionCount, With.ActionCount);
    EXPECT_TRUE(nsa::syncTracesEqual(Without.Events, With.Events))
        << "checker perturbed the trace of '" << C.Name << "'";
    EXPECT_TRUE(Without.Final == With.Final);
  }
}

//===----------------------------------------------------------------------===//
// Shrinker: 1-minimality under a planted discrepancy predicate.
//===----------------------------------------------------------------------===//

/// Planted predicate: "at least two tasks with priority 7 exist". Purely
/// structural, so minimality is easy to state: the 1-minimal reproducers
/// are exactly the valid configurations with two priority-7 tasks and
/// nothing else removable.
bool hasTwoPrioritySevenTasks(const cfg::Config &C) {
  int Found = 0;
  for (const cfg::Partition &P : C.Partitions)
    for (const cfg::Task &T : P.Tasks)
      if (T.Priority == 7)
        ++Found;
  return Found >= 2;
}

cfg::Config plantedShrinkSeed() {
  cfg::Config C;
  C.Name = "planted";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"c0", 0, 0});
  C.Cores.push_back({"c1", 0, 0});
  cfg::Partition P0;
  P0.Name = "p0";
  P0.Core = 0;
  P0.Windows.push_back({0, 40});
  P0.Tasks.push_back({"a", 7, {4}, 40, 40});
  P0.Tasks.push_back({"b", 3, {4}, 40, 40});
  P0.Tasks.push_back({"c", 7, {4}, 20, 20});
  cfg::Partition P1;
  P1.Name = "p1";
  P1.Core = 1;
  P1.Windows.push_back({0, 40});
  P1.Tasks.push_back({"d", 5, {4}, 40, 40});
  P1.Tasks.push_back({"e", 2, {4}, 40, 40});
  C.Partitions.push_back(std::move(P0));
  C.Partitions.push_back(std::move(P1));
  C.Messages.push_back({{0, 0}, {0, 1}, 1, 2});
  C.Messages.push_back({{1, 0}, {1, 1}, 1, 2});
  return C;
}

TEST(DiffShrink, PlantedPredicateShrinksToOneMinimal) {
  cfg::Config Seed = plantedShrinkSeed();
  ASSERT_FALSE(Seed.validate());
  ASSERT_TRUE(hasTwoPrioritySevenTasks(Seed));

  difftest::ShrinkStats Stats;
  cfg::Config Min = difftest::shrinkConfig(
      Seed, hasTwoPrioritySevenTasks, &Stats);

  // The shrunk configuration still validates and still reproduces.
  EXPECT_FALSE(Min.validate());
  EXPECT_TRUE(hasTwoPrioritySevenTasks(Min));
  EXPECT_GT(Stats.CandidatesTried, 0);
  EXPECT_GT(Stats.CandidatesAccepted, 0);

  // The irrelevant partition, its tasks and both messages must be gone;
  // exactly the two priority-7 tasks survive.
  EXPECT_EQ(Min.Partitions.size(), 1u);
  EXPECT_TRUE(Min.Messages.empty());
  size_t Tasks = 0;
  for (const cfg::Partition &P : Min.Partitions)
    Tasks += P.Tasks.size();
  EXPECT_EQ(Tasks, 2u);

  // 1-minimality at element granularity: removing any single task,
  // partition or message either invalidates the configuration or loses
  // the discrepancy.
  for (size_t P = 0; P < Min.Partitions.size(); ++P) {
    cfg::Config Sub = difftest::removePartition(Min, static_cast<int>(P));
    EXPECT_TRUE(Sub.validate() || !hasTwoPrioritySevenTasks(Sub))
        << "dropping partition " << P << " still reproduces";
    for (size_t T = 0; T < Min.Partitions[P].Tasks.size(); ++T) {
      cfg::Config Cand = difftest::removeTask(Min, static_cast<int>(P),
                                              static_cast<int>(T));
      EXPECT_TRUE(Cand.validate() || !hasTwoPrioritySevenTasks(Cand))
          << "dropping task (" << P << "," << T << ") still reproduces";
    }
  }
  for (size_t M = 0; M < Min.Messages.size(); ++M) {
    cfg::Config Cand = difftest::removeMessage(Min, static_cast<int>(M));
    EXPECT_TRUE(Cand.validate() || !hasTwoPrioritySevenTasks(Cand))
        << "dropping message " << M << " still reproduces";
  }
}

TEST(DiffShrink, RemovalHelpersFixUpMessageIndices) {
  cfg::Config C = plantedShrinkSeed();
  // Dropping partition 0 must drop its message and re-index the other.
  cfg::Config NoP0 = difftest::removePartition(C, 0);
  ASSERT_EQ(NoP0.Messages.size(), 1u);
  EXPECT_EQ(NoP0.Messages[0].Sender.Partition, 0);
  EXPECT_EQ(NoP0.Messages[0].Receiver.Partition, 0);
  // Dropping task (0,0) must drop the message touching it and keep the
  // other untouched.
  cfg::Config NoT = difftest::removeTask(C, 0, 0);
  ASSERT_EQ(NoT.Messages.size(), 1u);
  EXPECT_EQ(NoT.Messages[0].Sender.Partition, 1);
}

//===----------------------------------------------------------------------===//
// Reproducer bundles: XML round trip and deterministic replay.
//===----------------------------------------------------------------------===//

TEST(DiffReproducer, XmlRoundTripPreservesEveryField) {
  difftest::Reproducer R;
  R.Config = testcfg::twoTasksOneCore();
  R.Seed = 12850353245904161967ULL; // > int64 max: seeds are uint64.
  R.Pair = difftest::OraclePair::SimVsMc;
  R.Expected = "1 distinct final state";
  R.Actual = "2 distinct final states";
  R.Detail = "planted <detail> with &special; characters";
  R.HasFault = true;
  R.Fault.FaultKind = nsa::FaultPlan::Kind::SkewClock;
  R.Fault.AtAction = 17;
  R.Fault.Index = 3;
  R.Fault.Delta = -2;

  std::string Doc = difftest::writeReproducerXml(R);
  Result<difftest::Reproducer> Back = difftest::parseReproducerXml(Doc);
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  EXPECT_EQ(Back->Seed, R.Seed);
  EXPECT_EQ(Back->Pair, R.Pair);
  EXPECT_EQ(Back->Expected, R.Expected);
  EXPECT_EQ(Back->Actual, R.Actual);
  EXPECT_EQ(Back->Detail, R.Detail);
  EXPECT_TRUE(Back->HasFault);
  EXPECT_EQ(Back->Fault.FaultKind, R.Fault.FaultKind);
  EXPECT_EQ(Back->Fault.AtAction, R.Fault.AtAction);
  EXPECT_EQ(Back->Fault.Index, R.Fault.Index);
  EXPECT_EQ(Back->Fault.Delta, R.Fault.Delta);
  EXPECT_EQ(difftest::writeReproducerXml(*Back), Doc);
}

TEST(DiffReproducer, FaultBundleReplaysDeterministically) {
  // Record a real fault run, bundle it, replay it twice: the replay must
  // report the same expected/actual pair every time.
  cfg::Config C = testcfg::preemptionShowcase();
  Result<core::BuiltModel> Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok());
  difftest::TraceInvariantChecker Checker(*Model);
  nsa::FaultPlan Fault;
  Fault.FaultKind = nsa::FaultPlan::Kind::FlipVariable;
  Fault.AtAction = 2;
  Fault.Index = 0;
  Fault.Delta = 1;
  nsa::SimResult Res = runWithFault(*Model, Checker, &Fault);
  ASSERT_EQ(Res.Stop, nsa::StopReason::InvariantViolation);

  difftest::Reproducer R;
  R.Config = C;
  R.Seed = 42;
  R.Pair = difftest::OraclePair::TraceInvariants;
  R.Expected = "completed";
  R.Actual = nsa::stopReasonName(Res.Stop);
  R.HasFault = true;
  R.Fault = Fault;

  std::string Doc = difftest::writeReproducerXml(R);
  Result<difftest::Reproducer> Back = difftest::parseReproducerXml(Doc);
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  for (int I = 0; I < 2; ++I) {
    Result<difftest::ReplayOutcome> Out = difftest::replayReproducer(*Back);
    ASSERT_TRUE(Out.ok()) << Out.error().message();
    EXPECT_TRUE(Out->Reproduced)
        << "expected '" << Out->Expected << "' actual '" << Out->Actual
        << "'";
    EXPECT_EQ(Out->Actual, "invariant-violation");
  }
}

TEST(DiffReproducer, CleanConfigDoesNotReproduce) {
  difftest::Reproducer R;
  R.Config = testcfg::twoTasksOneCore();
  R.Pair = difftest::OraclePair::VmVsInterpreter;
  R.Expected = "identical sync traces";
  R.Actual = "traces differ";
  Result<difftest::ReplayOutcome> Out = difftest::replayReproducer(R);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_FALSE(Out->Reproduced);
}

//===----------------------------------------------------------------------===//
// Oracles on known-good fixtures.
//===----------------------------------------------------------------------===//

TEST(DiffOracles, FixturesAreCleanAcrossAllPairs) {
  for (const cfg::Config &C :
       {testcfg::twoTasksOneCore(), testcfg::overloadedOneCore(),
        testcfg::preemptionShowcase(), testcfg::twoPartitionsWindows()}) {
    difftest::OracleReport Rep = difftest::runOracles(C);
    EXPECT_TRUE(Rep.SkipReason.empty()) << C.Name << ": " << Rep.SkipReason;
    for (const difftest::Discrepancy &D : Rep.Mismatches)
      ADD_FAILURE() << C.Name << " pair="
                    << difftest::oraclePairName(D.Pair) << ": expected '"
                    << D.Expected << "' actual '" << D.Actual << "' ("
                    << D.Detail << ")";
    EXPECT_GE(Rep.PairsRun, 3); // invariants + vm/interp + round trip.
  }
}

TEST(DiffOracles, EarlyExitAndDecomposedPairsAreExercised) {
  // The adversarial campaign rarely produces decomposable configurations
  // (its window layouts are not component-periodic), so this fixed-seed
  // test guarantees both new oracle pairs actually run: message-free
  // industrial workloads decompose per core group, and the moderate/high
  // utilization pair covers a schedulable and an unschedulable subject.
  for (double Util : {0.35, 0.85}) {
    gen::IndustrialParams P;
    P.Modules = 2;
    P.CoresPerModule = 2;
    P.PartitionsPerCore = 2;
    P.CoreUtilization = Util;
    P.MessageProbability = 0.0;
    P.Seed = 5;
    cfg::Config C = gen::industrialConfig(P);
    ASSERT_FALSE(C.validate().isFailure());
    ASSERT_TRUE(cfg::decomposeConfig(C).Decomposed) << "util " << Util;

    difftest::OracleReport Rep = difftest::runOracles(C);
    EXPECT_TRUE(Rep.SkipReason.empty()) << Rep.SkipReason;
    for (const difftest::Discrepancy &D : Rep.Mismatches)
      ADD_FAILURE() << "util " << Util << " pair="
                    << difftest::oraclePairName(D.Pair) << ": expected '"
                    << D.Expected << "' actual '" << D.Actual << "' ("
                    << D.Detail << ")";
    // invariants + vm/interp + round trip + early-exit + decomposed.
    EXPECT_GE(Rep.PairsRun, 5);
  }
}

//===----------------------------------------------------------------------===//
// XML parser hardening: ParseLimits as structured errors, never UB.
//===----------------------------------------------------------------------===//

TEST(DiffXmlLimits, NestingDepthIsBounded) {
  std::string Doc;
  for (int I = 0; I < 600; ++I)
    Doc += "<a>";
  for (int I = 0; I < 600; ++I)
    Doc += "</a>";
  Result<xml::NodePtr> R = xml::parse(Doc); // Default MaxDepth = 256.
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("depth"), std::string::npos)
      << R.error().message();

  xml::ParseLimits Deep;
  Deep.MaxDepth = 1000;
  EXPECT_TRUE(xml::parse(Doc, Deep).ok());
}

TEST(DiffXmlLimits, NameAndAttributeSizesAreBounded) {
  xml::ParseLimits Tight;
  Tight.MaxNameLength = 8;
  Tight.MaxAttrValueLength = 8;
  Tight.MaxAttrsPerElement = 2;

  EXPECT_FALSE(xml::parse("<averylongelementname/>", Tight).ok());
  EXPECT_FALSE(xml::parse("<a v=\"0123456789abcdef\"/>", Tight).ok());
  EXPECT_FALSE(xml::parse("<a x=\"1\" y=\"2\" z=\"3\"/>", Tight).ok());
  EXPECT_TRUE(xml::parse("<a x=\"1\" y=\"2\"/>", Tight).ok());
}

TEST(DiffXmlLimits, TextAccumulationIsBounded) {
  // The cap is document-wide: one small text node passes, two whose sum
  // exceeds the budget fail.
  xml::ParseLimits Tight;
  Tight.MaxTextLength = 16;
  EXPECT_TRUE(xml::parse("<a>0123456789</a>", Tight).ok());
  EXPECT_FALSE(
      xml::parse("<a><b>0123456789</b><c>0123456789</c></a>", Tight).ok());
}

TEST(DiffXmlLimits, HugeCharacterReferencesAreRejected) {
  // Would overflow a naive accumulator; must be a structured error.
  Result<xml::NodePtr> R =
      xml::parse("<a>&#99999999999999999999999999;</a>");
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(xml::parse("<a>&#x7FFFFFFFFFFFFFFFF;</a>").ok());
  // Sane references still work.
  Result<xml::NodePtr> Ok = xml::parse("<a>&#65;</a>");
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ((*Ok)->Text, "A");
}

TEST(DiffXmlLimits, TruncatedDocumentsFailCleanly) {
  const char *Doc = "<cfg a=\"1\"><p w=\"2\"><t/></p></cfg>";
  std::string Full(Doc);
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    std::string Prefix = Full.substr(0, Cut);
    Result<xml::NodePtr> R = xml::parse(Prefix);
    if (R.ok())
      FAIL() << "truncated prefix parsed: '" << Prefix << "'";
  }
  EXPECT_TRUE(xml::parse(Full).ok());
}

//===----------------------------------------------------------------------===//
// configio round trip: writeXml(parseXml(cfg)) is a byte fixed point.
//===----------------------------------------------------------------------===//

void expectRoundTripFixedPoint(const cfg::Config &C,
                               const std::string &Label) {
  std::string Doc = configio::writeConfigXml(C);
  Result<cfg::Config> Back = configio::parseConfigXml(Doc);
  ASSERT_TRUE(Back.ok()) << Label << ": " << Back.error().message();
  EXPECT_EQ(configio::writeConfigXml(*Back), Doc)
      << Label << ": round trip is not a fixed point";
}

TEST(DiffConfigIo, GeneratorOutputRoundTripsByteExact) {
  Rng R(20260806);
  int Valid = 0, Rejected = 0;
  for (int I = 0; I < 100; ++I) {
    cfg::Config C = gen::adversarialConfig(R);
    if (C.validate()) {
      // Invalid draws (zero-WCET mutants) must be *cleanly* rejected by
      // the parser too — with a structured error, not a crash.
      Result<cfg::Config> Back =
          configio::parseConfigXml(configio::writeConfigXml(C));
      EXPECT_FALSE(Back.ok());
      if (!Back.ok())
        EXPECT_FALSE(Back.error().message().empty());
      ++Rejected;
      continue;
    }
    expectRoundTripFixedPoint(C, "draw " + std::to_string(I));
    ++Valid;
  }
  EXPECT_GT(Valid, 50);
  EXPECT_GT(Rejected, 0);
}

TEST(DiffConfigIo, UnboundPartitionsAndMessagesRoundTrip) {
  cfg::Config C = plantedShrinkSeed();
  C.Partitions[1].Core = -1; // core="unbound" marker in the XML.
  C.Partitions[1].Windows.clear();
  expectRoundTripFixedPoint(C, "unbound");

  Result<cfg::Config> Back =
      configio::parseConfigXml(configio::writeConfigXml(C));
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->Partitions[1].Core, -1);
  ASSERT_EQ(Back->Messages.size(), 2u);
  EXPECT_EQ(Back->Messages[1].Receiver.Partition, 1);
  EXPECT_EQ(Back->Messages[1].NetDelay, 2);
}

//===----------------------------------------------------------------------===//
// Crash-safe trace sink: an end record on every exit path.
//===----------------------------------------------------------------------===//

std::string lastNonEmptyLine(const std::string &S) {
  size_t End = S.find_last_not_of('\n');
  if (End == std::string::npos)
    return {};
  size_t Start = S.rfind('\n', End);
  return S.substr(Start == std::string::npos ? 0 : Start + 1,
                  End - (Start == std::string::npos ? 0 : Start + 1) + 1);
}

TEST(DiffTraceSink, EndRecordSealsCompletedRuns) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok());
  std::ostringstream OS;
  nsa::JsonlSink Sink(OS);
  nsa::SimOptions Options;
  Options.Observer = &Sink;
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult Res = Sim.run(Options);
  ASSERT_EQ(Res.Stop, nsa::StopReason::Completed);

  std::string Last = lastNonEmptyLine(OS.str());
  EXPECT_NE(Last.find("\"k\":\"end\""), std::string::npos) << Last;
  EXPECT_NE(Last.find("completed"), std::string::npos) << Last;
  EXPECT_GT(Sink.linesWritten(), 1u);
}

TEST(DiffTraceSink, EndRecordSealsGuardRailAborts) {
  Result<core::BuiltModel> Model =
      core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok());
  std::ostringstream OS;
  nsa::JsonlSink Sink(OS);
  nsa::SimOptions Options;
  Options.Observer = &Sink;
  Options.MaxActions = 3; // Force a mid-run abort.
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult Res = Sim.run(Options);
  ASSERT_EQ(Res.Stop, nsa::StopReason::MaxActions);

  std::string Last = lastNonEmptyLine(OS.str());
  EXPECT_NE(Last.find("\"k\":\"end\""), std::string::npos) << Last;
  EXPECT_NE(Last.find("max-actions"), std::string::npos) << Last;
}

} // namespace

//===----------------------------------------------------------------------===//
// The campaign CLI (SWA_DIFFTEST_CAMPAIGN_BIN, a build-time path).
//===----------------------------------------------------------------------===//

#ifdef SWA_DIFFTEST_CAMPAIGN_BIN
TEST(DiffCampaignCli, RejectsMalformedNumbers) {
  // A malformed, signed or out-of-range number must not become a default
  // or a prefix: usage on stderr and exit 1 before any configuration runs
  // (stdout stays empty — no "campaign:" line that a gate could read as
  // clean). Each case pins --configs 1 where it is not the flag under
  // test, so a binary that does accept the bad value stays quick.
  for (const char *Args :
       {"--configs abc", "--configs 2OO", "--configs 0", "--configs -1",
        "--configs 99999999999999999999", "--configs", "--seed x --configs 1",
        "--seed -1 --configs 1", "--seed 99999999999999999999 --configs 1",
        "--budget-ms -5 --configs 1", "--budget-ms 1e3 --configs 1",
        "--confgs 1"}) {
    std::string Cmd =
        std::string(SWA_DIFFTEST_CAMPAIGN_BIN) + " " + Args + " 2>/dev/null";
    FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(P, nullptr) << Args;
    std::string Out;
    char Buf[256];
    while (size_t N = fread(Buf, 1, sizeof Buf, P))
      Out.append(Buf, N);
    int Status = pclose(P);
    ASSERT_TRUE(WIFEXITED(Status)) << Args;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Args;
    EXPECT_EQ(Out, "") << Args;
  }
}
#endif // SWA_DIFFTEST_CAMPAIGN_BIN

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
