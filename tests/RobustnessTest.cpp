//===- tests/RobustnessTest.cpp - Malformed-input torture tests ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The robustness contract: every malformed or adversarial input —
// overflowing periods, coprime-period hyperperiod bombs, negative and
// zero-length windows, truncated XML — produces a structured Error in
// every build mode, never undefined behaviour. This suite is the one to
// run under -DSWA_SANITIZE=undefined (`ctest -L robust`), where any
// signed-overflow escape hatch aborts the test instead of silently
// wrapping.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "configio/ConfigXml.h"
#include "core/InstanceBuilder.h"
#include "gen/Workload.h"
#include "nsa/Simulator.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "support/CancelToken.h"
#include "support/MathExtras.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

using namespace swa;

namespace {

constexpr int64_t IntMax = std::numeric_limits<int64_t>::max();
constexpr int64_t IntMin = std::numeric_limits<int64_t>::min();

} // namespace

//===----------------------------------------------------------------------===//
// Checked time arithmetic (support/MathExtras.h)
//===----------------------------------------------------------------------===//

TEST(CheckedMath, AddHappyPathAndOverflow) {
  auto Ok = checkedAdd(40, 2);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);

  auto Over = checkedAdd(IntMax, 1);
  ASSERT_FALSE(Over.ok());
  EXPECT_NE(Over.error().message().find("overflow"), std::string::npos);

  auto Under = checkedAdd(IntMin, -1);
  EXPECT_FALSE(Under.ok());

  // The extremes themselves are fine as long as the sum fits.
  auto Edge = checkedAdd(IntMax, 0);
  ASSERT_TRUE(Edge.ok());
  EXPECT_EQ(*Edge, IntMax);
}

TEST(CheckedMath, MulHappyPathAndOverflow) {
  auto Ok = checkedMul(6, 7);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);

  auto Over = checkedMul(IntMax / 2 + 1, 2);
  ASSERT_FALSE(Over.ok());
  EXPECT_NE(Over.error().message().find("overflow"), std::string::npos);

  // -1 * INT64_MIN is the classic non-obvious overflow.
  EXPECT_FALSE(checkedMul(IntMin, -1).ok());
}

TEST(CheckedMath, LcmDomainAndOverflow) {
  auto Ok = checkedLcm(4, 6);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 12);

  EXPECT_FALSE(checkedLcm(0, 5).ok());
  EXPECT_FALSE(checkedLcm(5, -3).ok());

  // Two large coprime values: lcm is their product, which overflows.
  auto Bomb = checkedLcm(IntMax, IntMax - 1);
  ASSERT_FALSE(Bomb.ok());
  EXPECT_NE(Bomb.error().message().find("lcm overflows"), std::string::npos);
}

TEST(CheckedMath, CeilDivDomainAndValues) {
  auto A = checkedCeilDiv(10, 3);
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(*A, 4);
  auto B = checkedCeilDiv(9, 3);
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(*B, 3);
  auto C = checkedCeilDiv(0, 7);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(*C, 0);

  EXPECT_FALSE(checkedCeilDiv(-1, 3).ok());
  EXPECT_FALSE(checkedCeilDiv(3, 0).ok());

  // The classic (A + B - 1) / B implementation would overflow here; the
  // division form must not (UBSan enforces this).
  auto Huge = checkedCeilDiv(IntMax, 2);
  ASSERT_TRUE(Huge.ok());
  EXPECT_EQ(*Huge, IntMax / 2 + 1);
}

TEST(CheckedMath, SaturatingTierClampsInsteadOfWrapping) {
  EXPECT_EQ(saturatingAdd(IntMax, 1), IntMax);
  EXPECT_EQ(saturatingAdd(IntMin, -1), IntMin);
  EXPECT_EQ(saturatingAdd(40, 2), 42);

  EXPECT_EQ(saturatingMul(IntMax, 2), IntMax);
  EXPECT_EQ(saturatingMul(IntMax, -2), IntMin);
  EXPECT_EQ(saturatingMul(IntMin, -1), IntMax);
  EXPECT_EQ(saturatingMul(-6, 7), -42);

  // lcm64 saturates rather than asserting or wrapping.
  EXPECT_EQ(lcm64(IntMax, IntMax - 1), IntMax);
  EXPECT_EQ(lcm64(4, 6), 12);
}

//===----------------------------------------------------------------------===//
// Hyperperiod overflow through config (tentpole satellite: the former
// assert(!Overflow) in lcm64 is now a structured error path)
//===----------------------------------------------------------------------===//

namespace {

/// A structurally plausible one-core configuration whose task periods are
/// the caller's choice — the hyperperiod bomb factory.
cfg::Config configWithPeriods(const std::vector<cfg::TimeValue> &Periods) {
  cfg::Config C;
  C.Name = "periods";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"m0c0", 0, 0});
  cfg::Partition P;
  P.Name = "p0";
  P.Core = 0;
  int Prio = static_cast<int>(Periods.size());
  for (size_t I = 0; I < Periods.size(); ++I) {
    cfg::Task T;
    T.Name = "t" + std::to_string(I);
    T.Priority = Prio--;
    T.Period = Periods[I];
    T.Deadline = Periods[I];
    T.Wcet = {1};
    P.Tasks.push_back(std::move(T));
  }
  C.Partitions.push_back(std::move(P));
  return C;
}

} // namespace

TEST(HyperperiodOverflow, ValidateRejectsCoprimeGiantPeriods) {
  // lcm(2^62, 2^62 - 1) overflows int64 (consecutive integers are coprime).
  cfg::Config C = configWithPeriods({int64_t(1) << 62, (int64_t(1) << 62) - 1});
  Error E = C.validate();
  ASSERT_TRUE(E.isFailure());
  // The diagnostic names the offending period.
  EXPECT_NE(E.message().find("hyperperiod overflows"), std::string::npos)
      << E.message();
  EXPECT_NE(E.message().find("4611686018427387903"), std::string::npos)
      << E.message();

  auto L = C.checkedHyperperiod();
  EXPECT_FALSE(L.ok());
  // The saturating accessor is defined (not UB) even for rejected configs.
  EXPECT_EQ(C.hyperperiod(), IntMax);
}

TEST(HyperperiodOverflow, ManySmallCoprimePrimesAlsoOverflow) {
  // A hyperperiod bomb of modest-looking periods: the product of these
  // primes exceeds int64 even though each fits in 32 bits.
  cfg::Config C = configWithPeriods(
      {2147483647, 2147483629, 2147483587, 2147483563});
  EXPECT_FALSE(C.checkedHyperperiod().ok());
  EXPECT_TRUE(C.validate().isFailure());
  EXPECT_FALSE(C.checkedJobCount().ok());
  // buildModel validates first, so the bomb never reaches Algorithm 1.
  auto Model = core::buildModel(C);
  EXPECT_FALSE(Model.ok());
}

TEST(HyperperiodOverflow, ReleaseModeRegression) {
  // This test is the Release-mode regression from the issue: with the old
  // assert-based lcm64 the overflow was UB under NDEBUG. It must be a
  // structured Error in every build mode.
  cfg::Config C = configWithPeriods({(int64_t(1) << 61) + 1, int64_t(1) << 61});
  Error E = C.validate();
  ASSERT_TRUE(E.isFailure());
  EXPECT_NE(E.message().find("overflow"), std::string::npos) << E.message();
}

TEST(CheckedConfigAccessors, AgreeWithPlainOnesWhenInRange) {
  cfg::Config C = testcfg::twoTasksOneCore();
  auto L = C.checkedHyperperiod();
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, C.hyperperiod());
  EXPECT_EQ(*L, 20);
  auto Jobs = C.checkedJobCount();
  ASSERT_TRUE(Jobs.ok());
  EXPECT_EQ(*Jobs, C.jobCount());
  EXPECT_EQ(*Jobs, 3); // 20/10 + 20/20.
}

//===----------------------------------------------------------------------===//
// Window and structural torture via Config::validate
//===----------------------------------------------------------------------===//

TEST(WindowTorture, NegativeAndZeroLengthWindowsRejected) {
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Windows = {{-5, 10}};
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Windows = {{7, 7}}; // Zero-length.
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Windows = {{12, 4}}; // Inverted.
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Windows = {{0, 21}}; // Past the hyperperiod.
    Error E = C.validate();
    ASSERT_TRUE(E.isFailure());
    EXPECT_NE(E.message().find("hyperperiod"), std::string::npos);
  }
  {
    // Extreme bounds must not overflow any intermediate in validation.
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Windows = {{IntMin, IntMax}};
    EXPECT_TRUE(C.validate().isFailure());
  }
}

TEST(StructuralTorture, BadTasksAndBindingsRejected) {
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Tasks[0].Period = 0;
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Tasks[0].Period = -10;
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Tasks[0].Deadline = 0;
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Tasks[0].Wcet = {-3};
    EXPECT_TRUE(C.validate().isFailure());
  }
  {
    // An out-of-range binding is invalid under BOTH policies; only an
    // explicit Core == -1 is tolerated, and only under AllowUnbound.
    cfg::Config C = testcfg::twoTasksOneCore();
    C.Partitions[0].Core = 7;
    EXPECT_TRUE(C.validate().isFailure());
    EXPECT_TRUE(
        C.validate(cfg::ValidationPolicy::AllowUnbound).isFailure());
    C.Partitions[0].Core = -1;
    EXPECT_TRUE(C.validate().isFailure());
    EXPECT_FALSE(
        C.validate(cfg::ValidationPolicy::AllowUnbound).isFailure());
  }
}

//===----------------------------------------------------------------------===//
// XML torture through configio
//===----------------------------------------------------------------------===//

namespace {

std::string wrapConfig(const std::string &Body) {
  return "<configuration name=\"x\" coreTypes=\"1\">"
         "<core name=\"c\" module=\"0\" type=\"0\"/>" +
         Body + "</configuration>";
}

} // namespace

TEST(XmlTorture, TruncatedDocumentsAreParseErrors) {
  cfg::Config C = testcfg::producerConsumer();
  std::string Xml = configio::writeConfigXml(C);
  // Chop the serialized document at several depths; every prefix must be
  // rejected cleanly (half a root tag, mid-attribute, mid-element...).
  for (size_t Keep :
       {size_t(1), size_t(10), Xml.size() / 4, Xml.size() / 2,
        Xml.size() - 5}) {
    auto R = configio::parseConfigXml(Xml.substr(0, Keep));
    EXPECT_FALSE(R.ok()) << "prefix of " << Keep << " bytes parsed";
  }
  EXPECT_FALSE(configio::parseConfigXml("").ok());
  EXPECT_FALSE(configio::parseConfigXml("<configuration").ok());
}

TEST(XmlTorture, OverflowingPeriodsInXmlAreStructuredErrors) {
  // Periods that individually parse but whose lcm overflows: the parser's
  // validation pass must reject the document with the hyperperiod
  // diagnostic, not crash downstream.
  std::string Xml = wrapConfig(
      "<partition name=\"p\" core=\"c\">"
      "<task name=\"a\" priority=\"2\" period=\"4611686018427387904\" "
      "deadline=\"4611686018427387904\" wcet=\"1\"/>"
      "<task name=\"b\" priority=\"1\" period=\"4611686018427387903\" "
      "deadline=\"4611686018427387903\" wcet=\"1\"/>"
      "</partition>");
  auto R = configio::parseConfigXml(Xml);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("hyperperiod overflows"),
            std::string::npos)
      << R.error().message();

  // A period too large for int64 at all is an attribute parse error.
  std::string Huge = wrapConfig(
      "<partition name=\"p\" core=\"c\">"
      "<task name=\"a\" priority=\"1\" period=\"99999999999999999999\" "
      "deadline=\"10\" wcet=\"1\"/><window start=\"0\" end=\"10\"/>"
      "</partition>");
  EXPECT_FALSE(configio::parseConfigXml(Huge).ok());
}

TEST(XmlTorture, NegativeAndZeroWindowsInXmlRejected) {
  for (const char *Window :
       {"<window start=\"-3\" end=\"10\"/>", "<window start=\"5\" end=\"5\"/>",
        "<window start=\"9\" end=\"2\"/>"}) {
    std::string Xml = wrapConfig(
        std::string("<partition name=\"p\" core=\"c\">"
                    "<task name=\"t\" priority=\"1\" period=\"10\" "
                    "deadline=\"10\" wcet=\"1\"/>") +
        Window + "</partition>");
    EXPECT_FALSE(configio::parseConfigXml(Xml).ok()) << Window;
  }
}

TEST(XmlTorture, MalformedAttributesRejected) {
  // Non-integer period.
  EXPECT_FALSE(configio::parseConfigXml(
                   wrapConfig("<partition name=\"p\" core=\"c\">"
                              "<task name=\"t\" priority=\"1\" "
                              "period=\"ten\" deadline=\"10\" wcet=\"1\"/>"
                              "<window start=\"0\" end=\"10\"/>"
                              "</partition>"))
                   .ok());
  // Malformed wcet list.
  EXPECT_FALSE(configio::parseConfigXml(
                   wrapConfig("<partition name=\"p\" core=\"c\">"
                              "<task name=\"t\" priority=\"1\" "
                              "period=\"10\" deadline=\"10\" wcet=\"3 x\"/>"
                              "<window start=\"0\" end=\"10\"/>"
                              "</partition>"))
                   .ok());
  // Missing core binding: a parse error that points at the marker.
  auto Missing = configio::parseConfigXml(
      wrapConfig("<partition name=\"p\">"
                 "<task name=\"t\" priority=\"1\" period=\"10\" "
                 "deadline=\"10\" wcet=\"1\"/>"
                 "<window start=\"0\" end=\"10\"/>"
                 "</partition>"));
  ASSERT_FALSE(Missing.ok());
  EXPECT_NE(Missing.error().message().find("unbound"), std::string::npos)
      << Missing.error().message();
}

TEST(XmlTorture, UnboundIsAReservedCoreName) {
  auto R = configio::parseConfigXml(
      "<configuration name=\"x\" coreTypes=\"1\">"
      "<core name=\"unbound\" module=\"0\" type=\"0\"/>"
      "<partition name=\"p\" core=\"unbound\">"
      "<task name=\"t\" priority=\"1\" period=\"10\" deadline=\"10\" "
      "wcet=\"1\"/><window start=\"0\" end=\"10\"/>"
      "</partition></configuration>");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("reserved"), std::string::npos)
      << R.error().message();
}

//===----------------------------------------------------------------------===//
// Round-trip: read(write(C)) == C, including unbound search inputs
//===----------------------------------------------------------------------===//

namespace {

void expectConfigsEqual(const cfg::Config &A, const cfg::Config &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.NumCoreTypes, B.NumCoreTypes);
  ASSERT_EQ(A.Cores.size(), B.Cores.size());
  for (size_t C = 0; C < A.Cores.size(); ++C) {
    EXPECT_EQ(A.Cores[C].Name, B.Cores[C].Name);
    EXPECT_EQ(A.Cores[C].Module, B.Cores[C].Module);
    EXPECT_EQ(A.Cores[C].CoreType, B.Cores[C].CoreType);
  }
  ASSERT_EQ(A.Partitions.size(), B.Partitions.size());
  for (size_t P = 0; P < A.Partitions.size(); ++P) {
    const cfg::Partition &PA = A.Partitions[P];
    const cfg::Partition &PB = B.Partitions[P];
    EXPECT_EQ(PA.Name, PB.Name);
    EXPECT_EQ(PA.Scheduler, PB.Scheduler);
    EXPECT_EQ(PA.Core, PB.Core);
    ASSERT_EQ(PA.Tasks.size(), PB.Tasks.size());
    for (size_t T = 0; T < PA.Tasks.size(); ++T) {
      EXPECT_EQ(PA.Tasks[T].Name, PB.Tasks[T].Name);
      EXPECT_EQ(PA.Tasks[T].Priority, PB.Tasks[T].Priority);
      EXPECT_EQ(PA.Tasks[T].Wcet, PB.Tasks[T].Wcet);
      EXPECT_EQ(PA.Tasks[T].Period, PB.Tasks[T].Period);
      EXPECT_EQ(PA.Tasks[T].Deadline, PB.Tasks[T].Deadline);
    }
    ASSERT_EQ(PA.Windows.size(), PB.Windows.size());
    for (size_t W = 0; W < PA.Windows.size(); ++W) {
      EXPECT_EQ(PA.Windows[W].Start, PB.Windows[W].Start);
      EXPECT_EQ(PA.Windows[W].End, PB.Windows[W].End);
    }
  }
  ASSERT_EQ(A.Messages.size(), B.Messages.size());
  for (size_t M = 0; M < A.Messages.size(); ++M) {
    EXPECT_TRUE(A.Messages[M].Sender == B.Messages[M].Sender);
    EXPECT_TRUE(A.Messages[M].Receiver == B.Messages[M].Receiver);
    EXPECT_EQ(A.Messages[M].MemDelay, B.Messages[M].MemDelay);
    EXPECT_EQ(A.Messages[M].NetDelay, B.Messages[M].NetDelay);
  }
}

} // namespace

TEST(RoundTrip, UnboundSearchInputSurvivesWriteRead) {
  // The shape the config search consumes: generated workload with all
  // bindings and windows stripped. This used to fail on read because the
  // writer silently dropped the core attribute.
  for (uint64_t Seed : {1u, 7u, 23u}) {
    gen::IndustrialParams Params;
    Params.Modules = 2;
    Params.CoresPerModule = 2;
    Params.PartitionsPerCore = 2;
    Params.CoreUtilization = 0.5;
    Params.Seed = Seed;
    cfg::Config C = gen::industrialConfig(Params);
    for (cfg::Partition &P : C.Partitions) {
      P.Core = -1;
      P.Windows.clear();
    }
    std::string Xml = configio::writeConfigXml(C);
    // The marker is explicit in the document.
    EXPECT_NE(Xml.find("core=\"unbound\""), std::string::npos);
    auto Back = configio::parseConfigXml(Xml);
    ASSERT_TRUE(Back.ok()) << Back.error().message();
    expectConfigsEqual(C, *Back);
  }
}

TEST(RoundTrip, MixedBoundAndUnboundPartitions) {
  cfg::Config C = testcfg::producerConsumer();
  C.Partitions[1].Core = -1; // Unbind just the consumer.
  C.Partitions[1].Windows.clear();
  std::string Xml = configio::writeConfigXml(C);
  auto Back = configio::parseConfigXml(Xml);
  ASSERT_TRUE(Back.ok()) << Back.error().message();
  expectConfigsEqual(C, *Back);
  EXPECT_EQ(Back->Partitions[0].Core, 0);
  EXPECT_EQ(Back->Partitions[1].Core, -1);
}

TEST(RoundTrip, FullyBoundConfigStillRoundTrips) {
  for (cfg::Config C :
       {testcfg::twoTasksOneCore(), testcfg::producerConsumer(),
        testcfg::twoPartitionsWindows()}) {
    std::string Xml = configio::writeConfigXml(C);
    auto Back = configio::parseConfigXml(Xml);
    ASSERT_TRUE(Back.ok()) << Back.error().message();
    expectConfigsEqual(C, *Back);
  }
}

//===----------------------------------------------------------------------===//
// Simulator guard rails: wall-clock budget and cooperative cancellation
//===----------------------------------------------------------------------===//

TEST(GuardRails, ZeroBudgetStopsDeterministically) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);

  nsa::SimOptions Opt;
  Opt.WallClockBudgetMs = 0; // Expired at the first guard check.
  nsa::SimResult R = Sim.run(Opt);
  EXPECT_EQ(R.Stop, nsa::StopReason::BudgetExceeded);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("budget"), std::string::npos) << R.Error;
  EXPECT_EQ(R.ActionCount, 0u); // Guard fires before any step.
  // summary() keeps the "error:" prefix and names the stop reason.
  EXPECT_NE(R.summary().find("error:"), std::string::npos);
  EXPECT_NE(R.summary().find("budget-exceeded"), std::string::npos);
}

TEST(GuardRails, PreCancelledTokenStopsBeforeAnyStep) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);

  CancelToken Tok;
  Tok.cancel();
  nsa::SimOptions Opt;
  Opt.Cancel = &Tok;
  nsa::SimResult R = Sim.run(Opt);
  EXPECT_EQ(R.Stop, nsa::StopReason::Cancelled);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.ActionCount, 0u);
  EXPECT_NE(R.Error.find("cancelled"), std::string::npos) << R.Error;
}

TEST(GuardRails, UnguardedAndUntriggeredRunsComplete) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);

  // Default options: no guard at all.
  nsa::SimResult Plain = Sim.run();
  ASSERT_TRUE(Plain.ok()) << Plain.Error;
  EXPECT_EQ(Plain.Stop, nsa::StopReason::Completed);

  // A generous budget and a live (unfired) token: the guard is polled but
  // never trips, and the trace is identical to the unguarded run.
  CancelToken Tok;
  nsa::SimOptions Opt;
  Opt.WallClockBudgetMs = 600000;
  Opt.Cancel = &Tok;
  nsa::SimResult Guarded = Sim.run(Opt);
  ASSERT_TRUE(Guarded.ok()) << Guarded.Error;
  EXPECT_EQ(Guarded.Stop, nsa::StopReason::Completed);
  EXPECT_EQ(Guarded.ActionCount, Plain.ActionCount);
  EXPECT_EQ(Guarded.DelayCount, Plain.DelayCount);
  ASSERT_EQ(Guarded.Events.size(), Plain.Events.size());
  EXPECT_EQ(Guarded.Final.Now, Plain.Final.Now);
}

TEST(GuardRails, CancelTokenIsReusable) {
  CancelToken Tok;
  EXPECT_FALSE(Tok.isCancelled());
  Tok.cancel();
  EXPECT_TRUE(Tok.isCancelled());
  Tok.cancel(); // Idempotent.
  EXPECT_TRUE(Tok.isCancelled());
  Tok.reset();
  EXPECT_FALSE(Tok.isCancelled());
}

TEST(GuardRails, VerdictOnlySurfacesGuardStopsStructurally) {
  cfg::Config C = testcfg::twoTasksOneCore();

  // Guard fires: success with decided() == false, no verdict claimed.
  nsa::SimOptions Budget;
  Budget.WallClockBudgetMs = 0;
  auto NoVerdict = analysis::analyzeVerdictOnly(C, Budget);
  ASSERT_TRUE(NoVerdict.ok()) << NoVerdict.error().message();
  EXPECT_FALSE(NoVerdict->decided());
  EXPECT_EQ(NoVerdict->Stop, nsa::StopReason::BudgetExceeded);
  EXPECT_FALSE(NoVerdict->Schedulable);

  // Guard never fires: the verdict is decided and agrees with the full
  // analysis.
  auto Decided = analysis::analyzeVerdictOnly(C);
  ASSERT_TRUE(Decided.ok()) << Decided.error().message();
  EXPECT_TRUE(Decided->decided());
  EXPECT_TRUE(Decided->Schedulable);

  auto Full = analysis::analyzeConfiguration(C);
  ASSERT_TRUE(Full.ok());
  EXPECT_EQ(Decided->Schedulable, Full->Analysis.Schedulable);
}

namespace {

/// Four half-utilization partitions whose tasks need their whole WCET
/// before a deadline at half the period, over two message-free cores: any
/// binding puts at least two on one core, which then needs 1000 ticks of
/// window inside [0, 500) — unschedulable for *every* candidate the
/// search can produce, while still passing the first-fit capacity check
/// (per-core utilization is exactly 1.0). Message-free across cores, so
/// candidates decompose and the component cache and instance reuse (both
/// default-on) carry the rounds.
cfg::Config unwinnableDecoupledProblem() {
  cfg::Config C = testcfg::twoTasksOneCore();
  C.Cores.push_back(C.Cores[0]);
  C.Cores.back().Name = "core1";
  C.Partitions[0].Tasks = {{"a", 1, {500}, 1000, 500}};
  for (int I = 1; I < 4; ++I) {
    cfg::Partition P = C.Partitions[0];
    P.Name = "p" + std::to_string(I);
    P.Tasks[0].Name = std::string(1, static_cast<char>('a' + I));
    C.Partitions.push_back(P);
  }
  for (cfg::Partition &P : C.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  return C;
}

} // namespace

TEST(GuardRails, ZeroBudgetSkipsEveryIncrementalCandidate) {
  // CandidateBudgetMs = 0 expires at the first guard check of every
  // simulation the candidate needs — including the per-round deduplicated
  // component sims and arena-reused runs of the incremental path. No
  // undecided component run may be patched into a verdict: every
  // candidate must be skipped as budget-exceeded, deterministically for
  // any worker count.
  schedtool::SearchProblem Problem;
  Problem.Base = unwinnableDecoupledProblem();
  Problem.Seed = 5;
  Problem.MaxIterations = 12;
  Problem.CandidateBudgetMs = 0;
  for (int Workers : {1, 2}) {
    Problem.Workers = Workers;
    auto Res = schedtool::searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_FALSE(Res->Found);
    EXPECT_FALSE(Res->Cancelled);
    EXPECT_EQ(Res->ConfigurationsEvaluated, 0) << "workers=" << Workers;
    EXPECT_EQ(Res->CandidatesSkipped, 12) << "workers=" << Workers;
    EXPECT_EQ(
        Res->StopReasonCounts[static_cast<int>(nsa::StopReason::BudgetExceeded)],
        12)
        << "workers=" << Workers;
  }
}

TEST(GuardRails, HugeBudgetNeverExpires) {
  // A budget whose deadline lies past the clock's range (milliseconds to
  // nanoseconds overflows int64 from about 9.2e12 ms on) is no deadline:
  // the run completes with the unbudgeted trace and no search candidate
  // is skipped.
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult Plain = Sim.run();
  ASSERT_TRUE(Plain.ok()) << Plain.Error;

  schedtool::SearchProblem Problem;
  Problem.Base = unwinnableDecoupledProblem();
  Problem.Seed = 5;
  Problem.MaxIterations = 12;
  for (int64_t Budget : {IntMax, int64_t{10000000000000}}) {
    nsa::SimOptions Opt;
    Opt.WallClockBudgetMs = Budget;
    nsa::SimResult R = Sim.run(Opt);
    ASSERT_TRUE(R.ok()) << "budget=" << Budget << ": " << R.Error;
    EXPECT_EQ(R.Stop, nsa::StopReason::Completed) << "budget=" << Budget;
    EXPECT_EQ(R.ActionCount, Plain.ActionCount) << "budget=" << Budget;
    EXPECT_EQ(R.DelayCount, Plain.DelayCount) << "budget=" << Budget;
    EXPECT_EQ(R.Events.size(), Plain.Events.size()) << "budget=" << Budget;
    EXPECT_TRUE(nsa::syncTracesEqual(R.Events, Plain.Events))
        << "budget=" << Budget;
    EXPECT_EQ(R.Final.Now, Plain.Final.Now) << "budget=" << Budget;

    Problem.CandidateBudgetMs = Budget;
    auto Res = schedtool::searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_EQ(Res->CandidatesSkipped, 0) << "budget=" << Budget;
    EXPECT_GT(Res->ConfigurationsEvaluated, 0) << "budget=" << Budget;
  }
}

TEST(GuardRails, WatchdogCancelEndsIncrementalSearchMidRun) {
  // A watchdog thread cancels a hopeless search (every candidate
  // unschedulable, iteration cap far beyond what the watchdog window
  // allows) while rounds are in flight on the incremental path. The
  // search must come back Cancelled without finishing its iteration
  // budget — a cancelled round may not be completed as if the token had
  // never fired.
  schedtool::SearchProblem Problem;
  Problem.Base = unwinnableDecoupledProblem();
  Problem.Seed = 23;
  Problem.MaxIterations = 5000000;
  CancelToken Tok;
  Problem.Cancel = &Tok;

  std::thread Watchdog([&Tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Tok.cancel();
  });
  auto Res = schedtool::searchConfiguration(Problem);
  Watchdog.join();

  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Cancelled);
  EXPECT_FALSE(Res->Found);
  EXPECT_LT(Res->ConfigurationsEvaluated + Res->CandidatesSkipped,
            Problem.MaxIterations);
  // The incremental machinery was genuinely in play before the cancel:
  // message-free multi-core candidates decompose.
  EXPECT_GT(Res->DecomposedCandidates, 0);
  bool Logged = false;
  for (const std::string &Line : Res->Log)
    if (Line.find("cancelled") != std::string::npos)
      Logged = true;
  EXPECT_TRUE(Logged) << "no cancellation note in the search log";
}

TEST(GuardRails, WatchdogCancelStillFlushesTheTerminalCheckpoint) {
  // Cancellation races the checkpoint writer: a watchdog fires while
  // rounds (and possibly a periodic snapshot write) are in flight. The
  // contract is that the interruption itself is made durable — the
  // terminal flush lands after the cancel marks, so the snapshot on disk
  // carries the Cancelled flag, the cancel log line, and the StopReason
  // tallies of the interrupted run — and that no half-written temp file
  // is left behind.
  std::string Path = testing::TempDir() + "swa_robust_cancel_ckpt.bin";
  std::remove(Path.c_str());
  schedtool::SearchProblem Problem;
  Problem.Base = unwinnableDecoupledProblem();
  Problem.Seed = 23;
  Problem.MaxIterations = 5000000;
  Problem.CheckpointPath = Path;
  schedtool::SnapshotStats Stats;
  Problem.CkptStats = &Stats;
  CancelToken Tok;
  Problem.Cancel = &Tok;

  std::thread Watchdog([&Tok] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Tok.cancel();
  });
  auto Res = schedtool::searchConfiguration(Problem);
  Watchdog.join();

  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_TRUE(Res->Cancelled);
  EXPECT_EQ(Stats.WriteFailures, 0u) << Stats.LastError;
  EXPECT_GT(Stats.SnapshotsWritten, 0u);

  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good()) << "temp file left behind: " << Path << ".tmp";

  auto L = schedtool::loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_TRUE(L->HasSearchState);
  EXPECT_TRUE(L->Res.Cancelled);
  EXPECT_EQ(L->Res.Log, Res->Log);
  EXPECT_EQ(L->Res.StopReasonCounts, Res->StopReasonCounts);
  EXPECT_EQ(L->Res.ConfigurationsEvaluated, Res->ConfigurationsEvaluated);
  EXPECT_EQ(L->Res.CandidatesSkipped, Res->CandidatesSkipped);
  std::remove(Path.c_str());
}

TEST(GuardRails, BudgetExpiryDuringCheckpointedSearchKeepsStopReasons) {
  // A zero per-candidate budget skips every evaluation; with
  // checkpointing on, the skips and their BudgetExceeded tallies must
  // survive the round-trip through the terminal snapshot, the search
  // result must be byte-identical to the uncheckpointed run, and no
  // temp file may outlive the search.
  schedtool::SearchProblem Problem;
  Problem.Base = unwinnableDecoupledProblem();
  Problem.Seed = 5;
  Problem.MaxIterations = 12;
  Problem.CandidateBudgetMs = 0;
  auto Plain = schedtool::searchConfiguration(Problem);
  ASSERT_TRUE(Plain.ok()) << Plain.error().message();

  std::string Path = testing::TempDir() + "swa_robust_budget_ckpt.bin";
  std::remove(Path.c_str());
  Problem.CheckpointPath = Path;
  schedtool::SnapshotStats Stats;
  Problem.CkptStats = &Stats;
  auto Res = schedtool::searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  EXPECT_EQ(Res->Log, Plain->Log);
  EXPECT_EQ(Res->StopReasonCounts, Plain->StopReasonCounts);
  EXPECT_EQ(Res->CandidatesSkipped, Plain->CandidatesSkipped);
  EXPECT_GT(Stats.SnapshotsWritten, 0u);

  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good()) << "temp file left behind: " << Path << ".tmp";

  auto L = schedtool::loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_EQ(
      L->Res.StopReasonCounts[static_cast<int>(nsa::StopReason::BudgetExceeded)],
      12);
  EXPECT_EQ(L->Res.CandidatesSkipped, 12);
  std::remove(Path.c_str());
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
