//===- tests/SensitivityTest.cpp - Parametric sensitivity contracts -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Contracts of analysis::Sensitivity:
//  * certificate exactness — the reported largest-passing config is
//    schedulable and the smallest-failing one is not, re-verified by
//    fresh full (no early exit, no cache) verdict runs;
//  * agreement with brute force on small configs, where the whole WCET
//    domain can be scanned linearly;
//  * deterministic fan-out — summary() is byte-identical for Workers
//    1/2/4, cold or against a shared warm VerdictCache;
//  * guard rails — unschedulable bases short-circuit, pre-cancelled
//    tokens never probe.
//
//===----------------------------------------------------------------------===//

#include "analysis/Sensitivity.h"

#include "analysis/Analyzer.h"
#include "gen/Workload.h"
#include "schedtool/VerdictCache.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <sys/wait.h>

using namespace swa;

namespace {

/// Fresh full-run verdict: no early exit, no cache, no arena — the
/// reference the sensitivity numbers are judged against.
analysis::VerdictOutcome fullVerdict(const cfg::Config &C) {
  Result<analysis::VerdictOutcome> R = analysis::analyzeVerdictOnly(C);
  if (!R.ok()) {
    ADD_FAILURE() << "analyzeVerdictOnly: " << R.error().message();
    return {};
  }
  EXPECT_TRUE(R->decided());
  return *R;
}

analysis::SensitivityResult run(const cfg::Config &C,
                                analysis::SensitivityOptions Opts = {}) {
  Result<analysis::SensitivityResult> R = analysis::analyzeSensitivity(C, Opts);
  if (!R.ok()) {
    ADD_FAILURE() << "analyzeSensitivity: " << R.error().message();
    return {};
  }
  return *R;
}

TEST(SensitivityTest, WcetSlackCertificatesAreExact) {
  cfg::Config Base = testcfg::twoTasksOneCore();
  analysis::SensitivityOptions Opts;
  Opts.QueryPeriod = Opts.QueryOffset = Opts.QueryFrontier = false;
  analysis::SensitivityResult R = run(Base, Opts);

  ASSERT_TRUE(R.BaseDecided);
  ASSERT_TRUE(R.BaseSchedulable);
  ASSERT_EQ(R.Wcet.size(), 2u);
  for (const analysis::WcetSlackResult &W : R.Wcet) {
    ASSERT_TRUE(W.Decided) << "task " << W.TaskGid;
    EXPECT_GE(W.SlackTicks, 0);
    EXPECT_LE(W.SlackTicks, W.DomainMax);
    ASSERT_TRUE(W.HasPassing);
    // The passing certificate is exactly the base inflated by the slack.
    EXPECT_EQ(cfg::fingerprintConfig(W.LargestPassing),
              cfg::fingerprintConfig(
                  analysis::withWcetDelta(Base, W.TaskGid, W.SlackTicks)));
    EXPECT_TRUE(fullVerdict(W.LargestPassing).Schedulable)
        << "task " << W.TaskGid << " at slack " << W.SlackTicks;
    if (W.UnboundedInDomain) {
      EXPECT_EQ(W.SlackTicks, W.DomainMax);
      EXPECT_FALSE(W.HasFailing);
    } else {
      ASSERT_TRUE(W.HasFailing);
      // Default tolerance 1: the certificates are adjacent, so one tick
      // past the slack the verdict must flip.
      EXPECT_EQ(cfg::fingerprintConfig(W.SmallestFailing),
                cfg::fingerprintConfig(analysis::withWcetDelta(
                    Base, W.TaskGid, W.SlackTicks + 1)));
      EXPECT_FALSE(fullVerdict(W.SmallestFailing).Schedulable)
          << "task " << W.TaskGid << " at slack+1 "
          << (W.SlackTicks + 1);
    }
  }
}

TEST(SensitivityTest, WcetSlackMatchesBruteForce) {
  cfg::Config Base = testcfg::twoTasksOneCore();
  analysis::SensitivityOptions Opts;
  Opts.QueryPeriod = Opts.QueryOffset = Opts.QueryFrontier = false;
  analysis::SensitivityResult R = run(Base, Opts);

  for (const analysis::WcetSlackResult &W : R.Wcet) {
    ASSERT_TRUE(W.Decided);
    // Linear scan of the whole (small) domain: the first failing delta.
    cfg::TimeValue FirstFail = -1;
    for (cfg::TimeValue D = 1; D <= W.DomainMax; ++D) {
      if (!fullVerdict(analysis::withWcetDelta(Base, W.TaskGid, D))
               .Schedulable) {
        FirstFail = D;
        break;
      }
    }
    if (FirstFail < 0)
      EXPECT_TRUE(W.UnboundedInDomain) << "task " << W.TaskGid;
    else
      EXPECT_EQ(W.SlackTicks, FirstFail - 1) << "task " << W.TaskGid;
  }
}

TEST(SensitivityTest, OffsetIntervalEndpointsAreVerified) {
  cfg::Config Base = testcfg::twoPartitionsWindows();
  analysis::SensitivityOptions Opts;
  Opts.QueryWcet = Opts.QueryPeriod = Opts.QueryFrontier = false;
  analysis::SensitivityResult R = run(Base, Opts);

  ASSERT_TRUE(R.BaseSchedulable);
  ASSERT_EQ(R.Offsets.size(), 2u);
  for (const analysis::OffsetIntervalResult &O : R.Offsets) {
    ASSERT_TRUE(O.Decided) << "task " << O.TaskGid;
    EXPECT_LE(O.DomainLo, 0);
    EXPECT_GE(O.DomainHi, 0);
    EXPECT_LE(O.MinShift, 0);
    EXPECT_GE(O.MaxShift, 0);
    int Part = Base.taskRefOf(O.TaskGid).Partition;
    for (cfg::TimeValue S : {O.MinShift, O.MaxShift}) {
      cfg::Config Shifted = analysis::withWindowShift(Base, Part, S);
      ASSERT_FALSE(Shifted.validate().isFailure());
      // The shift moves windows only, so the shape — and therefore the
      // arena key — is unchanged.
      EXPECT_EQ(cfg::fingerprintShape(Shifted), cfg::fingerprintShape(Base));
      EXPECT_TRUE(fullVerdict(Shifted).Schedulable)
          << "task " << O.TaskGid << " shift " << S;
    }
    // One tick past a bounded endpoint the probe flips: either the
    // shifted config no longer validates (failing by convention — here
    // the partitions' windows collide) or it simulates unschedulable.
    auto FlipsAt = [&](cfg::TimeValue S) {
      cfg::Config Past = analysis::withWindowShift(Base, Part, S);
      return Past.validate().isFailure() || !fullVerdict(Past).Schedulable;
    };
    if (!O.HiUnbounded) {
      EXPECT_TRUE(FlipsAt(O.MaxShift + 1)) << "task " << O.TaskGid;
    }
    if (!O.LoUnbounded) {
      EXPECT_TRUE(FlipsAt(O.MinShift - 1)) << "task " << O.TaskGid;
    }
  }
}

TEST(SensitivityTest, PeriodQueryShrinksOverDivisorsOnly) {
  cfg::Config Base = testcfg::twoTasksOneCore();
  analysis::SensitivityOptions Opts;
  Opts.QueryWcet = Opts.QueryOffset = Opts.QueryFrontier = false;
  analysis::SensitivityResult R = run(Base, Opts);

  ASSERT_EQ(R.Periods.size(), 2u);
  for (const analysis::PeriodIntervalResult &P : R.Periods) {
    ASSERT_TRUE(P.Decided) << "task " << P.TaskGid;
    ASSERT_GE(P.MinFeasiblePeriod, 1);
    EXPECT_EQ(P.BasePeriod % P.MinFeasiblePeriod, 0);
    if (P.MinFeasiblePeriod < P.BasePeriod) {
      EXPECT_TRUE(fullVerdict(analysis::withPeriod(Base, P.TaskGid,
                                                   P.MinFeasiblePeriod))
                      .Schedulable);
    }
  }
}

TEST(SensitivityTest, MessageTiedTasksHaveEmptyPeriodDomain) {
  cfg::Config Base = testcfg::producerConsumer();
  analysis::SensitivityOptions Opts;
  Opts.QueryWcet = Opts.QueryOffset = Opts.QueryFrontier = false;
  analysis::SensitivityResult R = run(Base, Opts);

  ASSERT_EQ(R.Periods.size(), 2u);
  for (const analysis::PeriodIntervalResult &P : R.Periods) {
    ASSERT_TRUE(P.Decided);
    EXPECT_EQ(P.DomainSize, 0);
    EXPECT_EQ(P.MinFeasiblePeriod, -1);
    EXPECT_EQ(P.Probes, 0);
  }
}

TEST(SensitivityTest, FrontierCertificateHolds) {
  cfg::Config Base = testcfg::twoTasksOneCore();
  analysis::SensitivityOptions Opts;
  Opts.QueryWcet = Opts.QueryPeriod = Opts.QueryOffset = false;
  analysis::SensitivityResult R = run(Base, Opts);

  ASSERT_TRUE(R.Frontier.Decided);
  ASSERT_GE(R.Frontier.FrontierPermille, 1000);
  EXPECT_LE(R.Frontier.FrontierPermille, R.Frontier.DomainMaxPermille);
  cfg::Config At =
      analysis::withUniformInflation(Base, R.Frontier.FrontierPermille);
  ASSERT_FALSE(At.validate().isFailure());
  EXPECT_TRUE(fullVerdict(At).Schedulable);
}

TEST(SensitivityTest, UnschedulableBaseShortCircuits) {
  analysis::SensitivityResult R = run(testcfg::overloadedOneCore());
  ASSERT_TRUE(R.BaseDecided);
  EXPECT_FALSE(R.BaseSchedulable);
  EXPECT_EQ(R.TotalProbes, 1);
  ASSERT_EQ(R.Wcet.size(), 2u);
  for (const analysis::WcetSlackResult &W : R.Wcet) {
    EXPECT_TRUE(W.Decided);
    EXPECT_EQ(W.SlackTicks, -1);
    EXPECT_FALSE(W.HasPassing);
    EXPECT_TRUE(W.HasFailing);
  }
  EXPECT_TRUE(R.Periods.empty());
  EXPECT_TRUE(R.Offsets.empty());
  EXPECT_EQ(R.Frontier.FrontierPermille, -1);
}

TEST(SensitivityTest, PreCancelledTokenNeverProbes) {
  CancelToken Cancel;
  Cancel.cancel();
  analysis::SensitivityOptions Opts;
  Opts.Cancel = &Cancel;
  analysis::SensitivityResult R = run(testcfg::twoTasksOneCore(), Opts);
  EXPECT_FALSE(R.BaseDecided);
  EXPECT_TRUE(R.Cancelled);
  EXPECT_EQ(R.TotalProbes, 0);
}

TEST(SensitivityTest, SummaryIsWorkerCountInvariant) {
  // A workload large enough that the fan-out actually interleaves.
  gen::IndustrialParams Params;
  Params.Modules = 1;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.4;
  Params.Seed = 11;
  cfg::Config Base = gen::industrialConfig(Params);
  ASSERT_FALSE(Base.validate().isFailure());

  std::string Reference;
  for (int Workers : {1, 2, 4}) {
    analysis::SensitivityOptions Opts;
    Opts.Workers = Workers;
    analysis::SensitivityResult R = run(Base, Opts);
    ASSERT_TRUE(R.BaseDecided);
    if (Workers == 1)
      Reference = R.summary();
    else
      EXPECT_EQ(R.summary(), Reference) << "workers=" << Workers;
  }

  // A caller-shared warm cache replays verdicts but never changes them.
  schedtool::VerdictCache Shared;
  for (int Workers : {1, 4}) {
    analysis::SensitivityOptions Opts;
    Opts.Workers = Workers;
    Opts.Cache = &Shared;
    analysis::SensitivityResult R = run(Base, Opts);
    EXPECT_EQ(R.summary(), Reference)
        << "workers=" << Workers << " (shared cache)";
  }
}

TEST(SensitivityTest, ToleranceWidensTheBracket) {
  cfg::Config Base = testcfg::twoTasksOneCore();
  analysis::SensitivityOptions Fine;
  Fine.QueryPeriod = Fine.QueryOffset = Fine.QueryFrontier = false;
  analysis::SensitivityOptions Coarse = Fine;
  Coarse.ToleranceTicks = 4;
  analysis::SensitivityResult RF = run(Base, Fine);
  analysis::SensitivityResult RC = run(Base, Coarse);
  for (size_t I = 0; I < RF.Wcet.size(); ++I) {
    const analysis::WcetSlackResult &F = RF.Wcet[I];
    const analysis::WcetSlackResult &C = RC.Wcet[I];
    ASSERT_TRUE(F.Decided);
    ASSERT_TRUE(C.Decided);
    // The coarse bracket still contains the fine answer, from below, and
    // uses no more probes.
    EXPECT_LE(C.SlackTicks, F.SlackTicks);
    EXPECT_LE(C.Probes, F.Probes);
    if (!C.UnboundedInDomain) {
      EXPECT_LE(F.SlackTicks - C.SlackTicks, 4);
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The sensitivity CLI (SWA_SENSITIVITY_BIN, a build-time path).
//===----------------------------------------------------------------------===//

#ifdef SWA_SENSITIVITY_BIN
TEST(SensitivityCli, RejectsBadArguments) {
  // A misspelled flag must not parse as the seed, a flag must not lose its
  // value, and a malformed or out-of-range number must not become a
  // default: usage on stderr and exit 1 (2 means "undecided"), before any
  // query runs.
  for (const char *Arg :
       {"--wrokers 2", "--param", "--workers abc", "--workers 0",
        "--workers -2", "--tolerance -3", "--tolerance 0", "--tolerance",
        "--budget-ms -5", "--report-out", "7x", "--workers 257"}) {
    std::string Cmd =
        std::string(SWA_SENSITIVITY_BIN) + " " + Arg + " >/dev/null 2>&1";
    int Status = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Arg;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Arg;
  }
}
#endif // SWA_SENSITIVITY_BIN

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
