//===- tests/AnalysisTest.cpp - Criterion, RTA and report tests -------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Report.h"
#include "analysis/Rta.h"
#include "gen/Workload.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::analysis;

//===----------------------------------------------------------------------===//
// Criterion edge cases (hand-built traces)
//===----------------------------------------------------------------------===//

namespace {

core::SystemTrace makeTrace(
    std::initializer_list<std::tuple<core::SysEventType, int, int64_t>>
        Events) {
  core::SystemTrace Out;
  for (const auto &[Type, Gid, Time] : Events)
    Out.push_back({Type, Gid, Time});
  return Out;
}

} // namespace

TEST(Criterion, AcceptsExactWcetWithinDeadline) {
  cfg::Config C = testcfg::twoTasksOneCore(); // t1: C=3 P=10; t2: C=5 P=20.
  core::SystemTrace Trace = makeTrace({
      {core::SysEventType::READY, 0, 0},
      {core::SysEventType::EX, 0, 0},
      {core::SysEventType::FIN, 0, 3},
      {core::SysEventType::READY, 1, 0},
      {core::SysEventType::EX, 1, 3},
      {core::SysEventType::FIN, 1, 8},
      {core::SysEventType::READY, 0, 10},
      {core::SysEventType::EX, 0, 10},
      {core::SysEventType::FIN, 0, 13},
  });
  AnalysisResult R = analyzeTrace(C, Trace);
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;
  EXPECT_EQ(R.TotalJobs, 3);
}

TEST(Criterion, RejectsUnderrunAndMissingJobs) {
  cfg::Config C = testcfg::twoTasksOneCore();
  // t1 job 0 only executes 2 of 3 ticks; t1 job 1 and t2 produce nothing.
  core::SystemTrace Trace = makeTrace({
      {core::SysEventType::EX, 0, 0},
      {core::SysEventType::PR, 0, 2},
      {core::SysEventType::FIN, 0, 9},
  });
  AnalysisResult R = analyzeTrace(C, Trace);
  EXPECT_FALSE(R.Schedulable);
  EXPECT_EQ(R.MissedJobs, 3);
}

TEST(Criterion, DeadlineBoundaryFinBelongsToPreviousJob) {
  // deadline == period: a FIN exactly at the release boundary must close
  // the previous job, not the new one.
  cfg::Config C = testcfg::twoTasksOneCore();
  core::SysEvent Fin{core::SysEventType::FIN, 0, 10};
  core::SystemTrace Trace = {Fin};
  AnalysisResult R = analyzeTrace(C, Trace);
  const JobStats *J0 = nullptr;
  for (const JobStats &J : R.Jobs)
    if (J.TaskGid == 0 && J.JobIndex == 0)
      J0 = &J;
  ASSERT_TRUE(J0);
  EXPECT_EQ(J0->FinishTime, 10);
}

TEST(Criterion, ZeroLengthIntervalsAreDropped) {
  cfg::Config C = testcfg::twoTasksOneCore();
  core::SystemTrace Trace = makeTrace({
      {core::SysEventType::EX, 0, 5},
      {core::SysEventType::PR, 0, 5}, // Zero-length: dropped.
      {core::SysEventType::EX, 0, 6},
      {core::SysEventType::FIN, 0, 9},
  });
  AnalysisResult R = analyzeTrace(C, Trace);
  const JobStats &J = R.Jobs.front();
  ASSERT_EQ(J.Intervals.size(), 1u);
  EXPECT_EQ(J.Intervals[0], (ExecInterval{6, 9}));
  EXPECT_EQ(J.ExecTotal, 3);
}

TEST(Criterion, LateCompletionIsAMiss) {
  cfg::Config C = testcfg::twoTasksOneCore();
  C.Partitions[0].Tasks[0].Deadline = 5;
  core::SystemTrace Trace = makeTrace({
      {core::SysEventType::EX, 0, 3},
      {core::SysEventType::FIN, 0, 6}, // 3 ticks, but past deadline 5.
  });
  AnalysisResult R = analyzeTrace(C, Trace);
  EXPECT_FALSE(R.Jobs.front().Completed);
}

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ull;

template <class T> uint64_t fnvValue(uint64_t H, T V) {
  const auto *Bytes = reinterpret_cast<const unsigned char *>(&V);
  for (size_t I = 0; I < sizeof V; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// FNV-1a over every field of an AnalysisResult: the verdict, the job
/// counts, the worst responses, the first violation and every job's
/// statistics.
uint64_t digestAnalysis(const AnalysisResult &R) {
  uint64_t H = fnvValue(FnvOffset, R.Schedulable);
  H = fnvValue(H, R.TotalJobs);
  H = fnvValue(H, R.MissedJobs);
  H = fnvValue<uint64_t>(H, R.WorstResponse.size());
  for (int64_t W : R.WorstResponse)
    H = fnvValue(H, W);
  for (char Ch : R.FirstViolation)
    H = fnvValue(H, Ch);
  H = fnvValue<uint64_t>(H, R.Jobs.size());
  for (const JobStats &J : R.Jobs) {
    H = fnvValue(H, J.TaskGid);
    H = fnvValue(H, J.JobIndex);
    H = fnvValue(H, J.ReleaseTime);
    H = fnvValue(H, J.ReadyTime);
    H = fnvValue(H, J.FinishTime);
    H = fnvValue<uint64_t>(H, J.Intervals.size());
    for (const ExecInterval &I : J.Intervals) {
      H = fnvValue(H, I.Start);
      H = fnvValue(H, I.End);
    }
    H = fnvValue(H, J.ExecTotal);
    H = fnvValue(H, J.Preemptions);
    H = fnvValue(H, J.Completed);
  }
  return H;
}

} // namespace

// The criterion's output, simulation included, is pinned to digests
// recorded with the original per-task rescan and per-event partition
// walk: the one-pass criterion and the stopwatch clock encoding must not
// change a single job.
TEST(Criterion, MatchesPinnedDigests) {
  struct Case {
    const char *Name;
    cfg::Config C;
    bool Schedulable;
    uint64_t Want;
  };
  const Case Cases[] = {
      {"industrial-2500", gen::industrialConfigWithJobs(2500, 1), false,
       0x524f657775ad104eull},
      {"producer-consumer", testcfg::producerConsumer(), true,
       0xc76979e9ad525f2eull},
      {"preemption-showcase", testcfg::preemptionShowcase(), true,
       0xbf21183223cd9e04ull},
      {"overloaded", testcfg::overloadedOneCore(), false,
       0x65f19885ffedad2dull},
  };
  for (const Case &K : Cases) {
    auto Out = analyzeConfiguration(K.C);
    ASSERT_TRUE(Out.ok()) << K.Name << ": " << Out.error().message();
    EXPECT_EQ(Out->Analysis.Schedulable, K.Schedulable) << K.Name;
    EXPECT_EQ(digestAnalysis(Out->Analysis), K.Want)
        << K.Name << ": jobs " << Out->Analysis.TotalJobs << ", missed "
        << Out->Analysis.MissedJobs << ", digest 0x" << std::hex
        << digestAnalysis(Out->Analysis);
  }
}

//===----------------------------------------------------------------------===//
// RTA cross-validation
//===----------------------------------------------------------------------===//

TEST(Rta, MatchesTextbookExample) {
  cfg::Config C = testcfg::twoTasksOneCore();
  RtaResult R = responseTimeAnalysis(C, 0);
  EXPECT_TRUE(R.Schedulable);
  EXPECT_EQ(R.Response[0], 3); // High priority: its own WCET.
  EXPECT_EQ(R.Response[1], 8); // 5 + 3 interference.
}

TEST(Rta, DetectsOverload) {
  RtaResult R = responseTimeAnalysis(testcfg::overloadedOneCore(), 0);
  EXPECT_FALSE(R.Schedulable);
  EXPECT_EQ(R.Response[1], -1);
}

namespace {

/// One FPPS partition on one core with the given tasks and a
/// full-hyperperiod window.
cfg::Config onePartition(std::vector<cfg::Task> Tasks) {
  cfg::Config C;
  C.Name = "rta-case";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"c", 0, 0});
  cfg::Partition P;
  P.Name = "p";
  P.Core = 0;
  P.Scheduler = cfg::SchedulerKind::FPPS;
  P.Tasks = std::move(Tasks);
  C.Partitions.push_back(std::move(P));
  // The hyperperiod is only known once the tasks are in place.
  C.Partitions[0].Windows.push_back({0, C.hyperperiod()});
  return C;
}

} // namespace

TEST(Rta, EqualPriorityTasksInterfere) {
  // Two identical tasks at the same priority, each C=6, D=7, P=12. With
  // FIFO tie-breaking one of them runs second and finishes at 12 > 7, so
  // the set is unschedulable. The old `<=` skip excluded ties from hp(i)
  // and reported both tasks with R = 6 — schedulable, contradicting the
  // simulator.
  cfg::Config C = onePartition(
      {{"a", 3, {6}, 12, 7}, {"b", 3, {6}, 12, 7}});
  RtaResult R = responseTimeAnalysis(C, 0);
  EXPECT_FALSE(R.Schedulable);

  // Cross-check: the model agrees.
  ASSERT_FALSE(C.validate().isFailure());
  auto Sim = analyzeConfiguration(C);
  ASSERT_TRUE(Sim.ok()) << Sim.error().message();
  EXPECT_EQ(R.Schedulable, Sim->Analysis.Schedulable);
}

TEST(Rta, EqualPrioritySchedulableWhenLoadFits) {
  // Same shape but C=3, D=12: the second task finishes at 6 <= 12. The
  // tie-aware bound R = 6 holds for both and the verdict stays positive.
  cfg::Config C = onePartition(
      {{"a", 3, {3}, 12, 12}, {"b", 3, {3}, 12, 12}});
  RtaResult R = responseTimeAnalysis(C, 0);
  EXPECT_TRUE(R.Schedulable);
  EXPECT_EQ(R.Response[0], 6);
  EXPECT_EQ(R.Response[1], 6);

  ASSERT_FALSE(C.validate().isFailure());
  auto Sim = analyzeConfiguration(C);
  ASSERT_TRUE(Sim.ok()) << Sim.error().message();
  EXPECT_TRUE(Sim->Analysis.Schedulable);
  for (int64_t Worst : Sim->Analysis.WorstResponse)
    EXPECT_LE(Worst, 6);
}

TEST(Rta, IterationCapWithoutConvergenceIsUnschedulable) {
  // Over-unity load under a huge deadline: the fixpoint climbs by a few
  // ticks per iteration and can neither converge nor pass the deadline
  // within the cap. The capped exit must report unschedulable — the old
  // code returned the last (gross under-)estimate as if it had converged.
  cfg::Config C = onePartition({{"hi1", 5, {4}, 8, 8},
                                {"hi2", 5, {4}, 8, 8},
                                {"lo", 1, {1}, int64_t(1) << 40,
                                 int64_t(1) << 40}});
  RtaResult R = responseTimeAnalysis(C, 0);
  EXPECT_FALSE(R.Schedulable);
  EXPECT_EQ(R.Response[2], -1);
  // The two high-priority tasks themselves are fine (they only see each
  // other: R = 8 <= 8).
  EXPECT_EQ(R.Response[0], 8);
  EXPECT_EQ(R.Response[1], 8);
}

TEST(Rta, InterferenceOverflowIsUnschedulableNotUB) {
  // Four heavy high-priority tasks make the fixpoint grow geometrically;
  // under a 2^62 deadline the interference sum overflows int64 long
  // before the cap. Pre-fix this was signed-overflow UB (UBSan aborts);
  // now it is a defined unschedulable verdict.
  constexpr int64_t Big = int64_t(1) << 31;
  cfg::Config C = onePartition({{"h0", 5, {Big}, Big, Big},
                                {"h1", 5, {Big}, Big, Big},
                                {"h2", 5, {Big}, Big, Big},
                                {"h3", 5, {Big}, Big, Big},
                                {"lo", 1, {1}, int64_t(1) << 62,
                                 int64_t(1) << 62}});
  RtaResult R = responseTimeAnalysis(C, 0);
  EXPECT_FALSE(R.Schedulable);
  EXPECT_EQ(R.Response[4], -1);
}

TEST(Rta, SimulationNeverExceedsTheAnalyticBound) {
  // Property sweep: random single-partition FPPS task sets with a full
  // window; the model's worst observed response must be <= the RTA bound,
  // and the verdicts must agree (synchronous release = critical instant).
  Rng R(2026);
  int Checked = 0;
  for (int Trial = 0; Trial < 30; ++Trial) {
    cfg::Config C;
    C.Name = "rta-sweep";
    C.NumCoreTypes = 1;
    C.Cores.push_back({"c", 0, 0});
    cfg::Partition P;
    P.Name = "p";
    P.Core = 0;
    P.Scheduler = cfg::SchedulerKind::FPPS;
    int N = static_cast<int>(R.uniformInt(2, 4));
    std::vector<double> U = gen::uunifast(R, N, 0.9);
    std::vector<cfg::TimeValue> Periods = {8, 16, 32};
    for (int I = 0; I < N; ++I) {
      cfg::Task T;
      T.Name = "t" + std::to_string(I);
      T.Period = Periods[R.index(Periods.size())];
      T.Deadline = T.Period;
      cfg::TimeValue Cost = std::max<cfg::TimeValue>(
          1, static_cast<cfg::TimeValue>(U[static_cast<size_t>(I)] *
                                         static_cast<double>(T.Period)));
      T.Wcet = {std::min(Cost, T.Period)};
      T.Priority = 1000 - static_cast<int>(T.Period) * 10 + I;
      P.Tasks.push_back(std::move(T));
    }
    P.Windows.push_back({0, 32});
    C.Partitions.push_back(std::move(P));
    if (C.validate().isFailure())
      continue;

    RtaResult Bound = responseTimeAnalysis(C, 0);
    auto Out = analyzeConfiguration(C);
    ASSERT_TRUE(Out.ok()) << Out.error().message();
    EXPECT_EQ(Bound.Schedulable, Out->Analysis.Schedulable)
        << "trial " << Trial;
    if (Bound.Schedulable) {
      for (size_t I = 0; I < Bound.Response.size(); ++I) {
        int G = C.globalTaskId({0, static_cast<int>(I)});
        EXPECT_LE(Out->Analysis.WorstResponse[static_cast<size_t>(G)],
                  Bound.Response[I])
            << "trial " << Trial << " task " << I;
      }
    }
    ++Checked;
  }
  EXPECT_GT(Checked, 10);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

TEST(Report, RendersVerdictAndGantt) {
  auto Out = analyzeConfiguration(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Out.ok());
  std::string Report =
      renderReport(Out->Model.Config, Out->Analysis);
  EXPECT_NE(Report.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(Report.find("worst-resp=8"), std::string::npos);

  std::string Gantt = renderGantt(Out->Model.Config, Out->Analysis);
  // t1 runs [0,3): the row starts with three '#'.
  EXPECT_NE(Gantt.find("|###......."), std::string::npos);
}

TEST(Report, MarksMissesInGantt) {
  auto Out = analyzeConfiguration(testcfg::overloadedOneCore());
  ASSERT_TRUE(Out.ok());
  std::string Gantt = renderGantt(Out->Model.Config, Out->Analysis);
  EXPECT_NE(Gantt.find('!'), std::string::npos);
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
