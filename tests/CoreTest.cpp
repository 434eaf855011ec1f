//===- tests/CoreTest.cpp - End-to-end model construction/analysis tests ---===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "core/InstanceBuilder.h"
#include "gen/Workload.h"
#include "sa/Compile.h"
#include "sa/Printer.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::analysis;

namespace {

const JobStats &jobOf(const AnalysisResult &R, int Gid, int K) {
  for (const JobStats &J : R.Jobs)
    if (J.TaskGid == Gid && J.JobIndex == K)
      return J;
  static JobStats Missing;
  ADD_FAILURE() << "job (" << Gid << ", " << K << ") not found";
  return Missing;
}

} // namespace

TEST(InstanceBuilder, CreatesOneAutomatonPerComponent) {
  cfg::Config C = testcfg::producerConsumer();
  auto Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  // 2 tasks + 2 task schedulers + 2 core schedulers + 1 virtual link.
  EXPECT_EQ(Model->Net->Automata.size(), 7u);
  EXPECT_EQ(Model->Net->metaOr("horizon", -1), 20);
  // Channel families exist and are disjoint.
  EXPECT_GE(Model->ExecBase, 0);
  EXPECT_GE(Model->SendBase, 0);
  EXPECT_NE(Model->ExecBase, Model->PreemptBase);
}

TEST(InstanceBuilder, RejectsInvalidConfigurations) {
  cfg::Config C = testcfg::twoTasksOneCore();
  C.Partitions[0].Core = 7; // No such core.
  auto Model = core::buildModel(C);
  ASSERT_FALSE(Model.ok());
  EXPECT_NE(Model.error().message().find("invalid configuration"),
            std::string::npos);
}

TEST(Analyzer, RateMonotonicPairIsSchedulable) {
  auto Out = analyzeConfiguration(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const AnalysisResult &R = Out->Analysis;
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;
  EXPECT_EQ(R.TotalJobs, 3);
  EXPECT_EQ(R.MissedJobs, 0);
  EXPECT_TRUE(Out->failureFlagsConsistent());

  // T1 runs [0,3) and [10,13); T2 runs [3,8).
  const JobStats &T1J0 = jobOf(R, 0, 0);
  ASSERT_EQ(T1J0.Intervals.size(), 1u);
  EXPECT_EQ(T1J0.Intervals[0], (ExecInterval{0, 3}));
  EXPECT_EQ(T1J0.responseTime(), 3);

  const JobStats &T1J1 = jobOf(R, 0, 1);
  ASSERT_EQ(T1J1.Intervals.size(), 1u);
  EXPECT_EQ(T1J1.Intervals[0], (ExecInterval{10, 13}));

  const JobStats &T2J0 = jobOf(R, 1, 0);
  ASSERT_EQ(T2J0.Intervals.size(), 1u);
  EXPECT_EQ(T2J0.Intervals[0], (ExecInterval{3, 8}));
  EXPECT_EQ(T2J0.responseTime(), 8);
  EXPECT_EQ(R.WorstResponse[0], 3);
  EXPECT_EQ(R.WorstResponse[1], 8);
}

TEST(Analyzer, OverloadedConfigurationMissesDeadline) {
  auto Out = analyzeConfiguration(testcfg::overloadedOneCore());
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_FALSE(Out->Analysis.Schedulable);
  EXPECT_EQ(Out->Analysis.MissedJobs, 1);
  EXPECT_TRUE(Out->failureFlagsConsistent());
  // The failing job is T2's only job.
  const JobStats &T2 = jobOf(Out->Analysis, 1, 0);
  EXPECT_FALSE(T2.Completed);
  // It executed exactly until its deadline: 20 - 2*3 = 14 ticks.
  EXPECT_EQ(T2.ExecTotal, 14);
  EXPECT_NE(Out->Analysis.FirstViolation.find("t2"), std::string::npos);
}

TEST(Analyzer, PreemptionSplitsExecutionIntervals) {
  auto Out = analyzeConfiguration(testcfg::preemptionShowcase());
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const AnalysisResult &R = Out->Analysis;
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;

  const JobStats &Lo = jobOf(R, 1, 0);
  // hi runs [0,2) and [10,12); lo fills the rest: [2,10) and [12,19).
  ASSERT_EQ(Lo.Intervals.size(), 2u);
  EXPECT_EQ(Lo.Intervals[0], (ExecInterval{2, 10}));
  EXPECT_EQ(Lo.Intervals[1], (ExecInterval{12, 19}));
  EXPECT_EQ(Lo.Preemptions, 1);
  EXPECT_EQ(Lo.responseTime(), 19);
}

TEST(Analyzer, WindowsConfineExecution) {
  auto Out = analyzeConfiguration(testcfg::twoPartitionsWindows());
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const AnalysisResult &R = Out->Analysis;
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;

  // pA's task: [0,5) then [10,12). pB's task: [5,10) then [15,17).
  const JobStats &A = jobOf(R, 0, 0);
  ASSERT_EQ(A.Intervals.size(), 2u);
  EXPECT_EQ(A.Intervals[0], (ExecInterval{0, 5}));
  EXPECT_EQ(A.Intervals[1], (ExecInterval{10, 12}));

  const JobStats &B = jobOf(R, 1, 0);
  ASSERT_EQ(B.Intervals.size(), 2u);
  EXPECT_EQ(B.Intervals[0], (ExecInterval{5, 10}));
  EXPECT_EQ(B.Intervals[1], (ExecInterval{15, 17}));
}

TEST(Analyzer, MessageDelaysGateTheReceiver) {
  auto Out = analyzeConfiguration(testcfg::producerConsumer());
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const AnalysisResult &R = Out->Analysis;
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;

  // Producer completes at 4; network delay 5 => consumer ready at 9,
  // executes [9,12).
  const JobStats &Cons = jobOf(R, 1, 0);
  EXPECT_EQ(Cons.ReadyTime, 9);
  ASSERT_EQ(Cons.Intervals.size(), 1u);
  EXPECT_EQ(Cons.Intervals[0], (ExecInterval{9, 12}));
}

TEST(Analyzer, IntraModulePlacementUsesMemoryDelay) {
  cfg::Config C = testcfg::producerConsumer();
  // Move the consumer's core into module 0: delay becomes MemDelay = 1.
  C.Cores[1].Module = 0;
  auto Out = analyzeConfiguration(C);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const JobStats &Cons = jobOf(Out->Analysis, 1, 0);
  EXPECT_EQ(Cons.ReadyTime, 5);
}

TEST(Analyzer, UndeliveredDataFailsTheReceiverJob) {
  cfg::Config C = testcfg::producerConsumer();
  // Make delivery arrive after the consumer's deadline.
  C.Messages[0].NetDelay = 18; // Arrives at 4 + 18 = 22 > deadline 20.
  auto Out = analyzeConfiguration(C);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_FALSE(Out->Analysis.Schedulable);
  const JobStats &Cons = jobOf(Out->Analysis, 1, 0);
  EXPECT_EQ(Cons.ReadyTime, -1);
  EXPECT_TRUE(Cons.Intervals.empty());
  EXPECT_TRUE(Out->failureFlagsConsistent());
}

TEST(Analyzer, EdfSchedulesWhatFppsMisses) {
  // Two tasks where fixed priorities force a miss but EDF succeeds:
  //   a: period 8,  wcet 4, deadline 8
  //   b: period 16, wcet 7, deadline 16
  // Utilization = 0.5 + 0.4375 < 1: EDF schedulable. With b given the
  // higher fixed priority, a misses its first deadline.
  cfg::Config C;
  C.Name = "edf-vs-fpps";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"c", 0, 0});
  cfg::Partition P;
  P.Name = "p";
  P.Core = 0;
  P.Windows.push_back({0, 16});
  P.Tasks.push_back({"a", 1, {4}, 8, 8});
  P.Tasks.push_back({"b", 9, {7}, 16, 16});

  P.Scheduler = cfg::SchedulerKind::FPPS;
  C.Partitions.push_back(P);
  auto Fpps = analyzeConfiguration(C);
  ASSERT_TRUE(Fpps.ok()) << Fpps.error().message();
  EXPECT_FALSE(Fpps->Analysis.Schedulable);

  C.Partitions[0].Scheduler = cfg::SchedulerKind::EDF;
  auto Edf = analyzeConfiguration(C);
  ASSERT_TRUE(Edf.ok()) << Edf.error().message();
  EXPECT_TRUE(Edf->Analysis.Schedulable) << Edf->Analysis.FirstViolation;
}

TEST(Analyzer, FpnpsDoesNotPreempt) {
  // lo (prio 1, wcet 6) becomes ready at 0 together with hi (prio 5,
  // wcet 2). FPPS runs hi first; FPNPS also runs hi first (both ready at
  // the decision point), so trigger the difference via a staggered
  // release: hi has period 10 and lo 5... Instead use the direct effect:
  // under FPNPS, once lo starts, hi's next job waits for lo to finish.
  cfg::Config C;
  C.Name = "fpnps";
  C.NumCoreTypes = 1;
  C.Cores.push_back({"c", 0, 0});
  cfg::Partition P;
  P.Name = "p";
  P.Core = 0;
  P.Scheduler = cfg::SchedulerKind::FPNPS;
  P.Windows.push_back({0, 20});
  P.Tasks.push_back({"hi", 5, {2}, 10, 10});
  P.Tasks.push_back({"lo", 1, {15}, 20, 20});
  C.Partitions.push_back(std::move(P));

  auto Out = analyzeConfiguration(C);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  const AnalysisResult &R = Out->Analysis;
  // hi job 0 runs [0,2); lo runs [2,17) without preemption; hi job 1
  // (released at 10) must wait until 17: response 9 <= 10, schedulable.
  EXPECT_TRUE(R.Schedulable) << R.FirstViolation;
  const JobStats &Lo = jobOf(R, 1, 0);
  ASSERT_EQ(Lo.Intervals.size(), 1u);
  EXPECT_EQ(Lo.Intervals[0], (ExecInterval{2, 17}));
  EXPECT_EQ(Lo.Preemptions, 0);
  const JobStats &Hi1 = jobOf(R, 0, 1);
  ASSERT_EQ(Hi1.Intervals.size(), 1u);
  EXPECT_EQ(Hi1.Intervals[0], (ExecInterval{17, 19}));
}

TEST(Analyzer, TraceDeterminismUnderRandomizedInterleaving) {
  // The paper's §3 theorem, checked empirically: randomized interleaving
  // choices must yield the same job-level trace.
  cfg::Config C = testcfg::producerConsumer();
  auto Ref = analyzeConfiguration(C);
  ASSERT_TRUE(Ref.ok()) << Ref.error().message();

  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    nsa::SimOptions Opts;
    Opts.RandomOrder = &R;
    auto Out = analyzeConfiguration(C, Opts);
    ASSERT_TRUE(Out.ok()) << Out.error().message();
    EXPECT_TRUE(jobTracesEquivalent(Ref->Analysis, Out->Analysis))
        << "seed " << Seed;
  }
}

namespace {

/// FNV-1a digests of what Algorithm 1 produces for one configuration:
/// every automaton's static read set, the printed network, and the
/// compiled code sites plus constant tables (which cover function bodies
/// the printer elides).
struct ConstructionDigest {
  uint64_t Reads = 0;
  uint64_t Network = 0;
  uint64_t Code = 0;
};

constexpr uint64_t FnvOffset = 1469598103934665603ull;

uint64_t fnv(uint64_t H, const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

template <class T> uint64_t fnvValue(uint64_t H, T V) {
  return fnv(H, &V, sizeof V);
}

ConstructionDigest digestConstruction(const cfg::Config &C) {
  ConstructionDigest D;
  auto Model = core::buildModel(C);
  EXPECT_TRUE(Model.ok()) << Model.error().message();
  if (!Model.ok())
    return D;
  sa::Network &Net = *Model->Net;
  D.Reads = FnvOffset;
  for (const auto &A : Net.Automata) {
    D.Reads = fnvValue<uint64_t>(D.Reads, A->StaticReads.size());
    for (int32_t Slot : A->StaticReads)
      D.Reads = fnvValue(D.Reads, Slot);
  }
  std::string Printed = sa::printNetwork(Net);
  D.Network = fnv(FnvOffset, Printed.data(), Printed.size());
  D.Code = FnvOffset;
  sa::forEachCodeSite(Net, [&](const usl::Code &Site) {
    D.Code = fnvValue<uint64_t>(D.Code, Site.size());
    for (const usl::Insn &I : Site) {
      D.Code = fnvValue(D.Code, static_cast<uint8_t>(I.Code));
      D.Code = fnvValue(D.Code, I.A);
      D.Code = fnvValue(D.Code, I.Imm);
    }
  });
  for (const std::vector<int64_t> &Arr : Net.Bind.ConstArrays) {
    D.Code = fnvValue<uint64_t>(D.Code, Arr.size());
    for (int64_t V : Arr)
      D.Code = fnvValue(D.Code, V);
  }
  return D;
}

cfg::Config withScheduler(cfg::Config C, cfg::SchedulerKind K) {
  for (cfg::Partition &P : C.Partitions)
    P.Scheduler = K;
  return C;
}

} // namespace

// Construction is pinned to the output of the original, fully expanding
// read-set collection and deep-cloning binder: symbolic whole-array reads
// and single-pass binding must not change a single slot, label or
// instruction.
TEST(InstanceBuilder, ConstructionMatchesPinnedDigests) {
  struct Case {
    const char *Name;
    cfg::Config C;
    ConstructionDigest Want;
  };
  const Case Cases[] = {
      {"industrial-2500", gen::industrialConfigWithJobs(2500, 1),
       {0xed4661088a2696bbull, 0x34170a6f43fced1eull,
        0xb2c6fe092c374a72ull}},
      {"producer-consumer-fpnps",
       withScheduler(testcfg::producerConsumer(), cfg::SchedulerKind::FPNPS),
       {0x234883ec0aaeba00ull, 0x4be316386117bff5ull,
        0x443782faf3580881ull}},
      {"producer-consumer-edf",
       withScheduler(testcfg::producerConsumer(), cfg::SchedulerKind::EDF),
       {0x234883ec0aaeba00ull, 0x872aa466f12ef442ull,
        0xfde6cd5cc9f5a3f6ull}},
  };
  for (const Case &K : Cases) {
    ConstructionDigest Got = digestConstruction(K.C);
    EXPECT_EQ(Got.Reads, K.Want.Reads) << K.Name;
    EXPECT_EQ(Got.Network, K.Want.Network) << K.Name;
    EXPECT_EQ(Got.Code, K.Want.Code) << K.Name;
  }
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
