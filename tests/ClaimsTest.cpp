//===- tests/ClaimsTest.cpp - The paper's shape claims as assertions ------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Scaled-down checks of the paper's shape claims, run as `ctest -L claims`.
// The timed ones compare the engine with itself at two sizes in one
// process, so the host's speed cancels out: a failure means the shape
// broke, not that the host is slow.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "core/InstanceBuilder.h"
#include "gen/BurstModel.h"
#include "gen/Workload.h"
#include "mc/ModelChecker.h"
#include "nsa/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

using namespace swa;

namespace {

/// True when both runs fired the same events in the same order (receiver
/// lists aside).
bool sameEventOrder(const nsa::Trace &A, const nsa::Trace &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const nsa::Event &X, const nsa::Event &Y) {
                      return X.Time == Y.Time && X.Channel == Y.Channel &&
                             X.Initiator.Automaton == Y.Initiator.Automaton &&
                             X.Initiator.Edge == Y.Initiator.Edge;
                    });
}

/// Wall time of one core::buildModel call in nanoseconds.
double buildNs(const cfg::Config &C) {
  auto T0 = std::chrono::steady_clock::now();
  Result<core::BuiltModel> Model = core::buildModel(C);
  auto T1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(Model.ok()) << Model.error().message();
  return std::chrono::duration<double, std::nano>(T1 - T0).count();
}

/// Wall time of one simulation run in nanoseconds.
double runNs(nsa::Simulator &Sim) {
  auto T0 = std::chrono::steady_clock::now();
  nsa::SimResult R = Sim.run();
  auto T1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::chrono::duration<double, std::nano>(T1 - T0).count();
}

} // namespace

// E3: Algorithm 1 builds the NSA instance in time linear in the
// configuration, so the cost per job stays flat as the system grows 5x.
// The two sizes are timed interleaved and the minimum of three builds
// each is compared, which keeps host noise out of the ratio.
TEST(Claims, ConstructionIsLinearInJobs) {
  cfg::Config Small = gen::industrialConfigWithJobs(2500, 1);
  cfg::Config Large = gen::industrialConfigWithJobs(12500, 1);
  double SmallNs = std::numeric_limits<double>::max();
  double LargeNs = SmallNs;
  for (int Rep = 0; Rep < 3; ++Rep) {
    SmallNs = std::min(SmallNs, buildNs(Small));
    LargeNs = std::min(LargeNs, buildNs(Large));
  }
  double SmallPerJob = SmallNs / static_cast<double>(Small.jobCount());
  double LargePerJob = LargeNs / static_cast<double>(Large.jobCount());
  EXPECT_LE(LargePerJob, 1.5 * SmallPerJob)
      << "ns per job: " << SmallPerJob << " at " << Small.jobCount()
      << " jobs, " << LargePerJob << " at " << Large.jobCount() << " jobs";
}

// E1 (Table 1), scaled down: on the burst family, exhaustive model
// checking explores at least the 2^n interleaving lattice, so its state
// count doubles per added job, while one simulated run costs the same per
// job. The state counts are pinned (2^n plus 2n), and so are those of the
// full IMA stack, whose execution clocks are stopwatches: a clock encoding
// that merged or split states would fail here.
TEST(Claims, ModelCheckingDoublesWhileSimulationStaysFlat) {
  const uint64_t PinnedFullStack[] = {2474, 24659};
  for (int I = 0; I < 2; ++I) {
    auto Model = core::buildModel(gen::table1Config(3 + I));
    ASSERT_TRUE(Model.ok()) << Model.error().message();
    mc::McResult R = mc::ModelChecker(*Model->Net).explore();
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.StatesExplored, PinnedFullStack[I]) << 3 + I << " jobs";
  }

  const uint64_t PinnedStates[] = {272, 530, 1044, 2070, 4120};
  uint64_t Prev = 0;
  for (int I = 0; I < 5; ++I) {
    int Jobs = 8 + I;
    auto Net = gen::burstNetwork(Jobs);
    ASSERT_TRUE(Net.ok()) << Net.error().message();
    mc::McResult R = mc::ModelChecker(**Net).explore();
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.StatesExplored, PinnedStates[I]) << Jobs << " jobs";
    EXPECT_GE(R.StatesExplored, uint64_t{1} << Jobs) << Jobs << " jobs";
    if (Prev != 0) {
      EXPECT_GE(static_cast<double>(R.StatesExplored),
                1.9 * static_cast<double>(Prev))
          << Jobs << " jobs";
    }
    Prev = R.StatesExplored;
  }

  const int SmallJobs = 500, LargeJobs = 2500;
  auto SmallNet = gen::burstNetwork(SmallJobs);
  auto LargeNet = gen::burstNetwork(LargeJobs);
  ASSERT_TRUE(SmallNet.ok()) << SmallNet.error().message();
  ASSERT_TRUE(LargeNet.ok()) << LargeNet.error().message();
  nsa::Simulator SmallSim(**SmallNet), LargeSim(**LargeNet);
  double SmallNs = std::numeric_limits<double>::max();
  double LargeNs = SmallNs;
  for (int Rep = 0; Rep < 3; ++Rep) {
    SmallNs = std::min(SmallNs, runNs(SmallSim));
    LargeNs = std::min(LargeNs, runNs(LargeSim));
  }
  double SmallPerJob = SmallNs / SmallJobs;
  double LargePerJob = LargeNs / LargeJobs;
  EXPECT_LE(LargePerJob, 1.5 * SmallPerJob)
      << "simulation ns per job: " << SmallPerJob << " at " << SmallJobs
      << " jobs, " << LargePerJob << " at " << LargeJobs << " jobs";
}

// E5: the determinism theorem that licenses one simulated run in place of
// model checking. Runs that pick among simultaneously enabled actions in a
// random order produce the same job trace as the deterministic order
// (bench_determinism's configuration: industrial 2x2x2, seed 5). At least
// one order must really differ, or the check would hold vacuously.
TEST(Claims, RandomizedInterleavingsAreTraceEquivalent) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.Seed = 5;
  cfg::Config Config = gen::industrialConfig(P);
  ASSERT_EQ(Config.jobCount(), 196);
  auto Ref = analysis::analyzeConfiguration(Config);
  ASSERT_TRUE(Ref.ok()) << Ref.error().message();

  int Reordered = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    Rng R(Seed);
    nsa::SimOptions Opts;
    Opts.RandomOrder = &R;
    auto Out = analysis::analyzeConfiguration(Config, Opts);
    ASSERT_TRUE(Out.ok()) << "seed " << Seed << ": " << Out.error().message();
    EXPECT_TRUE(analysis::jobTracesEquivalent(Ref->Analysis, Out->Analysis))
        << "seed " << Seed;
    if (!sameEventOrder(Ref->Sim.Events, Out->Sim.Events))
      ++Reordered;
  }
  EXPECT_GT(Reordered, 0) << "no random order differed from the "
                             "deterministic one";
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
