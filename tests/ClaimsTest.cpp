//===- tests/ClaimsTest.cpp - The paper's shape claims as assertions ------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Scaled-down checks of the paper's shape claims, run as `ctest -L claims`.
// They compare the engine with itself at two sizes in one process, so the
// host's speed cancels out: a failure means the shape broke, not that the
// host is slow.
//
//===----------------------------------------------------------------------===//

#include "core/InstanceBuilder.h"
#include "gen/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

using namespace swa;

namespace {

/// Wall time of one core::buildModel call in nanoseconds.
double buildNs(const cfg::Config &C) {
  auto T0 = std::chrono::steady_clock::now();
  Result<core::BuiltModel> Model = core::buildModel(C);
  auto T1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(Model.ok()) << Model.error().message();
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

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
