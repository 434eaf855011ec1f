//===- tests/BenchObsSmokeTest.cpp - Bench reporting path smoke test -------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Exercises the machine-readable reporting path behind
// `examples/config_search --report-out/--trace-out`, but through the
// library APIs, so `ctest -L perf` catches a broken exporter: a
// full-observability search must produce a Chrome trace of its round and
// simulate phases and a RunReport whose numbers match the SearchResult
// the search returned.
//
//===----------------------------------------------------------------------===//

#include "gen/Workload.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timer.h"
#include "schedtool/ConfigSearch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace swa;

namespace {

struct FullObsScope {
  FullObsScope() {
    obs::Registry::global().reset();
    obs::PhaseTree::resetAll();
    obs::resetSpans();
    obs::setEnabled(true);
    obs::setSpansEnabled(true);
  }
  ~FullObsScope() {
    obs::setEnabled(false);
    obs::setSpansEnabled(false);
    obs::Registry::global().reset();
    obs::PhaseTree::resetAll();
    obs::resetSpans();
  }
};

schedtool::SearchProblem smallSearchProblem() {
  gen::IndustrialParams Params;
  Params.Modules = 1;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.5;
  Params.Seed = 11;
  schedtool::SearchProblem Problem;
  Problem.Base = gen::industrialConfig(Params);
  for (cfg::Partition &P : Problem.Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  Problem.Seed = 11;
  Problem.MaxIterations = 12;
  Problem.Workers = 2;
  return Problem;
}

TEST(BenchObsSmoke, SearchUnderFullObservabilityExportsTraceAndReport) {
  FullObsScope Scope;
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(smallSearchProblem());
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_GT(Res->ConfigurationsEvaluated, 0);

  // The trace must carry the phases the profiling walkthrough documents:
  // one "round" per candidate batch and a "simulate" per work item.
  EXPECT_GT(obs::spanCount(), 0u);
  std::ostringstream Trace;
  obs::writeChromeTrace(Trace);
  const std::string T = Trace.str();
  EXPECT_NE(T.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(T.find("\"round\""), std::string::npos);
  EXPECT_NE(T.find("\"simulate\""), std::string::npos);
  EXPECT_NE(T.find("\"ph\":\"X\""), std::string::npos);

  // The report must agree with the SearchResult the caller prints.
  obs::RunReport Report("config_search");
  schedtool::fillSearchReport(Report, *Res, /*ElapsedSec=*/1.0);
  std::ostringstream OS;
  Report.write(OS);
  const std::string R = OS.str();
  EXPECT_NE(R.find("\"swa_run_report\":1"), std::string::npos);
  EXPECT_NE(R.find("\"candidates.evaluated\":" +
                   std::to_string(Res->ConfigurationsEvaluated)),
            std::string::npos);
  EXPECT_NE(R.find("\"cache.hits\":" + std::to_string(Res->CacheHits)),
            std::string::npos);
  EXPECT_NE(R.find("\"candidates_per_sec\":"), std::string::npos);
  // At least one stop-reason bucket is populated for any decided search.
  EXPECT_NE(R.find("\"stop."), std::string::npos);
}

TEST(BenchObsSmoke, ReportFileRoundTripsThroughDisk) {
  FullObsScope Scope;
  obs::RunReport Report("smoke");
  Report.addCount("alpha", 1);
  std::string Err;
  const std::string Path = ::testing::TempDir() + "swa-smoke-report.json";
  ASSERT_TRUE(Report.writeFile(Path, Err)) << Err;
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("\"swa_run_report\":1"), std::string::npos);
  EXPECT_NE(Buf.str().find("\"tool\":\"smoke\""), std::string::npos);
  std::remove(Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
