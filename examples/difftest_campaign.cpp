//===- examples/difftest_campaign.cpp - Differential fuzzing CLI -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Runs a seeded differential-testing campaign: adversarial configurations
// through every applicable oracle pair, with the online trace-invariant
// checker inside every simulator run and mutated XML fed to the parser.
// On a mismatch the configuration is delta-debugged to a 1-minimal
// reproducer and written as a bundle that examples/replay re-executes.
//
//   $ ./difftest_campaign [--seed N] [--configs N] [--budget-ms N]
//                         [--no-mc] [--out DIR]
//                         [--trace-out FILE] [--report-out FILE]
//
// --trace-out writes a chrome://tracing (Perfetto) timeline of the timed
// phases: one `difftest.config` per campaign configuration, with the
// `vm.run`/`interp.run` oracle runs and their builds and simulations
// inside; --report-out writes a machine-readable obs::RunReport JSON of
// the campaign totals. Neither changes which configurations run or what
// the oracles compare.
//
// Exit status: 0 when the campaign is clean, 1 on any oracle mismatch or
// usage error.
//
//===----------------------------------------------------------------------===//

#include "configio/ConfigXml.h"
#include "difftest/Campaign.h"
#include "difftest/Reproducer.h"
#include "difftest/Shrink.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

using namespace swa;

static const char kUsage[] =
    "usage: difftest_campaign [--seed N] [--configs N] [--budget-ms N] "
    "[--no-mc] [--out DIR] [--trace-out FILE] [--report-out FILE]\n";

int main(int argc, char **argv) {
  difftest::CampaignOptions Options;
  std::string OutDir = ".";
  std::string TracePath, ReportPath;
  for (int I = 1; I < argc; ++I) {
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n%s", Flag, kUsage);
        std::exit(1);
      }
      return argv[++I];
    };
    // A numeric flag value outside [Min, Max] — signed, malformed or
    // out of range — is a usage error, never a silent default.
    auto NextNum = [&](const char *Flag, uint64_t Min,
                       uint64_t Max) -> uint64_t {
      const char *Arg = NextArg(Flag);
      uint64_t V = 0;
      if (!parseDecimal(Arg, V) || V < Min || V > Max) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n%s", Arg,
                     Flag, kUsage);
        std::exit(1);
      }
      return V;
    };
    if (std::strcmp(argv[I], "--seed") == 0)
      Options.Seed = NextNum("--seed", 0, UINT64_MAX);
    else if (std::strcmp(argv[I], "--configs") == 0)
      Options.NumConfigs = static_cast<int>(NextNum("--configs", 1, INT_MAX));
    else if (std::strcmp(argv[I], "--budget-ms") == 0)
      Options.Oracle.SimBudgetMs =
          static_cast<int64_t>(NextNum("--budget-ms", 0, INT64_MAX));
    else if (std::strcmp(argv[I], "--no-mc") == 0)
      Options.Oracle.EnableMc = false;
    else if (std::strcmp(argv[I], "--out") == 0)
      OutDir = NextArg("--out");
    else if (std::strcmp(argv[I], "--trace-out") == 0)
      TracePath = NextArg("--trace-out");
    else if (std::strcmp(argv[I], "--report-out") == 0)
      ReportPath = NextArg("--report-out");
    else {
      std::fprintf(stderr, "error: unrecognized argument '%s'\n%s", argv[I],
                   kUsage);
      return 1;
    }
  }

  if (!TracePath.empty() || !ReportPath.empty())
    obs::setEnabled(true);
  if (!TracePath.empty())
    obs::setSpansEnabled(true);

  auto T0 = std::chrono::steady_clock::now();
  difftest::CampaignResult Res = difftest::runCampaign(Options);
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  std::printf("campaign: seed=%llu configs=%d run=%d rejected=%d "
              "skipped=%d oracle-pairs=%d xml-docs-fuzzed=%d "
              "mismatches=%zu\n",
              static_cast<unsigned long long>(Options.Seed),
              Options.NumConfigs, Res.ConfigsRun, Res.RejectedConfigs,
              Res.SkippedConfigs, Res.OraclePairsRun, Res.XmlDocsFuzzed,
              Res.Mismatches.size());

  if (!TracePath.empty()) {
    std::string Err;
    if (!obs::writeChromeTraceFile(TracePath, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("trace: %zu phases -> %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                obs::spanCount(), TracePath.c_str());
  }
  if (!ReportPath.empty()) {
    obs::RunReport Report("difftest_campaign");
    Report.addCount("configs.requested",
                    static_cast<uint64_t>(Options.NumConfigs));
    Report.addCount("configs.run", static_cast<uint64_t>(Res.ConfigsRun));
    Report.addCount("configs.rejected",
                    static_cast<uint64_t>(Res.RejectedConfigs));
    Report.addCount("configs.skipped",
                    static_cast<uint64_t>(Res.SkippedConfigs));
    Report.addCount("oracle.pairs_run",
                    static_cast<uint64_t>(Res.OraclePairsRun));
    Report.addCount("xml.docs_fuzzed",
                    static_cast<uint64_t>(Res.XmlDocsFuzzed));
    Report.addCount("mismatches",
                    static_cast<uint64_t>(Res.Mismatches.size()));
    if (ElapsedSec > 0)
      Report.addStat("configs_per_sec",
                     static_cast<double>(Res.ConfigsRun) / ElapsedSec);
    std::string Err;
    if (!Report.writeFile(ReportPath, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::printf("report: %s\n", ReportPath.c_str());
  }

  if (Res.clean())
    return 0;

  // Shrink and bundle every mismatch (typically there is at most one).
  int BundleId = 0;
  for (const difftest::CampaignMismatch &M : Res.Mismatches) {
    std::printf("mismatch #%d: config %d (seed %llu) pair=%s\n"
                "  expected: %s\n  actual:   %s\n  detail:   %s\n",
                BundleId, M.ConfigIndex,
                static_cast<unsigned long long>(M.ConfigSeed),
                difftest::oraclePairName(M.Finding.Pair),
                M.Finding.Expected.c_str(), M.Finding.Actual.c_str(),
                M.Finding.Detail.c_str());

    Result<cfg::Config> Parsed = configio::parseConfigXml(M.ConfigXml);
    if (!Parsed.ok())
      continue;
    difftest::OraclePair Pair = M.Finding.Pair;
    auto Reproduces = [&](const cfg::Config &Candidate) {
      difftest::OracleReport Rep =
          difftest::runOracles(Candidate, Options.Oracle);
      for (const difftest::Discrepancy &D : Rep.Mismatches)
        if (D.Pair == Pair)
          return true;
      return false;
    };
    difftest::Reproducer Bundle;
    Bundle.Config = Reproduces(*Parsed)
                        ? difftest::shrinkConfig(*Parsed, Reproduces)
                        : *Parsed;
    Bundle.Seed = M.ConfigSeed;
    Bundle.Pair = Pair;
    Bundle.Expected = M.Finding.Expected;
    Bundle.Actual = M.Finding.Actual;
    Bundle.Detail = M.Finding.Detail;
    // Shrinking can change the verdict strings (e.g. a different state
    // count); re-record the pair the *shrunk* configuration produces so
    // examples/replay matches it bit-for-bit.
    difftest::OracleReport Shrunk =
        difftest::runOracles(Bundle.Config, Options.Oracle);
    for (const difftest::Discrepancy &D : Shrunk.Mismatches) {
      if (D.Pair != Pair)
        continue;
      Bundle.Expected = D.Expected;
      Bundle.Actual = D.Actual;
      Bundle.Detail = D.Detail;
      break;
    }

    std::string Path =
        OutDir + "/repro-" + std::to_string(BundleId) + ".xml";
    std::ofstream Out(Path);
    Out << difftest::writeReproducerXml(Bundle);
    std::printf("  reproducer written to %s (replay with "
                "examples/replay)\n",
                Path.c_str());
    ++BundleId;
  }
  return 1;
}
