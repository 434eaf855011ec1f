//===- difftest/Campaign.cpp - Seeded differential campaign -----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "difftest/Campaign.h"

#include "configio/ConfigXml.h"
#include "core/InstanceBuilder.h"
#include "gen/Adversarial.h"
#include "obs/Timer.h"
#include "support/Rng.h"
#include "xml/Xml.h"

using namespace swa;
using namespace swa::difftest;

uint64_t swa::difftest::campaignConfigSeed(uint64_t MasterSeed, int Index) {
  // splitmix-style decorrelation so neighbouring indices draw unrelated
  // configurations.
  uint64_t Z = MasterSeed + 0x9e3779b97f4a7c15ULL *
                                (static_cast<uint64_t>(Index) + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

namespace {

/// Feeds the XML parser mutated copies of \p Doc: truncations, byte
/// flips, inserted markup. Success or structured failure are both fine;
/// the parser just must not crash, hang, or recurse without bound (run
/// under sanitizers in CI this is the actual assertion).
int fuzzXmlParser(const std::string &Doc, Rng &R, int Count) {
  int Fed = 0;
  for (int I = 0; I < Count; ++I) {
    std::string Mutated = Doc;
    switch (R.index(4)) {
    case 0: // Truncate at a random point.
      Mutated.resize(R.index(Mutated.size() + 1));
      break;
    case 1: // Flip one byte.
      if (!Mutated.empty())
        Mutated[R.index(Mutated.size())] =
            static_cast<char>(R.uniformInt(1, 255));
      break;
    case 2: // Insert hostile markup.
      Mutated.insert(R.index(Mutated.size() + 1),
                     R.chance(0.5) ? "<x>" : "&#99999999999999999999;");
      break;
    default: // Duplicate a random chunk (unbalances the tree).
      if (!Mutated.empty()) {
        size_t From = R.index(Mutated.size());
        size_t Len = R.index(Mutated.size() - From) + 1;
        Mutated.insert(R.index(Mutated.size() + 1),
                       Mutated.substr(From, Len));
      }
      break;
    }
    // Low limits exercise the bounds code, default limits the grammar.
    if (R.chance(0.3)) {
      xml::ParseLimits Tight;
      Tight.MaxDepth = 8;
      Tight.MaxNameLength = 32;
      Tight.MaxAttrValueLength = 256;
      Tight.MaxTextLength = 1024;
      (void)xml::parse(Mutated, Tight);
    } else {
      (void)xml::parse(Mutated);
    }
    ++Fed;
  }
  return Fed;
}

} // namespace

CampaignResult swa::difftest::runCampaign(const CampaignOptions &Options) {
  CampaignResult Res;
  for (int I = 0; I < Options.NumConfigs; ++I) {
    uint64_t ConfigSeed = campaignConfigSeed(Options.Seed, I);
    obs::ScopedTimer ConfigTimer("difftest.config");
    Rng R(ConfigSeed);
    cfg::Config C = gen::adversarialConfig(R);

    // XML front-end fuzzing rides along on every draw, valid or not.
    std::string Doc = configio::writeConfigXml(C);
    Res.XmlDocsFuzzed +=
        fuzzXmlParser(Doc, R, Options.XmlFuzzPerConfig);

    if (Error E = C.validate()) {
      // Invalid by design (e.g. the zero-WCET mutator): the whole
      // pipeline must reject it with a structured error. buildModel
      // re-validates; reaching a model here would be a mismatch.
      Result<core::BuiltModel> Model = core::buildModel(C);
      if (Model.ok()) {
        Discrepancy D;
        D.Pair = OraclePair::TraceInvariants;
        D.Expected = "structured rejection: " + E.message();
        D.Actual = "buildModel accepted an invalid configuration";
        D.Detail = E.message();
        Res.Mismatches.push_back({I, ConfigSeed, std::move(D), Doc});
      }
      ++Res.RejectedConfigs;
      continue;
    }

    ++Res.ConfigsRun;
    OracleReport Rep = runOracles(C, Options.Oracle);
    Res.OraclePairsRun += Rep.PairsRun;
    if (!Rep.SkipReason.empty())
      ++Res.SkippedConfigs;
    for (Discrepancy &D : Rep.Mismatches)
      Res.Mismatches.push_back({I, ConfigSeed, std::move(D), Doc});
  }
  return Res;
}
