//===- difftest/Reproducer.cpp - Deterministic failure replay ---------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "difftest/Reproducer.h"

#include "configio/ConfigXml.h"
#include "core/InstanceBuilder.h"
#include "difftest/TraceInvariants.h"
#include "support/StringUtils.h"
#include "xml/Xml.h"

using namespace swa;
using namespace swa::difftest;

namespace {

Result<OraclePair> pairFromName(const std::string &Name) {
  for (OraclePair P :
       {OraclePair::VmVsInterpreter, OraclePair::SimVsRta,
        OraclePair::SimVsMc, OraclePair::TraceInvariants,
        OraclePair::XmlRoundTrip})
    if (Name == oraclePairName(P))
      return P;
  return Error::failure("unknown oracle pair '" + Name + "'");
}

Result<nsa::FaultPlan::Kind> faultKindFromName(const std::string &Name) {
  for (nsa::FaultPlan::Kind K :
       {nsa::FaultPlan::Kind::FlipVariable, nsa::FaultPlan::Kind::SkipSync,
        nsa::FaultPlan::Kind::SkewClock})
    if (Name == nsa::faultKindName(K))
      return K;
  return Error::failure("unknown fault kind '" + Name + "'");
}

Result<int64_t> intAttr(const xml::Node &N, const char *Name) {
  const std::string *V = N.attr(Name);
  if (!V)
    return Error::failure(formatString("<%s> is missing attribute '%s'",
                                       N.Tag.c_str(), Name));
  int64_t Out;
  if (!parseInt64(*V, Out))
    return Error::failure(formatString(
        "<%s> attribute '%s' is not an integer: '%s'", N.Tag.c_str(), Name,
        V->c_str()));
  return Out;
}

} // namespace

std::string swa::difftest::writeReproducerXml(const Reproducer &R) {
  xml::Node Root;
  Root.Tag = "reproducer";
  Root.setAttr("seed", formatString("%llu",
                                    static_cast<unsigned long long>(
                                        R.Seed)));
  Root.setAttr("pair", oraclePairName(R.Pair));
  Root.setAttr("expected", R.Expected);
  Root.setAttr("actual", R.Actual);
  if (!R.Detail.empty())
    Root.addChild("detail")->Text = R.Detail;
  Root.Children.push_back(configio::configToXmlNode(R.Config));
  if (R.HasFault) {
    xml::Node *F = Root.addChild("fault");
    F->setAttr("kind", nsa::faultKindName(R.Fault.FaultKind));
    F->setAttr("at", formatString("%llu",
                                  static_cast<unsigned long long>(
                                      R.Fault.AtAction)));
    F->setAttr("index", formatString("%d", R.Fault.Index));
    F->setAttr("delta", formatString("%lld",
                                     static_cast<long long>(
                                         R.Fault.Delta)));
  }
  return xml::write(Root);
}

Result<Reproducer>
swa::difftest::parseReproducerXml(std::string_view Source) {
  Result<xml::NodePtr> Doc = xml::parse(Source);
  if (!Doc.ok())
    return Doc.takeError();
  const xml::Node &Root = **Doc;
  if (Root.Tag != "reproducer")
    return Error::failure("expected a <reproducer> root element, found <" +
                          Root.Tag + ">");

  Reproducer R;
  // Seeds are uint64 and routinely exceed the int64 range; parse unsigned.
  const std::string *SeedStr = Root.attr("seed");
  if (!SeedStr)
    return Error::failure("<reproducer> is missing attribute 'seed'");
  if (!parseUInt64(*SeedStr, R.Seed))
    return Error::failure(formatString(
        "<reproducer> attribute 'seed' is not an unsigned integer: '%s'",
        SeedStr->c_str()));

  Result<OraclePair> Pair = pairFromName(Root.attrOr("pair", ""));
  if (!Pair.ok())
    return Pair.takeError();
  R.Pair = *Pair;
  R.Expected = Root.attrOr("expected", "");
  R.Actual = Root.attrOr("actual", "");
  if (const xml::Node *D = Root.child("detail"))
    R.Detail = D->Text;

  const xml::Node *Cfg = Root.child("configuration");
  if (!Cfg)
    return Error::failure("reproducer has no embedded <configuration>");
  Result<cfg::Config> C = configio::configFromXmlNode(*Cfg);
  if (!C.ok())
    return C.takeError();
  R.Config = C.takeValue();

  if (const xml::Node *F = Root.child("fault")) {
    R.HasFault = true;
    Result<nsa::FaultPlan::Kind> Kind =
        faultKindFromName(F->attrOr("kind", ""));
    if (!Kind.ok())
      return Kind.takeError();
    R.Fault.FaultKind = *Kind;
    Result<int64_t> At = intAttr(*F, "at");
    Result<int64_t> Index = intAttr(*F, "index");
    Result<int64_t> Delta = intAttr(*F, "delta");
    if (!At.ok())
      return At.takeError();
    if (!Index.ok())
      return Index.takeError();
    if (!Delta.ok())
      return Delta.takeError();
    R.Fault.AtAction = static_cast<uint64_t>(*At);
    R.Fault.Index = static_cast<int32_t>(*Index);
    R.Fault.Delta = *Delta;
  }
  return R;
}

Result<ReplayOutcome>
swa::difftest::replayReproducer(const Reproducer &R,
                                const OracleOptions &Options) {
  ReplayOutcome Out;

  if (R.HasFault) {
    // Checker self-test replay: inject the recorded fault and report how
    // the run ends. Expected is always "completed" (a clean run);
    // Actual is the stop reason the injected fault provokes.
    Result<core::BuiltModel> Model = core::buildModel(R.Config);
    if (!Model.ok())
      return Model.takeError();
    TraceInvariantChecker Checker(*Model);
    nsa::FaultPlan Fault = R.Fault;
    Fault.Fired = false;
    nsa::SimOptions SimOpts;
    SimOpts.Observer = &Checker;
    SimOpts.Fault = &Fault;
    nsa::Simulator Sim(*Model->Net);
    nsa::SimResult Res = Sim.run(SimOpts);
    Out.Expected = "completed";
    Out.Actual = nsa::stopReasonName(Res.Stop);
    Out.Detail = Res.Error;
    Out.Reproduced = Out.Expected == R.Expected && Out.Actual == R.Actual;
    return Out;
  }

  // Oracle replay: re-run the full matrix and look for the recorded pair.
  OracleReport Rep = runOracles(R.Config, Options);
  if (!Rep.SkipReason.empty())
    return Error::failure("replay could not run the oracles: " +
                          Rep.SkipReason);
  for (const Discrepancy &D : Rep.Mismatches) {
    if (D.Pair != R.Pair)
      continue;
    Out.Expected = D.Expected;
    Out.Actual = D.Actual;
    Out.Detail = D.Detail;
    Out.Reproduced = D.Expected == R.Expected && D.Actual == R.Actual;
    if (Out.Reproduced)
      return Out;
  }
  if (Out.Expected.empty()) {
    Out.Expected = R.Expected;
    Out.Actual = "(no mismatch on replay)";
    Out.Detail = "the recorded oracle pair reported no discrepancy";
  }
  return Out;
}
