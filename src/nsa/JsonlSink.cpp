//===- nsa/JsonlSink.cpp - JSON Lines trace writer ------------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "nsa/JsonlSink.h"

#include "obs/RunReport.h"
#include "support/StringUtils.h"

#include <ostream>

using namespace swa;
using namespace swa::nsa;
using obs::jsonEscape;

void JsonlSink::onRunStart(const sa::Network &Network, const State &) {
  Net = &Network;
  SlotNames.assign(Network.InitialStore.size(), std::string());
  for (const sa::VarInfo &V : Network.Vars)
    for (int I = 0; I < V.Size; ++I)
      if (static_cast<size_t>(V.Base + I) < SlotNames.size())
        SlotNames[static_cast<size_t>(V.Base + I)] =
            V.Size == 1 ? V.Name : formatString("%s[%d]", V.Name.c_str(), I);
}

void JsonlSink::sealRecord() {
  ++Lines;
  if (FlushEachRecord)
    OS.flush();
}

std::string JsonlSink::onStep(const State &Post, const Step &St,
                              const std::vector<int32_t> &Writes) {
  auto AutName = [&](int32_t Aut) -> const std::string & {
    return Net->Automata[static_cast<size_t>(Aut)]->Name;
  };
  OS << "{\"k\":\"action\",\"t\":" << Post.Now;
  if (St.Initiator.ChanId >= 0)
    OS << ",\"chan\":\""
       << jsonEscape(Net->channelIdName(St.Initiator.ChanId)) << "\"";
  OS << ",\"init\":\"" << jsonEscape(AutName(St.InitiatorAut))
     << "\",\"edge\":" << St.Initiator.Edge << ",\"recv\":[";
  for (size_t I = 0; I < St.Receivers.size(); ++I)
    OS << (I ? ",\"" : "\"") << jsonEscape(AutName(St.Receivers[I].Aut))
       << "\"";
  OS << "]}\n";
  sealRecord();

  for (int32_t Slot : Writes) {
    OS << "{\"k\":\"write\",\"t\":" << Post.Now << ",\"var\":\""
       << jsonEscape(SlotNames[static_cast<size_t>(Slot)])
       << "\",\"slot\":" << Slot
       << ",\"val\":" << Post.Store[static_cast<size_t>(Slot)] << "}\n";
    sealRecord();
  }
  return {};
}

std::string JsonlSink::onDelay(int64_t From, const State &Post) {
  OS << "{\"k\":\"delay\",\"from\":" << From << ",\"to\":" << Post.Now
     << "}\n";
  sealRecord();
  return {};
}

std::string JsonlSink::onRunEnd(const State &, StopReason Stop,
                                const std::string &Error) {
  OS << "{\"k\":\"end\",\"stop\":\"" << jsonEscape(stopReasonName(Stop))
     << "\"";
  if (!Error.empty())
    OS << ",\"err\":\"" << jsonEscape(Error) << "\"";
  OS << "}\n";
  ++Lines;
  // Always seal the stream at run end, even when per-record flushing is off.
  OS.flush();
  return {};
}
