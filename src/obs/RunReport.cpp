//===- obs/RunReport.cpp - Machine-readable run summaries ------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "obs/RunReport.h"

#include "obs/Metrics.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <fstream>
#include <ostream>

using namespace swa;
using namespace swa::obs;

std::string swa::obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    unsigned char U = static_cast<unsigned char>(Ch);
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (U < 0x20)
        Out += formatString("\\u%04x", U);
      else
        Out += Ch;
    }
  }
  return Out;
}

namespace {
/// Serializes \p Root's children as a JSON array of
/// {"name","ns","count","children"} objects.
void writePhaseChildrenJson(std::ostream &OS, const PhaseTree::Node &Root) {
  struct Emit {
    std::ostream &OS;
    void node(const PhaseTree::Node &N, bool First) {
      if (!First)
        OS << ",";
      OS << "{\"name\":\"" << N.Name << "\",\"ns\":" << N.Nanos
         << ",\"count\":" << N.Count << ",\"children\":[";
      bool F = true;
      for (const auto &C : N.Children) {
        node(*C, F);
        F = false;
      }
      OS << "]}";
    }
  } E{OS};
  OS << "[";
  bool First = true;
  for (const auto &C : Root.Children) {
    E.node(*C, First);
    First = false;
  }
  OS << "]";
}
} // namespace

void RunReport::addCount(std::string_view Name, uint64_t Value) {
  Entry E;
  E.Name = std::string(Name);
  E.IsCount = true;
  E.U = Value;
  Entries.push_back(std::move(E));
}

void RunReport::addStat(std::string_view Name, double Value) {
  Entry E;
  E.Name = std::string(Name);
  E.D = Value;
  Entries.push_back(std::move(E));
}

void RunReport::write(std::ostream &OS) const {
  OS << "{\"swa_run_report\":" << SchemaVersion << ",\"tool\":\""
     << jsonEscape(Tool) << "\",\"stats\":{";
  bool First = true;
  for (const Entry &E : Entries) {
    if (!First)
      OS << ",";
    OS << "\"" << jsonEscape(E.Name) << "\":";
    if (E.IsCount)
      OS << E.U;
    else
      OS << formatString("%.6g", E.D);
    First = false;
  }

  Registry &Reg = Registry::global();
  OS << "},\"counters\":{";
  First = true;
  for (const auto &[Name, Value] : Reg.counterValues()) {
    if (!First)
      OS << ",";
    OS << "\"" << jsonEscape(Name) << "\":" << Value;
    First = false;
  }

  OS << "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Reg.histograms()) {
    if (!First)
      OS << ",";
    OS << "\"" << jsonEscape(Name) << "\":{\"n\":" << H.count()
       << ",\"sum\":" << H.sum() << ",\"min\":" << H.min()
       << ",\"max\":" << H.max() << "}";
    First = false;
  }

  OS << "},\"phases\":";
  PhaseTree::Node Phases = PhaseTree::mergedRoot();
  writePhaseChildrenJson(OS, Phases);
  OS << "}\n";
}

bool RunReport::writeFile(const std::string &Path, std::string &Error) const {
  std::ofstream OS(Path);
  if (!OS) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  write(OS);
  OS.flush();
  if (!OS) {
    Error = "write to " + Path + " failed";
    return false;
  }
  return true;
}
