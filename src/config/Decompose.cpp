//===- config/Decompose.cpp - Message-graph config decomposition ----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "config/Decompose.h"

#include "support/UnionFind.h"

#include <algorithm>
#include <limits>

using namespace swa;
using namespace swa::cfg;

namespace {

/// Truncates \p P's windows to the block [0, LSub) when the pattern is
/// LSub-periodic over [0, LGlobal) with no block-straddling window.
/// Returns false when it is not (the component cannot be decomposed).
bool truncateWindows(Partition &P, int64_t LSub, int64_t LGlobal) {
  if (LSub == LGlobal)
    return true;
  int64_t Blocks = LGlobal / LSub;
  std::vector<std::vector<Window>> Pattern(static_cast<size_t>(Blocks));
  for (const Window &W : P.Windows) {
    if (W.Start < 0 || W.End <= W.Start || W.End > LGlobal)
      return false;
    int64_t B = W.Start / LSub;
    if (B >= Blocks || W.End > (B + 1) * LSub)
      return false; // straddles a block boundary
    Pattern[static_cast<size_t>(B)].push_back(
        {W.Start - B * LSub, W.End - B * LSub});
  }
  auto ByStart = [](const Window &A, const Window &B) {
    return A.Start != B.Start ? A.Start < B.Start : A.End < B.End;
  };
  for (auto &Blk : Pattern)
    std::sort(Blk.begin(), Blk.end(), ByStart);
  for (size_t B = 1; B < Pattern.size(); ++B) {
    if (Pattern[B].size() != Pattern[0].size())
      return false;
    for (size_t I = 0; I < Pattern[B].size(); ++I)
      if (Pattern[B][I].Start != Pattern[0][I].Start ||
          Pattern[B][I].End != Pattern[0][I].End)
        return false;
  }
  P.Windows = Pattern.empty() ? std::vector<Window>{} : Pattern[0];
  return true;
}

/// The core-level component structure of one bound config: which
/// component each partition and each used core belongs to, numbered by
/// first appearance scanning partitions by index.
struct ComponentStructure {
  /// False when a partition is unbound/dangling or a message dangles.
  bool Valid = false;
  int32_t NumComps = 0;
  std::vector<int32_t> CompOfPart; // one entry per partition
  std::vector<int32_t> CompOfCore; // one entry per core; -1 = unused
};

ComponentStructure componentStructure(const Config &Config) {
  ComponentStructure S;
  const size_t NP = Config.Partitions.size();
  const size_t NC = Config.Cores.size();
  for (const Partition &P : Config.Partitions)
    if (P.Core < 0 || static_cast<size_t>(P.Core) >= NC)
      return S; // unbound partition
  support::UnionFind UF(NC);
  for (const Message &M : Config.Messages) {
    if (M.Sender.Partition < 0 ||
        static_cast<size_t>(M.Sender.Partition) >= NP ||
        M.Receiver.Partition < 0 ||
        static_cast<size_t>(M.Receiver.Partition) >= NP)
      return S; // dangling message ref: leave it to validate()
    UF.unite(Config.Partitions[static_cast<size_t>(M.Sender.Partition)].Core,
             Config.Partitions[static_cast<size_t>(M.Receiver.Partition)].Core);
  }
  S.CompOfPart.assign(NP, -1);
  S.CompOfCore.assign(NC, -1);
  std::vector<int32_t> CompOfRoot(NC, -1);
  for (size_t P = 0; P < NP; ++P) {
    int32_t Core = Config.Partitions[P].Core;
    int32_t R = UF.find(Core);
    if (CompOfRoot[static_cast<size_t>(R)] < 0)
      CompOfRoot[static_cast<size_t>(R)] = S.NumComps++;
    S.CompOfPart[P] = CompOfRoot[static_cast<size_t>(R)];
    S.CompOfCore[static_cast<size_t>(Core)] = S.CompOfPart[P];
  }
  S.Valid = true;
  return S;
}

/// Materializes component \p Comp of \p Config (per structure \p S) as a
/// standalone sub-config, truncating windows to the component
/// hyperperiod. Returns false when the component's window pattern is not
/// LSub-periodic or its hyperperiod does not divide \p LGlobal — the
/// whole decomposition must then be declined.
bool materializeComponent(const Config &Config, const ComponentStructure &S,
                          int32_t Comp, int64_t LGlobal, Component &Out) {
  Out.Sub = swa::cfg::Config();
  Out.GidMap.clear();
  const size_t NP = Config.Partitions.size();
  const size_t NC = Config.Cores.size();
  std::vector<int32_t> CoreMap(NC, -1); // original core -> sub core
  std::vector<int32_t> PartMap(NP, -1); // original part -> sub part
  int32_t GidBase = 0;
  for (size_t P = 0; P < NP; ++P) {
    int32_t NT = static_cast<int32_t>(Config.Partitions[P].Tasks.size());
    if (S.CompOfPart[P] != Comp) {
      GidBase += NT;
      continue;
    }
    int32_t OrigCore = Config.Partitions[P].Core;
    if (CoreMap[static_cast<size_t>(OrigCore)] < 0) {
      CoreMap[static_cast<size_t>(OrigCore)] =
          static_cast<int32_t>(Out.Sub.Cores.size());
      Out.Sub.Cores.push_back(Config.Cores[static_cast<size_t>(OrigCore)]);
    }
    PartMap[P] = static_cast<int32_t>(Out.Sub.Partitions.size());
    Out.Sub.Partitions.push_back(Config.Partitions[P]);
    Out.Sub.Partitions.back().Core = CoreMap[static_cast<size_t>(OrigCore)];
    for (int32_t T = 0; T < NT; ++T)
      Out.GidMap.push_back(GidBase + T);
    GidBase += NT;
  }

  for (const Message &M : Config.Messages) {
    if (S.CompOfPart[static_cast<size_t>(M.Sender.Partition)] != Comp)
      continue;
    Message Sub = M;
    Sub.Sender.Partition = PartMap[static_cast<size_t>(M.Sender.Partition)];
    Sub.Receiver.Partition =
        PartMap[static_cast<size_t>(M.Receiver.Partition)];
    Out.Sub.Messages.push_back(Sub);
  }

  Out.Sub.Name = Config.Name + "/c" + std::to_string(Comp);
  Out.Sub.NumCoreTypes = Config.NumCoreTypes;
  int64_t LSub = Out.Sub.hyperperiod();
  if (LSub <= 0 || LGlobal % LSub != 0)
    return false; // no tasks, or inconsistent periods
  for (Partition &P : Out.Sub.Partitions)
    if (!truncateWindows(P, LSub, LGlobal))
      return false; // window pattern not LSub-periodic
  return true;
}

} // namespace

Decomposition cfg::decomposeConfig(const Config &Config) {
  Decomposition Out;
  ComponentStructure S = componentStructure(Config);
  if (!S.Valid || S.NumComps < 2)
    return Out;

  int64_t LGlobal = Config.hyperperiod();
  if (LGlobal <= 0 || LGlobal == std::numeric_limits<int64_t>::max())
    return Out;

  Out.Components.resize(static_cast<size_t>(S.NumComps));
  for (int32_t K = 0; K < S.NumComps; ++K)
    if (!materializeComponent(Config, S, K, LGlobal,
                              Out.Components[static_cast<size_t>(K)]))
      return Decomposition{};

  Out.Decomposed = true;
  Out.CompOfCore = std::move(S.CompOfCore);
  Out.Horizon = LGlobal;
  return Out;
}
