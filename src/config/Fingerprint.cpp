//===- config/Fingerprint.cpp - Structural config hash --------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "config/Fingerprint.h"

using namespace swa;
using namespace swa::cfg;

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mixer.
uint64_t mix64(uint64_t Z) {
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Streaming 128-bit accumulator: two independently keyed 64-bit lanes,
/// each fully mixed per ingested word, so field order matters and a
/// one-word change avalanches through everything that follows.
struct Hash128 {
  uint64_t A = 0x243f6a8885a308d3ULL;
  uint64_t B = 0x13198a2e03707344ULL;

  void add(uint64_t V) {
    A = mix64(A ^ V);
    B = mix64(B + (V ^ 0xa5a5a5a5a5a5a5a5ULL));
  }
  void add(int64_t V) { add(static_cast<uint64_t>(V)); }
  void add(int V) { add(static_cast<uint64_t>(static_cast<int64_t>(V))); }
};

/// The one structural walk behind both keys: after \p Tag, the core-type
/// count, every partition's scheduler, bound core (its index and class),
/// tasks and windows, then the message graph. \p WindowPositions hashes
/// each window's edges; without it only each partition's window count
/// enters the key.
Fingerprint walk(const Config &Config, uint64_t Tag, bool WindowPositions) {
  Hash128 H;
  H.add(Tag);
  H.add(Config.NumCoreTypes);
  H.add(static_cast<uint64_t>(Config.Partitions.size()));

  for (const Partition &P : Config.Partitions) {
    H.add(static_cast<int>(P.Scheduler));
    if (P.Core >= 0 && static_cast<size_t>(P.Core) < Config.Cores.size()) {
      const Core &C = Config.Cores[static_cast<size_t>(P.Core)];
      H.add(C.Module);
      H.add(C.CoreType);
      H.add(P.Core);
    } else {
      H.add(uint64_t{0xffffffffffffffffULL}); // unbound sentinel
    }
    H.add(static_cast<uint64_t>(P.Tasks.size()));
    for (const Task &T : P.Tasks) {
      H.add(T.Priority);
      H.add(T.Period);
      H.add(T.Deadline);
      H.add(static_cast<uint64_t>(T.Wcet.size()));
      for (TimeValue W : T.Wcet)
        H.add(W);
    }
    H.add(static_cast<uint64_t>(P.Windows.size()));
    if (WindowPositions)
      for (const Window &W : P.Windows) {
        H.add(W.Start);
        H.add(W.End);
      }
  }

  H.add(static_cast<uint64_t>(Config.Messages.size()));
  for (const Message &M : Config.Messages) {
    H.add(M.Sender.Partition);
    H.add(M.Sender.Task);
    H.add(M.Receiver.Partition);
    H.add(M.Receiver.Task);
    H.add(M.MemDelay);
    H.add(M.NetDelay);
  }

  return {H.A, H.B};
}

} // namespace

Fingerprint cfg::fingerprintConfig(const Config &Config) {
  return walk(Config, 0x5357412d464e4750ULL /* "SWA-FNGP" */,
              /*WindowPositions=*/true);
}

Fingerprint cfg::fingerprintComponent(const Config &Sub, int64_t Horizon) {
  Fingerprint F = fingerprintConfig(Sub);
  // A component simulated at its own hyperperiod is indistinguishable
  // from the standalone config — keep the fingerprints equal so whole-
  // config and component cache entries agree by construction. Only an
  // extended horizon (carried-over backlog is observed further) changes
  // the verdict and must change the key.
  if (Horizon == Sub.hyperperiod())
    return F;
  Hash128 H;
  H.A = F.Hi;
  H.B = F.Lo;
  H.add(uint64_t{0x5357412d48525a4eULL}); // "SWA-HRZN" domain tag
  H.add(Horizon);
  return {H.A, H.B};
}

Fingerprint cfg::fingerprintShape(const Config &Config) {
  // Window counts only: the positions live in patchable const arrays, but
  // the count is folded into compiled guards (nw) and sizes the tables.
  return walk(Config, 0x5357412d53484150ULL /* "SWA-SHAP" */,
              /*WindowPositions=*/false);
}
