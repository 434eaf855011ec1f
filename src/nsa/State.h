//===- nsa/State.h - NSA runtime state --------------------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A state of a network of stopwatch automata: the location vector, the
/// clock valuation, the variable store, and the model time (the paper's
/// special never-stopped clock). Time and clocks are integer ticks; see
/// DESIGN.md for why integer time is exact for this model class.
///
/// Clocks are stored as stopwatches: a running clock keeps its origin (the
/// model time at which it would have read 0), so letting time pass touches
/// no clock at all; a stopped clock keeps its value. Read and write clocks
/// only through clock() / setClock(); Exec re-bases a clock when its rate
/// changes.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_NSA_STATE_H
#define SWA_NSA_STATE_H

#include <cstdint>
#include <vector>

namespace swa {
namespace nsa {

struct State {
  int64_t Now = 0;
  std::vector<int32_t> Locs;
  /// Per clock: the origin when Running, else the value.
  std::vector<int64_t> Clocks;
  /// Per clock: 1 while the clock runs at rate 1.
  std::vector<uint8_t> Running;
  std::vector<int64_t> Store;

  /// The value of clock \p C.
  int64_t clock(size_t C) const {
    return Running[C] ? Now - Clocks[C] : Clocks[C];
  }
  void setClock(size_t C, int64_t V) { Clocks[C] = Running[C] ? Now - V : V; }

  /// Compares clock values, not their encoding. Running follows from Locs
  /// and Store, so it needs no comparison of its own.
  bool operator==(const State &O) const {
    if (Now != O.Now || Locs != O.Locs || Store != O.Store ||
        Clocks.size() != O.Clocks.size())
      return false;
    for (size_t C = 0; C < Clocks.size(); ++C)
      if (clock(C) != O.clock(C))
        return false;
    return true;
  }
};

/// FNV-1a over the full state with clocks by value; used by the model
/// checker's visited set (with full-state equality as the fallback on
/// collision).
struct StateHash {
  size_t operator()(const State &S) const {
    uint64_t H = 1469598103934665603ULL;
    auto Mix = [&H](uint64_t V) {
      H ^= V;
      H *= 1099511628211ULL;
    };
    Mix(static_cast<uint64_t>(S.Now));
    for (int32_t L : S.Locs)
      Mix(static_cast<uint64_t>(static_cast<uint32_t>(L)));
    for (size_t C = 0; C < S.Clocks.size(); ++C)
      Mix(static_cast<uint64_t>(S.clock(C)));
    for (int64_t V : S.Store)
      Mix(static_cast<uint64_t>(V));
    return static_cast<size_t>(H);
  }
};

} // namespace nsa
} // namespace swa

#endif // SWA_NSA_STATE_H
