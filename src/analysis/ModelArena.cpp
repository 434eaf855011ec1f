//===- analysis/ModelArena.cpp - Shape-keyed NSA instance reuse -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModelArena.h"

using namespace swa;
using namespace swa::analysis;

ModelArena::Slot *ModelArena::find(const cfg::Fingerprint &Shape) {
  for (Slot &S : Slots)
    if (S.Shape == Shape) {
      S.LastUse = ++Tick;
      return &S;
    }
  return nullptr;
}

ModelArena::Slot *ModelArena::emplace(const cfg::Fingerprint &Shape,
                                      core::BuiltModel Model) {
  // Dedupe on insert: a caller that re-emplaces a shape it already holds
  // (a rebind that failed, or a re-decision after an eviction) must not
  // leave two slots for one key — find() could then return the stale one.
  // Replace the existing slot's contents in place instead of appending.
  Slot *S = nullptr;
  for (Slot &E : Slots)
    if (E.Shape == Shape) {
      S = &E;
      break;
    }
  if (!S) {
    if (Slots.size() >= Capacity) {
      auto LRU = Slots.begin();
      for (auto It = Slots.begin(); It != Slots.end(); ++It)
        if (It->LastUse < LRU->LastUse)
          LRU = It;
      Slots.erase(LRU);
    }
    S = &Slots.emplace_back();
    S->Shape = Shape;
  }
  S->Sim.reset(); // references the old network — drop before the model
  S->Rebinder = core::makeWindowRebinder(Model);
  S->Model = std::move(Model);
  // The simulator references the network, so it is created only after
  // the model has reached its final location inside the slot.
  S->Sim = std::make_unique<nsa::Simulator>(*S->Model.Net);
  S->LastUse = ++Tick;
  return S;
}
