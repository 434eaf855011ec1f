//===- analysis/ModelArena.h - Shape-keyed NSA instance reuse ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An arena of built NSA instances keyed by cfg::fingerprintShape, the
/// third layer of the incremental config search. Local-search mutations
/// mostly move window positions (boost resampling) and only occasionally
/// rebind a partition; window positions are the one part of a config the
/// compiled network reads as *data* (core::WindowRebinder), so a
/// same-shape candidate reuses a previously built model — Algorithm 1,
/// network validation and bytecode compilation all drop out of the
/// per-candidate cost, leaving three vector assignments per core plus the
/// simulator's own reset.
///
/// Reuse safety: nsa::Simulator::run() re-derives its entire state from
/// the network on every call (it resets first — the NsaTest reuse
/// contract), so patching the window tables between runs is
/// indistinguishable from building a fresh model. The arena keeps the
/// Simulator next to the model because the simulator holds a reference to
/// the network; slots live in a std::list so neither moves.
///
/// Determinism: whether a slot exists when a candidate arrives depends on
/// eviction order and which worker's arena is asked — a timing fact under
/// parallel search. Nothing about the arena may therefore leak into
/// SearchResult or the merged obs counters: arena builds pass
/// PublishMetrics=false to core::buildModel, and the arena exposes no
/// published statistics. The *verdict* is unaffected either way.
///
/// Not thread-safe: each pool thread owns one arena. The search and
/// analyzeSensitivity allocate one per ThreadPool slot and index it with
/// the slot parallelFor passes to each item, so no arena is ever shared.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_ANALYSIS_MODELARENA_H
#define SWA_ANALYSIS_MODELARENA_H

#include "config/Fingerprint.h"
#include "core/InstanceBuilder.h"
#include "nsa/Simulator.h"

#include <list>
#include <memory>

namespace swa {
namespace analysis {

class ModelArena {
public:
  struct Slot {
    cfg::Fingerprint Shape;
    core::BuiltModel Model;
    core::WindowRebinder Rebinder;
    std::unique_ptr<nsa::Simulator> Sim;
    uint64_t LastUse = 0;
  };

  /// \p Capacity bounds the number of cached models; least-recently-used
  /// slots are evicted. Distinct shapes in one search are few (the base
  /// shape plus one per rebind target), so a small arena captures them.
  explicit ModelArena(size_t Capacity = 16) : Capacity(Capacity) {}

  /// Movable so callers can keep one per pool thread in a vector; the
  /// slots' list nodes, models and simulators stay where they are.
  ModelArena(ModelArena &&) = default;
  ModelArena &operator=(ModelArena &&) = default;

  /// Returns the slot for \p Shape (refreshing its LRU stamp), or null.
  Slot *find(const cfg::Fingerprint &Shape);

  /// Takes ownership of \p Model under key \p Shape, builds its rebind
  /// plan and simulator, and returns the slot (never null). An existing
  /// slot of the same shape is replaced in place; otherwise the LRU slot
  /// is evicted at capacity. A model whose rebind plan is invalid is
  /// stored all the same: every later rebind of it fails, and the caller
  /// rebuilds.
  Slot *emplace(const cfg::Fingerprint &Shape, core::BuiltModel Model);

  size_t size() const { return Slots.size(); }

private:
  std::list<Slot> Slots;
  size_t Capacity;
  uint64_t Tick = 0;
};

} // namespace analysis
} // namespace swa

#endif // SWA_ANALYSIS_MODELARENA_H
