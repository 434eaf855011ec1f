//===- config/Decompose.h - Message-graph config decomposition --*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partitions a bound configuration into independent sub-configurations
/// along the inter-core message graph — the compositional-analysis idea of
/// Han et al. applied to the paper's NSA model. Two cores belong to the
/// same component when a message connects tasks bound to them; partitions
/// sharing a core are trivially coupled. Components exchange nothing, so
/// the NSA of the whole system is the disjoint product of the components'
/// NSAs and the monolithic trace restricted to a component equals the
/// component's own trace — simulating each component separately (smaller
/// nets, smaller heaps, parallel across cores) and merging verdicts
/// (analysis::mergeComponentVerdicts) reproduces the monolithic verdict
/// exactly. The difftest campaign carries an oracle for precisely this
/// claim.
///
/// Window truncation: a component's own hyperperiod L_sub divides the
/// global L, but windows live on the global [0, L) axis and
/// Config::validate requires them inside the (sub)hyperperiod. Truncation
/// to the block [0, L_sub) is only sound when the component's window
/// pattern is L_sub-periodic with no window straddling a block boundary —
/// then the CoreScheduler's modulo-hyper cycling replays the global
/// schedule exactly. When any component fails that check, decomposition is
/// declined (Decomposed == false) and the caller evaluates monolithically;
/// splitting a straddling window instead would insert extra window-edge
/// events (sleep/wake, forced preemption) and change the trace.
///
/// Each component must still be simulated to the *global* hyperperiod
/// (Decomposition::Horizon) so carried-over backlog beyond L_sub is
/// observed exactly as the monolithic run observes it.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_CONFIG_DECOMPOSE_H
#define SWA_CONFIG_DECOMPOSE_H

#include "config/Config.h"

#include <cstdint>
#include <vector>

namespace swa {
namespace cfg {

/// One independent component: a self-contained Config plus the map from
/// its task gids back to the original config's gids.
struct Component {
  Config Sub;
  /// GidMap[sub gid] = original gid.
  std::vector<int32_t> GidMap;
};

struct Decomposition {
  /// False when the config cannot (or need not) be decomposed: a
  /// partition is unbound, everything is one component, or a component's
  /// windows are not sub-hyperperiod-periodic. Components is then empty
  /// and the caller evaluates the original config monolithically.
  bool Decomposed = false;
  /// Numbered by first appearance scanning partitions by index, so the
  /// order is canonical for a given binding.
  std::vector<Component> Components;
  /// CompOfCore[core] = index into Components of the component holding
  /// that core; -1 for a core no partition is bound to. Empty when not
  /// Decomposed.
  std::vector<int32_t> CompOfCore;
  /// The original config's hyperperiod: simulate every component with
  /// SimOptions::Horizon set to this.
  int64_t Horizon = 0;
};

/// Decomposes \p Config along the inter-core message graph. Never fails:
/// an undecomposable config simply returns Decomposed == false.
Decomposition decomposeConfig(const Config &Config);

} // namespace cfg
} // namespace swa

#endif // SWA_CONFIG_DECOMPOSE_H
