//===- config/Fingerprint.h - Structural config hash ---------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 128-bit structural fingerprint of a cfg::Config, used as the key of
/// the config-search verdict cache (schedtool::ConfigSearch). Two configs
/// with equal fingerprints are schedulability-equivalent by construction:
/// the hash covers exactly the inputs of core::buildModel that influence
/// the NSA — scheduler kinds, task parameters (priority, period, deadline,
/// the full per-core-type WCET vector), windows, message graph and delays,
/// and each partition's bound core: its index together with its
/// (Module, CoreType) class.
///
/// The key is a plain function of those fields: no renaming of
/// interchangeable cores. Two bindings that differ only by a permutation
/// of same-class cores hash differently and are simulated separately; a
/// search meets such twins too rarely for folding them to save any
/// simulation (EXPERIMENTS.md, "One key per verdict").
///
/// Names (config, core, partition, task) are deliberately excluded: they
/// never reach the engine's semantics.
///
/// Stability: fingerprintConfig and fingerprintComponent values are
/// *persisted* cache keys — schedtool::Snapshot serializes VerdictCache
/// entries under them, and a resumed or warm-started search trusts a
/// loaded entry's verdict for any config that hashes to the same key.
/// Any change to the hashed field set, its order or the mixing function
/// therefore MUST bump Snapshot::FormatVersion (schedtool/Snapshot.h): an
/// old snapshot read under a new hash would silently miss (harmless) or,
/// worse, collide (wrong verdict). The version check turns that into a
/// typed SnapshotVersionSkew rejection and a cold start. fingerprintShape
/// keys only live in memory (analysis::ModelArena) and may change freely.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_CONFIG_FINGERPRINT_H
#define SWA_CONFIG_FINGERPRINT_H

#include "config/Config.h"

#include <cstdint>
#include <functional>

namespace swa {
namespace cfg {

/// 128-bit hash value. Collisions are astronomically unlikely for the
/// candidate counts a search visits (< 2^30), which is the usual
/// fingerprint trade-off; the differential tests re-evaluate from scratch
/// and never trust the cache.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Fingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
};

/// Hash functor for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    // The halves are already well mixed; fold them.
    return static_cast<size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Computes the structural fingerprint of \p Config. Any semantically
/// visible difference — a binding to a different core, a window edge, a
/// task parameter, a message delay — changes the value.
Fingerprint fingerprintConfig(const Config &Config);

/// Fingerprints one decomposition component for the component-level
/// verdict cache. A component is simulated to the *global* hyperperiod
/// (Decomposition::Horizon), so its verdict depends on (Sub, Horizon),
/// not on Sub alone. When \p Horizon equals Sub's own hyperperiod the
/// result is exactly fingerprintConfig(Sub) — a component that happens to
/// cover the whole hyperperiod hashes like the standalone config it is;
/// otherwise the horizon is folded in and the value diverges.
Fingerprint fingerprintComponent(const Config &Sub, int64_t Horizon);

/// Structural *shape* of a config as seen by core::buildModel's compiled
/// output: everything fingerprintConfig covers except the window
/// positions, of which only each partition's window count enters. Two
/// configs with equal shapes compile to networks that differ only in the
/// CoreScheduler window tables (w_start/w_end/w_part const arrays and the
/// Config copy) — exactly what core::WindowRebinder can patch in place,
/// so this is the arena key for NSA instance reuse.
Fingerprint fingerprintShape(const Config &Config);

} // namespace cfg
} // namespace swa

#endif // SWA_CONFIG_FINGERPRINT_H
