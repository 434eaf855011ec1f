//===- schedtool/VerdictCache.h - Memoized candidate verdicts ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe verdict memo for the config search, keyed by structural
/// component fingerprints (cfg::fingerprintComponent — a sub-config keyed
/// together with the global horizon it is simulated to).
///
/// The search treats every candidate as a list of components: a move
/// changes one or two, and the components it leaves alone hit here, so a
/// candidate whose components all hit never constructs a simulator, and
/// analysis::mergeComponentVerdicts stitches the whole-config verdict
/// from cached parts. A candidate that does not decompose is one
/// component — the whole config at its own hyperperiod — whose key is
/// exactly cfg::fingerprintConfig, so a revisited whole config hits the
/// same map (and callers outside the search, like
/// analysis::Sensitivity, key whole configs by fingerprintConfig). The
/// badness the search ranks by (Horizon - FirstMissTime + 1) is derived
/// from the stored FirstMissTime, so hits reproduce it exactly.
///
/// Determinism: the search consults the cache only in its serial lookup
/// stage, *before* dispatching a round's simulations, and fills it only
/// in its serial reduce stage, *after* they finished, so the hit pattern
/// is a pure function of the candidate sequence — independent of Workers
/// and BatchSize timing. The cache counts nothing itself: the reduce stage
/// counts the hits of each candidate it reduces. The mutex makes the
/// container safe for callers that do share one cache across threads; it
/// is uncontended in the search.
///
/// Entry immutability (load-bearing): entries are WRITE-ONCE.
/// `lookupComponent` returns pointers into the node-based
/// std::unordered_map, whose nodes never relocate on rehash or insert,
/// and `insertComponent` never overwrites an existing entry — first
/// insert wins, because re-evaluating the same structure yields the same
/// verdict. Callers therefore hold entry pointers across later inserts
/// (the search batches lookups before the fills). Debug builds assert
/// that a double-insert carries the same verdict; a differing one would
/// mean the fingerprint is not a congruence for the simulator — a
/// correctness bug, not a cache policy question.
///
/// Only decided() verdicts are stored: guard-rail stops (budget, cancel)
/// depend on wall-clock timing and must never be replayed as facts.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_VERDICTCACHE_H
#define SWA_SCHEDTOOL_VERDICTCACHE_H

#include "analysis/Analyzer.h"
#include "config/Fingerprint.h"

#include <cassert>
#include <mutex>
#include <unordered_map>

namespace swa {
namespace schedtool {

class VerdictCache {
public:
  /// One memoized verdict. GidMap is deliberately absent: the
  /// local-to-original gid mapping depends on where the component sits
  /// inside the *candidate*, not on the component itself, so the caller
  /// supplies its own GidMap when merging.
  struct ComponentEntry {
    analysis::VerdictOutcome Verdict;
    /// True when the entry arrived via insertComponentSnapshot
    /// (warm-from-disk): a hit on it counts in SnapshotStats::SnapshotHits,
    /// telling resume reuse apart from same-run memoization.
    /// Purely observational — no verdict or search decision reads it.
    bool FromSnapshot = false;
  };

  /// Returns the entry for \p Key, or nullptr. The pointer stays valid
  /// until clear() (node-based container; inserts never move entries —
  /// the write-once invariant above).
  const ComponentEntry *lookupComponent(const cfg::Fingerprint &Key) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = CompMap.find(Key);
    return It == CompMap.end() ? nullptr : &It->second;
  }

  /// Inserts \p Verdict under \p Key; first insert wins, undecided
  /// verdicts are rejected.
  void insertComponent(const cfg::Fingerprint &Key,
                       const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    auto R = CompMap.emplace(Key, ComponentEntry{Verdict});
    assert((R.second || sameVerdict(R.first->second.Verdict, Verdict)) &&
           "double-insert with a differing verdict: fingerprint is not a "
           "congruence");
    (void)R;
  }

  /// Snapshot import: like insertComponent but marks the entry
  /// warm-from-disk. First insert still wins, so merging a snapshot into
  /// a cache that already decided a key is a no-op (and never flips an
  /// existing entry's provenance).
  void insertComponentSnapshot(const cfg::Fingerprint &Key,
                               const analysis::VerdictOutcome &Verdict) {
    if (!Verdict.decided())
      return;
    std::lock_guard<std::mutex> Lock(M);
    CompMap.emplace(Key, ComponentEntry{Verdict, /*FromSnapshot=*/true});
  }

  /// Snapshot export: invokes \p Fn(Key, ComponentEntry) for every entry
  /// under the lock. Iteration order is the container's — serialization
  /// sorts by key, so snapshot bytes do not depend on it.
  template <typename Fn> void forEachComponent(Fn &&F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &KV : CompMap)
      F(KV.first, KV.second);
  }

  size_t componentSize() const {
    std::lock_guard<std::mutex> Lock(M);
    return CompMap.size();
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    CompMap.clear();
  }

private:
  /// Field-wise verdict equality for the debug double-insert assert.
  /// ActionCount is excluded: it is a cost figure, not part of the
  /// decision; the decision fields must agree exactly.
  static bool sameVerdict(const analysis::VerdictOutcome &A,
                          const analysis::VerdictOutcome &B) {
    return A.Schedulable == B.Schedulable && A.Stop == B.Stop &&
           A.FirstMissTime == B.FirstMissTime &&
           A.FirstMissTasks == B.FirstMissTasks;
  }

  mutable std::mutex M;
  std::unordered_map<cfg::Fingerprint, ComponentEntry, cfg::FingerprintHash>
      CompMap;
};

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_VERDICTCACHE_H
