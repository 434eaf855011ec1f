//===- schedtool/Exchange.h - Shared verdict exchange directory -*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict exchange a fleet of searches shares: each worker
/// periodically publishes the verdicts it computed as a cache-only
/// snapshot (`shard_<i>.pub` in the exchange directory, written with
/// support::AtomicFile so a reader can never see a torn file — old or
/// new, never a mixture), and refreshes a read-only side cache from its
/// peers' publications, so one shard's simulation pays for every
/// shard's cache hit.
///
/// Two modes, both observationally silent:
///
///  - Shard: the work-item list of every round is identical across
///    workers (planning is serial and deterministic), so items are
///    deterministically partitioned by (Round + item index) % ShardCount.
///    A worker simulates its own items, publishes their verdicts, then
///    waits (bounded by FallbackMs) for peers to publish the rest —
///    falling back to simulating a foreign item locally when its owner
///    is slow or dead, which yields the *same* verdict (the simulator is
///    deterministic), so a worker's SearchResult is byte-identical to
///    the single-process run whether an item's verdict was simulated
///    here, fetched, or recomputed after a peer crashed.
///
///  - Share: every worker runs its full candidate stream (a portfolio of
///    different strategies); before executing a round's items it
///    consults the side cache, and an item whose verdict a peer already
///    published is adopted instead of simulated. Decided verdicts under
///    the same fingerprint are interchangeable (the verdict-cache
///    contract), so each worker's SearchResult is byte-identical to its
///    solo run — the exchange only moves wall-clock.
///
/// All exchange traffic rides the serial path of the round loop (never
/// inside parallelFor, except read-only fetches from the immutable side
/// cache), mirroring how the verdict cache itself stays
/// Workers-invariant. Exchange statistics are deliberately outside
/// SearchResult: how many verdicts arrived from peers is a timing fact.
///
/// Directory layout (see DESIGN.md): `shard_<i>.pub` per worker, plus
/// FleetSearch's `manifest`, `shard_<i>.ckpt` and `shard_<i>.done`.
/// AtomicFile temp files (`*.tmp`) are never read — refresh() opens only
/// the exact publication names.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_EXCHANGE_H
#define SWA_SCHEDTOOL_EXCHANGE_H

#include "schedtool/VerdictCache.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace swa {
namespace schedtool {

/// Exchange traffic counters. Wall-clock dependent (how often peers
/// publish, how many fetches hit), so they live outside SearchResult —
/// the result stays byte-identical however the exchange behaves.
struct ExchangeStats {
  uint64_t Publications = 0;      ///< Snapshot publications written.
  uint64_t PublishFailures = 0;   ///< Failed publication writes (swallowed).
  uint64_t Refreshes = 0;         ///< refresh() sweeps over peer files.
  uint64_t PeerSnapshotsLoaded = 0; ///< Changed peer publications loaded.
  uint64_t PeerLoadErrors = 0;    ///< Peer publications that failed to load.
  uint64_t ComponentEntriesFetched = 0; ///< New verdicts adopted.
  uint64_t ItemsOwned = 0;        ///< Work items this shard simulated as owner.
  uint64_t ItemsFetched = 0;      ///< Work items resolved from peers.
  uint64_t FallbackSimulations = 0; ///< Foreign items simulated locally.
  uint64_t WaitMs = 0;            ///< Milliseconds spent polling peers.
};

/// One worker's handle on the exchange directory. Not thread-safe as a
/// whole — publish/refresh/record are serial-path calls — but fetches
/// against the side cache are const and safe from inside a parallelFor
/// once the serial refresh that filled it returned (VerdictCache entries
/// are write-once and node-stable).
class Exchange {
public:
  enum class Mode { Shard, Share };

  /// Binds this exchange to \p Dir as shard \p ShardIndex of
  /// \p ShardCount. The directory must exist.
  Error init(std::string Dir, int ShardIndex, int ShardCount, Mode M);

  Mode mode() const { return M; }
  int shardIndex() const { return Idx; }
  int shardCount() const { return N; }

  /// Deterministic ownership rule of Shard mode: item \p Item of round
  /// \p Round is simulated by shard (Round + Item) % ShardCount. A pure
  /// function of serial-path facts, so every worker computes the same
  /// partition.
  bool ownsItem(int Round, int Item) const {
    return (static_cast<long long>(Round) + Item) % N == Idx;
  }

  /// Bounded wait for a foreign item's verdict before simulating it
  /// locally (Shard mode), in milliseconds.
  int64_t FallbackMs = 2000;

  /// Records a locally computed, decided verdict for the next
  /// publication. Undecided verdicts are rejected by the cache itself
  /// (guard-rail stops are not facts about the component).
  void recordComponent(const cfg::Fingerprint &Canon,
                       const cfg::Fingerprint &Raw,
                       const analysis::VerdictOutcome &V) {
    Out.insertComponent(Canon, Raw, V);
  }

  /// Publishes the recorded verdicts as this shard's `.pub` snapshot.
  /// Skipped when nothing new was recorded since the last publication;
  /// write failures are counted and swallowed (a full disk must not
  /// change what the search computes).
  void publish();

  /// Loads every peer publication that changed since the last refresh
  /// into the side cache. Serial-path only.
  void refresh();

  /// Side-cache lookup; null when no peer published the key yet.
  const VerdictCache::ComponentEntry *
  fetchComponent(const cfg::Fingerprint &Canon) const {
    return In.lookupComponent(Canon);
  }

  ExchangeStats Stats;

private:
  std::string Dir;
  int Idx = 0;
  int N = 1;
  Mode M = Mode::Shard;
  VerdictCache Out; ///< Verdicts this worker computed (to publish).
  VerdictCache In;  ///< Verdicts adopted from peers (read-only side cache).
  size_t Published = 0;
  /// Per-peer change detection: (size, mtime ns, inode) of the last
  /// loaded publication. A rename-replace changes the inode even when
  /// size and timestamp collide.
  struct PeerFile {
    long long Size = -1;
    long long MtimeNs = -1;
    unsigned long long Inode = 0;
  };
  std::vector<PeerFile> Peers;
};

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_EXCHANGE_H
