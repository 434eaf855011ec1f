//===- schedtool/Snapshot.h - Durable search & cache snapshots --*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable-search snapshot: a versioned, checksummed, length-prefixed
/// binary serialization of a schedtool::VerdictCache (its entries under
/// their canonical component fingerprints) plus the
/// in-progress state of a ConfigSearch (round index, RNG stream state,
/// adaptive Current/Boost, the partial SearchResult). Written through
/// support::AtomicFile, so a crash at any byte leaves either the old
/// snapshot or the new one on disk — never a torn file.
///
/// File layout (all integers little-endian, independent of host):
///
///   header   "SWASNAP\0" | u32 version | u32 endian marker 0x01020304
///   record*  u32 type | u64 payload_len | u32 payload_crc32 | payload
///   end      type=End record whose payload is the u32 CRC32 of every
///            byte before the end record's own header
///
/// Record types: SearchState (at most one), ComponentEntry.
/// Entries are sorted by fingerprint before writing, so snapshot bytes
/// are a pure function of the cache *contents* — two runs that earned
/// the same verdicts write identical files regardless of hash-map
/// iteration order.
///
/// Reader contract (the fault-campaign headline): every malformed input
/// — truncated at any byte, bit-flipped anywhere, wrong version, foreign
/// endianness, zero length, trailing garbage — is rejected with a typed
/// support::Error (ErrorCode::Snapshot*), and nothing is returned until
/// the whole-file CRC verified, so a corrupt file can never smuggle a
/// wrong verdict into a cache: callers degrade to a cold start.
///
/// Compatibility: the format version is bumped on any change to the
/// payload encodings *or* to the fingerprint functions (cfg::Fingerprint
/// values are persisted keys — see the stability note in Fingerprint.h).
/// A reader never guesses across versions: skew is a typed error.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_SNAPSHOT_H
#define SWA_SCHEDTOOL_SNAPSHOT_H

#include "schedtool/ConfigSearch.h"
#include "schedtool/VerdictCache.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace swa {
namespace schedtool {

/// Counters describing checkpoint/snapshot traffic of one run. Filled by
/// saveSnapshot/loadSnapshot and by the search's checkpoint loop
/// (SearchProblem::CkptStats). Deliberately *not* part
/// of SearchResult: checkpoint cadence is wall-clock dependent, and
/// SearchResult must stay byte-identical whether or not (and how often)
/// a run checkpoints.
struct SnapshotStats {
  uint64_t SnapshotsWritten = 0;
  uint64_t SnapshotsLoaded = 0;
  uint64_t BytesWritten = 0;
  uint64_t BytesLoaded = 0;
  /// Cache entries adopted from a loaded snapshot (Snapshot::seedCache).
  uint64_t ComponentEntriesMerged = 0;
  /// Cache hits served by warm-from-disk entries during the search.
  uint64_t SnapshotHits = 0;
  /// Checkpoint writes that failed (search continues; last message
  /// kept). A non-empty LastError with WriteFailures == 0 never happens.
  uint64_t WriteFailures = 0;
  std::string LastError;
};

/// The in-memory image of a snapshot file.
struct Snapshot {
  /// Version 2 added the strategy name + opaque strategy state to the
  /// search-state payload (stateful metaheuristics resume mid-stream).
  /// Version 3 keeps one level of cache entries: the config-entry record
  /// kind is gone, since a whole config is the one-component case of the
  /// component cache. Older files are rejected with a typed skew error
  /// and degrade to a cold start, per the reader contract above.
  static constexpr uint32_t FormatVersion = 3;

  /// One serialized verdict-cache entry.
  struct CacheRecord {
    cfg::Fingerprint Canon; ///< Cache key (canonical fingerprint).
    cfg::Fingerprint Raw;   ///< Raw fingerprint (symmetry-fold detection).
    analysis::VerdictOutcome Verdict;
  };
  std::vector<CacheRecord> ComponentEntries;

  /// Search-in-progress state. Absent (false) when the snapshot is a
  /// pure cache export that only pre-warms a search's verdict cache.
  bool HasSearchState = false;
  /// Identity guard: a snapshot resumes only the (seed, batch, base
  /// config) search that wrote it. BaseCrc is the CRC32 of the encoded
  /// SearchProblem::Base, cheap and canonicalization-free.
  uint64_t Seed = 0;
  int32_t BatchSize = 0;
  uint32_t BaseCrc = 0;
  /// Loop position: the next round index and iterations completed.
  int32_t NextRound = 0;
  int32_t Iter = 0;
  /// The adaptive RNG mid-stream (xoshiro raw state).
  std::array<uint64_t, 4> RngState{};
  /// Adaptive state: the current incumbent binding/windows and boosts.
  cfg::Config Current;
  std::vector<double> Boost;
  /// The partial SearchResult: counters, log, best-so-far, trajectory,
  /// stop-reason taxonomy. Restoring it verbatim is what makes a resumed
  /// run's final SearchResult byte-identical to the uninterrupted one.
  SearchResult Res;
  /// The metaheuristic that wrote the checkpoint (Strategy::name(), ""
  /// reads as "local") and its opaque serialized state — a search can
  /// only resume under the same strategy (else SnapshotMismatch), and
  /// the strategy resumes mid-stream like the RNG does.
  std::string StrategyName;
  std::string StrategyState;

  /// Populates ComponentEntries from \p Cache (sorted by canonical
  /// fingerprint; deterministic bytes).
  void captureCache(const VerdictCache &Cache);

  /// Inserts every entry into \p Cache, marked warm-from-disk. Existing
  /// entries win (write-once cache). Returns the number of entries
  /// actually adopted.
  uint64_t seedCache(VerdictCache &Cache) const;
};

/// CRC32 of the canonical little-endian encoding of \p Base — the
/// config component of a snapshot's identity triple (Snapshot::BaseCrc).
/// Cheap (no canonicalization) and host-independent.
uint32_t snapshotBaseCrc(const cfg::Config &Base);

/// Serializes \p S and atomically replaces \p Path (write-temp + fsync +
/// rename). Typed ErrorCode::Io on failure; on failure the old file (if
/// any) is intact and no temp file is left behind. On success \p Stats
/// (when non-null) accrues SnapshotsWritten/BytesWritten.
Error saveSnapshot(const Snapshot &S, const std::string &Path,
                   SnapshotStats *Stats = nullptr);

/// Reads and fully verifies \p Path. Every malformed file yields a typed
/// error (ErrorCode::SnapshotTruncated / SnapshotCorrupt /
/// SnapshotVersionSkew / SnapshotEndianMismatch; missing/unreadable file
/// is ErrorCode::Io) — never a partially-filled Snapshot. On success
/// \p Stats (when non-null) accrues SnapshotsLoaded/BytesLoaded.
Result<Snapshot> loadSnapshot(const std::string &Path,
                              SnapshotStats *Stats = nullptr);

/// Adds the durable-search counters of \p Stats to \p Report under the
/// snapshot.* keys (the warm-hit count under verdict_cache.snapshot_hits,
/// matching the obs counter of the same name).
void fillSnapshotReport(obs::RunReport &Report, const SnapshotStats &Stats);

/// The canonical wire encoding of a SearchResult — every field,
/// including log and trajectory. Two results are byte-identical exactly
/// when these strings are equal, which is how the resume tests compare a
/// resumed run with the uninterrupted one.
std::string encodeSearchResultBytes(const SearchResult &Res);

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_SNAPSHOT_H
