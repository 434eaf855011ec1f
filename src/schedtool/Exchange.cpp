//===- schedtool/Exchange.cpp - Shared verdict exchange directory -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/Exchange.h"

#include "schedtool/Snapshot.h"
#include "support/StringUtils.h"

#include <sys/stat.h>

using namespace swa;
using namespace swa::schedtool;

static std::string pubPath(const std::string &Dir, int Shard) {
  return Dir + "/shard_" + std::to_string(Shard) + ".pub";
}

Error Exchange::init(std::string D, int ShardIndex, int ShardCount, Mode Md) {
  if (ShardCount < 1 || ShardIndex < 0 || ShardIndex >= ShardCount)
    return Error::failure(formatString(
        "invalid exchange shard %d/%d", ShardIndex, ShardCount));
  struct stat St;
  if (::stat(D.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return Error::failure(ErrorCode::Io,
                          "exchange directory does not exist: " + D);
  Dir = std::move(D);
  Idx = ShardIndex;
  N = ShardCount;
  M = Md;
  Peers.assign(static_cast<size_t>(N), PeerFile());
  return Error::success();
}

void Exchange::publish() {
  size_t NEntries = Out.componentSize();
  // Nothing new since the last publication (or nothing at all): peers
  // treat a missing or stale file identically, so skipping is safe.
  if (NEntries == Published)
    return;
  Snapshot S;
  S.captureCache(Out);
  if (saveSnapshot(S, pubPath(Dir, Idx))) {
    // Swallowed: a full disk or read-only exchange must not change what
    // the search computes — peers fall back to simulating locally.
    ++Stats.PublishFailures;
    return;
  }
  ++Stats.Publications;
  Published = NEntries;
}

void Exchange::refresh() {
  ++Stats.Refreshes;
  for (int J = 0; J < N; ++J) {
    if (J == Idx)
      continue;
    std::string Path = pubPath(Dir, J);
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      continue; // peer has not published yet — normal early on
    PeerFile &P = Peers[static_cast<size_t>(J)];
    long long MtNs =
        static_cast<long long>(St.st_mtim.tv_sec) * 1000000000LL +
        static_cast<long long>(St.st_mtim.tv_nsec);
    if (P.Size == static_cast<long long>(St.st_size) && P.MtimeNs == MtNs &&
        P.Inode == static_cast<unsigned long long>(St.st_ino))
      continue; // unchanged since the last load
    Result<Snapshot> S = loadSnapshot(Path);
    if (!S.ok()) {
      // AtomicFile guarantees old-or-new, so this is not a torn read; a
      // load can still race a rename in a way stat() resolves next
      // sweep, so count it and retry then (PeerFile left stale).
      ++Stats.PeerLoadErrors;
      continue;
    }
    P.Size = static_cast<long long>(St.st_size);
    P.MtimeNs = MtNs;
    P.Inode = static_cast<unsigned long long>(St.st_ino);
    ++Stats.PeerSnapshotsLoaded;
    Stats.ComponentEntriesFetched += S->seedCache(In);
  }
}
