//===- schedtool/Snapshot.cpp - Durable search & cache snapshots ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/Snapshot.h"

#include "support/AtomicFile.h"
#include "support/Crc32.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>
#include <fstream>

using namespace swa;
using namespace swa::schedtool;

namespace {

//===----------------------------------------------------------------------===//
// Wire primitives: explicit little-endian byte encoding, so snapshot
// bytes are identical on every host and a foreign-endian *writer* is
// impossible by construction — the endian marker guards against foreign
// readers of some future writer and against header corruption.
//===----------------------------------------------------------------------===//

const char kMagic[8] = {'S', 'W', 'A', 'S', 'N', 'A', 'P', '\0'};
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr uint32_t kHeaderSize = 16; // magic + version + endian marker.

// Type 2 was the config-entry record of format versions 1 and 2.
enum RecordType : uint32_t {
  kSearchState = 1,
  kComponentEntry = 3,
  kEnd = 0xFFFFFFFFu,
};

class Enc {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t U;
    static_assert(sizeof(U) == sizeof(V));
    std::memcpy(&U, &V, sizeof(U));
    u64(U);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.append(S);
  }
  const std::string &bytes() const { return Buf; }

private:
  std::string Buf;
};

/// Bounds-checked decoder. Any overrun latches the fail flag; values
/// read after a failure are zero. Callers check ok() (and, for a whole
/// record, consumed()) once at the end instead of after every field.
class Dec {
public:
  Dec(const char *Data, size_t Len) : P(Data), N(Len) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(P[Off++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(P[Off + I]))
           << (8 * I);
    Off += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(P[Off + I]))
           << (8 * I);
    Off += 8;
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t U = u64();
    double V;
    std::memcpy(&V, &U, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t Len = u64();
    if (!need(Len))
      return {};
    std::string S(P + Off, static_cast<size_t>(Len));
    Off += static_cast<size_t>(Len);
    return S;
  }
  /// Element count of a variable-length sequence whose elements occupy
  /// at least \p MinElemSize bytes each: an insane count (corruption in
  /// the length field) fails here instead of attempting a huge reserve.
  uint64_t count(uint64_t MinElemSize) {
    uint64_t C = u64();
    if (MinElemSize > 0 && C > (N - std::min(Off, N)) / MinElemSize) {
      Fail = true;
      return 0;
    }
    return C;
  }

  bool ok() const { return !Fail; }
  /// True when the record was decoded exactly: no overrun and no
  /// trailing bytes inside the payload.
  bool consumed() const { return !Fail && Off == N; }

private:
  bool need(uint64_t Bytes) {
    if (Fail || Bytes > N - Off) {
      Fail = true;
      return false;
    }
    return true;
  }

  const char *P;
  size_t N;
  size_t Off = 0;
  bool Fail = false;
};

//===----------------------------------------------------------------------===//
// Payload encodings.
//===----------------------------------------------------------------------===//

void encodeConfig(Enc &E, const cfg::Config &C) {
  E.str(C.Name);
  E.i32(C.NumCoreTypes);
  E.u64(C.Cores.size());
  for (const cfg::Core &Core : C.Cores) {
    E.str(Core.Name);
    E.i32(Core.Module);
    E.i32(Core.CoreType);
  }
  E.u64(C.Partitions.size());
  for (const cfg::Partition &P : C.Partitions) {
    E.str(P.Name);
    E.u8(static_cast<uint8_t>(P.Scheduler));
    E.i32(P.Core);
    E.u64(P.Tasks.size());
    for (const cfg::Task &T : P.Tasks) {
      E.str(T.Name);
      E.i32(T.Priority);
      E.u64(T.Wcet.size());
      for (cfg::TimeValue W : T.Wcet)
        E.i64(W);
      E.i64(T.Period);
      E.i64(T.Deadline);
    }
    E.u64(P.Windows.size());
    for (const cfg::Window &W : P.Windows) {
      E.i64(W.Start);
      E.i64(W.End);
    }
  }
  E.u64(C.Messages.size());
  for (const cfg::Message &M : C.Messages) {
    E.i32(M.Sender.Partition);
    E.i32(M.Sender.Task);
    E.i32(M.Receiver.Partition);
    E.i32(M.Receiver.Task);
    E.i64(M.MemDelay);
    E.i64(M.NetDelay);
  }
}

bool decodeConfig(Dec &D, cfg::Config &C) {
  C.Name = D.str();
  C.NumCoreTypes = D.i32();
  uint64_t NCores = D.count(9);
  for (uint64_t I = 0; D.ok() && I < NCores; ++I) {
    cfg::Core Core;
    Core.Name = D.str();
    Core.Module = D.i32();
    Core.CoreType = D.i32();
    C.Cores.push_back(std::move(Core));
  }
  uint64_t NParts = D.count(29);
  for (uint64_t I = 0; D.ok() && I < NParts; ++I) {
    cfg::Partition P;
    P.Name = D.str();
    uint8_t Kind = D.u8();
    if (Kind > static_cast<uint8_t>(cfg::SchedulerKind::EDF))
      return false;
    P.Scheduler = static_cast<cfg::SchedulerKind>(Kind);
    P.Core = D.i32();
    uint64_t NTasks = D.count(36);
    for (uint64_t T = 0; D.ok() && T < NTasks; ++T) {
      cfg::Task Task;
      Task.Name = D.str();
      Task.Priority = D.i32();
      uint64_t NWcet = D.count(8);
      for (uint64_t W = 0; D.ok() && W < NWcet; ++W)
        Task.Wcet.push_back(D.i64());
      Task.Period = D.i64();
      Task.Deadline = D.i64();
      P.Tasks.push_back(std::move(Task));
    }
    uint64_t NWin = D.count(16);
    for (uint64_t W = 0; D.ok() && W < NWin; ++W) {
      cfg::Window Win;
      Win.Start = D.i64();
      Win.End = D.i64();
      P.Windows.push_back(Win);
    }
    C.Partitions.push_back(std::move(P));
  }
  uint64_t NMsgs = D.count(32);
  for (uint64_t I = 0; D.ok() && I < NMsgs; ++I) {
    cfg::Message M;
    M.Sender.Partition = D.i32();
    M.Sender.Task = D.i32();
    M.Receiver.Partition = D.i32();
    M.Receiver.Task = D.i32();
    M.MemDelay = D.i64();
    M.NetDelay = D.i64();
    C.Messages.push_back(M);
  }
  return D.ok();
}

void encodeVerdict(Enc &E, const analysis::VerdictOutcome &V) {
  E.u8(V.Schedulable ? 1 : 0);
  E.i64(V.FailedTasks);
  E.u64(V.TaskFailed.size());
  for (char F : V.TaskFailed)
    E.u8(static_cast<uint8_t>(F));
  E.u64(V.ActionCount);
  E.i64(V.FirstMissTime);
  E.u64(V.FirstMissTasks.size());
  for (int32_t G : V.FirstMissTasks)
    E.i32(G);
  E.u8(static_cast<uint8_t>(V.Stop));
}

bool decodeVerdict(Dec &D, analysis::VerdictOutcome &V) {
  V.Schedulable = D.u8() != 0;
  V.FailedTasks = D.i64();
  uint64_t NFailed = D.count(1);
  for (uint64_t I = 0; D.ok() && I < NFailed; ++I)
    V.TaskFailed.push_back(static_cast<char>(D.u8()));
  V.ActionCount = D.u64();
  V.FirstMissTime = D.i64();
  uint64_t NMiss = D.count(4);
  for (uint64_t I = 0; D.ok() && I < NMiss; ++I)
    V.FirstMissTasks.push_back(D.i32());
  uint8_t Stop = D.u8();
  if (Stop >= static_cast<uint8_t>(nsa::NumStopReasons))
    return false;
  V.Stop = static_cast<nsa::StopReason>(Stop);
  return D.ok();
}

void encodeCacheRecord(Enc &E, const Snapshot::CacheRecord &R) {
  E.u64(R.Canon.Hi);
  E.u64(R.Canon.Lo);
  E.u64(R.Raw.Hi);
  E.u64(R.Raw.Lo);
  encodeVerdict(E, R.Verdict);
}

bool decodeCacheRecord(Dec &D, Snapshot::CacheRecord &R) {
  R.Canon.Hi = D.u64();
  R.Canon.Lo = D.u64();
  R.Raw.Hi = D.u64();
  R.Raw.Lo = D.u64();
  return decodeVerdict(D, R.Verdict) && D.consumed();
}

void encodeSearchResult(Enc &E, const SearchResult &R) {
  E.u8(R.Found ? 1 : 0);
  encodeConfig(E, R.Best);
  E.i32(R.ConfigurationsEvaluated);
  E.i32(R.SchedulableSeen);
  E.i64(R.BestBadness);
  E.u64(R.BestTrajectory.size());
  for (const auto &[It, Badness] : R.BestTrajectory) {
    E.i32(It);
    E.i64(Badness);
  }
  E.i32(R.CandidatesSkipped);
  E.u8(R.Cancelled ? 1 : 0);
  E.i32(R.CacheHits);
  E.i32(R.CacheMisses);
  E.i32(R.SymmetryFolds);
  E.i32(R.DuplicateCandidates);
  E.i32(R.DecomposedCandidates);
  E.i32(R.ComponentsSimulated);
  E.i32(R.ComponentCacheHits);
  E.i32(R.ComponentCacheMisses);
  E.i32(R.DirtyComponents);
  E.i32(R.CleanComponentsReused);
  E.i32(R.SimulationsRun);
  E.u64(static_cast<uint64_t>(nsa::NumStopReasons));
  for (int C : R.StopReasonCounts)
    E.i32(C);
  E.u64(R.Log.size());
  for (const std::string &Line : R.Log)
    E.str(Line);
}

bool decodeSearchResult(Dec &D, SearchResult &R) {
  R.Found = D.u8() != 0;
  if (!decodeConfig(D, R.Best))
    return false;
  R.ConfigurationsEvaluated = D.i32();
  R.SchedulableSeen = D.i32();
  R.BestBadness = D.i64();
  uint64_t NTraj = D.count(12);
  for (uint64_t I = 0; D.ok() && I < NTraj; ++I) {
    int It = D.i32();
    int64_t Badness = D.i64();
    R.BestTrajectory.push_back({It, Badness});
  }
  R.CandidatesSkipped = D.i32();
  R.Cancelled = D.u8() != 0;
  R.CacheHits = D.i32();
  R.CacheMisses = D.i32();
  R.SymmetryFolds = D.i32();
  R.DuplicateCandidates = D.i32();
  R.DecomposedCandidates = D.i32();
  R.ComponentsSimulated = D.i32();
  R.ComponentCacheHits = D.i32();
  R.ComponentCacheMisses = D.i32();
  R.DirtyComponents = D.i32();
  R.CleanComponentsReused = D.i32();
  R.SimulationsRun = D.i32();
  if (D.u64() != static_cast<uint64_t>(nsa::NumStopReasons))
    return false; // taxonomy changed without a format bump
  for (int &C : R.StopReasonCounts)
    C = D.i32();
  uint64_t NLog = D.count(8);
  for (uint64_t I = 0; D.ok() && I < NLog; ++I)
    R.Log.push_back(D.str());
  return D.ok();
}

void encodeSearchState(Enc &E, const Snapshot &S) {
  E.u64(S.Seed);
  E.i32(S.BatchSize);
  E.u32(S.BaseCrc);
  E.i32(S.NextRound);
  E.i32(S.Iter);
  for (uint64_t W : S.RngState)
    E.u64(W);
  encodeConfig(E, S.Current);
  E.u64(S.Boost.size());
  for (double B : S.Boost)
    E.f64(B);
  encodeSearchResult(E, S.Res);
  E.str(S.StrategyName);
  E.str(S.StrategyState);
}

bool decodeSearchState(Dec &D, Snapshot &S) {
  S.Seed = D.u64();
  S.BatchSize = D.i32();
  S.BaseCrc = D.u32();
  S.NextRound = D.i32();
  S.Iter = D.i32();
  for (uint64_t &W : S.RngState)
    W = D.u64();
  if (!decodeConfig(D, S.Current))
    return false;
  uint64_t NBoost = D.count(8);
  for (uint64_t I = 0; D.ok() && I < NBoost; ++I)
    S.Boost.push_back(D.f64());
  if (!decodeSearchResult(D, S.Res))
    return false;
  S.StrategyName = D.str();
  S.StrategyState = D.str();
  return D.consumed();
}

Error corrupt(const std::string &What) {
  return Error::failure(ErrorCode::SnapshotCorrupt, What);
}

Error truncated(const std::string &What) {
  return Error::failure(ErrorCode::SnapshotTruncated, What);
}

} // namespace

void Snapshot::captureCache(const VerdictCache &Cache) {
  ComponentEntries.clear();
  Cache.forEachComponent([&](const cfg::Fingerprint &Key,
                             const VerdictCache::ComponentEntry &E) {
    ComponentEntries.push_back({Key, E.Raw, E.Verdict});
  });
  std::sort(ComponentEntries.begin(), ComponentEntries.end(),
            [](const CacheRecord &A, const CacheRecord &B) {
              return A.Canon.Hi != B.Canon.Hi ? A.Canon.Hi < B.Canon.Hi
                                              : A.Canon.Lo < B.Canon.Lo;
            });
}

uint64_t Snapshot::seedCache(VerdictCache &Cache) const {
  size_t Before = Cache.componentSize();
  for (const CacheRecord &R : ComponentEntries)
    Cache.insertComponentSnapshot(R.Canon, R.Raw, R.Verdict);
  return Cache.componentSize() - Before;
}

uint32_t schedtool::snapshotBaseCrc(const cfg::Config &Base) {
  Enc E;
  encodeConfig(E, Base);
  return support::crc32(E.bytes().data(), E.bytes().size());
}

Error schedtool::saveSnapshot(const Snapshot &S, const std::string &Path,
                              SnapshotStats *Stats) {
  support::AtomicFile File;
  if (Error E = File.open(Path))
    return E.withContext("snapshot " + Path);

  uint32_t FileCrc = 0;
  auto Append = [&](const std::string &Bytes) -> Error {
    FileCrc = support::crc32(Bytes.data(), Bytes.size(), FileCrc);
    return File.append(Bytes.data(), Bytes.size());
  };
  auto Record = [&](uint32_t Type, const std::string &Payload) -> Error {
    Enc H;
    H.u32(Type);
    H.u64(Payload.size());
    H.u32(support::crc32(Payload.data(), Payload.size()));
    if (Error E = Append(H.bytes()))
      return E;
    return Append(Payload);
  };

  Enc Header;
  for (char C : kMagic)
    Header.u8(static_cast<uint8_t>(C));
  Header.u32(Snapshot::FormatVersion);
  Header.u32(kEndianMarker);
  if (Error E = Append(Header.bytes()))
    return E.withContext("snapshot " + Path);

  if (S.HasSearchState) {
    Enc P;
    encodeSearchState(P, S);
    if (Error E = Record(kSearchState, P.bytes()))
      return E.withContext("snapshot " + Path);
  }
  for (const Snapshot::CacheRecord &R : S.ComponentEntries) {
    Enc P;
    encodeCacheRecord(P, R);
    if (Error E = Record(kComponentEntry, P.bytes()))
      return E.withContext("snapshot " + Path);
  }

  // End record: the whole-file CRC over every byte written so far (header
  // and all records, excluding the end record itself).
  Enc EndPayload;
  EndPayload.u32(FileCrc);
  uint64_t Bytes = 0;
  if (Error E = Record(kEnd, EndPayload.bytes()))
    return E.withContext("snapshot " + Path);
  Bytes = File.bytesWritten();
  if (Error E = File.commit())
    return E.withContext("snapshot " + Path);
  if (Stats) {
    ++Stats->SnapshotsWritten;
    Stats->BytesWritten += Bytes;
  }
  return Error::success();
}

Result<Snapshot> schedtool::loadSnapshot(const std::string &Path,
                                         SnapshotStats *Stats) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return Error::failure(ErrorCode::Io, "cannot open snapshot " + Path);
  std::string Data((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  if (!IS.good() && !IS.eof())
    return Error::failure(ErrorCode::Io, "cannot read snapshot " + Path);

  if (Data.empty())
    return truncated("empty snapshot file " + Path);
  if (Data.size() < kHeaderSize)
    return truncated("snapshot shorter than its header: " + Path);
  if (std::memcmp(Data.data(), kMagic, sizeof(kMagic)) != 0)
    return corrupt("bad magic: not a snapshot file: " + Path);

  Dec Head(Data.data() + sizeof(kMagic), 8);
  uint32_t Version = Head.u32();
  uint32_t Marker = Head.u32();
  // Endianness first: a foreign-endian writer byte-swaps the version
  // field too, so a skew report before this check would be misleading.
  if (Marker != kEndianMarker) {
    if (Marker == 0x04030201u)
      return Error::failure(ErrorCode::SnapshotEndianMismatch,
                            "snapshot written by a foreign-endian encoder: " +
                                Path);
    return corrupt("bad endian marker in " + Path);
  }
  if (Version != Snapshot::FormatVersion)
    return Error::failure(
        ErrorCode::SnapshotVersionSkew,
        formatString("snapshot format version %u, this reader speaks %u: ",
                     Version, Snapshot::FormatVersion) +
            Path);

  Snapshot S;
  bool SeenSearchState = false, SeenEnd = false;
  size_t Off = kHeaderSize;
  while (Off < Data.size()) {
    if (Data.size() - Off < 16)
      return truncated("snapshot ends mid-record-header: " + Path);
    Dec RH(Data.data() + Off, 16);
    uint32_t Type = RH.u32();
    uint64_t Len = RH.u64();
    uint32_t Crc = RH.u32();
    size_t PayloadOff = Off + 16;
    if (Len > Data.size() - PayloadOff)
      return truncated("snapshot ends mid-record: " + Path);
    const char *Payload = Data.data() + PayloadOff;
    if (support::crc32(Payload, static_cast<size_t>(Len)) != Crc)
      return corrupt(formatString("record CRC mismatch at offset %zu: ", Off) +
                     Path);

    if (Type == kEnd) {
      Dec D(Payload, static_cast<size_t>(Len));
      uint32_t StoredCrc = D.u32();
      if (!D.consumed())
        return corrupt("malformed end record: " + Path);
      if (support::crc32(Data.data(), Off) != StoredCrc)
        return corrupt("whole-file CRC mismatch: " + Path);
      if (PayloadOff + Len != Data.size())
        return corrupt("trailing bytes after end record: " + Path);
      SeenEnd = true;
      break;
    }

    Dec D(Payload, static_cast<size_t>(Len));
    switch (Type) {
    case kSearchState: {
      if (SeenSearchState)
        return corrupt("duplicate search-state record: " + Path);
      if (!decodeSearchState(D, S))
        return corrupt("malformed search-state record: " + Path);
      S.HasSearchState = true;
      SeenSearchState = true;
      break;
    }
    case kComponentEntry: {
      Snapshot::CacheRecord R;
      if (!decodeCacheRecord(D, R))
        return corrupt("malformed component-entry record: " + Path);
      S.ComponentEntries.push_back(std::move(R));
      break;
    }
    default:
      return corrupt(formatString("unknown record type %u: ", Type) + Path);
    }
    Off = PayloadOff + static_cast<size_t>(Len);
  }
  if (!SeenEnd)
    return truncated("snapshot missing its end record: " + Path);

  if (Stats) {
    ++Stats->SnapshotsLoaded;
    Stats->BytesLoaded += Data.size();
  }
  return S;
}

void schedtool::fillSnapshotReport(obs::RunReport &Report,
                                   const SnapshotStats &Stats) {
  Report.addCount("snapshot.written", Stats.SnapshotsWritten);
  Report.addCount("snapshot.loaded", Stats.SnapshotsLoaded);
  Report.addCount("snapshot.bytes_written", Stats.BytesWritten);
  Report.addCount("snapshot.bytes_loaded", Stats.BytesLoaded);
  Report.addCount("snapshot.entries_merged", Stats.ComponentEntriesMerged);
  Report.addCount("snapshot.write_failures", Stats.WriteFailures);
  Report.addCount("verdict_cache.snapshot_hits", Stats.SnapshotHits);
}

std::string schedtool::encodeSearchResultBytes(const SearchResult &Res) {
  Enc E;
  encodeSearchResult(E, Res);
  return E.bytes();
}
