//===- schedtool/FleetSearch.cpp - Sharded/portfolio fleet search -----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/FleetSearch.h"

#include "schedtool/Exchange.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/AtomicFile.h"
#include "support/Crc32.h"
#include "support/StringUtils.h"
#include "support/Subprocess.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>
#include <thread>

using namespace swa;
using namespace swa::schedtool;

//===----------------------------------------------------------------------===//
// Manifest: the fleet's SearchProblem on disk, so a worker process
// rebuilds the coordinator's problem bit-for-bit. Little-endian,
// CRC-tailed, bounds-checked — same discipline as the snapshot codec,
// but a separate tiny format (the manifest is coordinator-to-worker
// plumbing, not a durability artifact).
//===----------------------------------------------------------------------===//

namespace {

constexpr char kManifestMagic[8] = {'S', 'W', 'A', 'F', 'L', 'E', 'E', 'T'};
// Version 2 dropped the six acceleration-layer flag bytes that followed
// CandidateBudgetMs: the search has one evaluation path.
constexpr uint32_t kManifestVersion = 2;

struct FleetManifest {
  cfg::Config Base;
  uint64_t Seed = 1;
  int32_t MaxIterations = 100;
  double MinBoost = 1.1;
  double MaxBoost = 2.5;
  int32_t Workers = 1;
  int32_t BatchSize = 4;
  int64_t CandidateBudgetMs = -1;
  int32_t Shards = 1;
  uint8_t Portfolio = 0;
  int64_t FallbackMs = 2000;
  int64_t CheckpointEveryMs = 0;
  std::vector<std::string> Strategies;
};

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putI64(std::string &Out, int64_t V) {
  putU64(Out, static_cast<uint64_t>(V));
}
void putF64(std::string &Out, double V) {
  uint64_t U;
  std::memcpy(&U, &V, sizeof(U));
  putU64(Out, U);
}
void putStr(std::string &Out, const std::string &S) {
  putU64(Out, S.size());
  Out.append(S);
}

class ManifestReader {
public:
  ManifestReader(const char *Data, size_t Len) : P(Data), N(Len) {}
  uint8_t u8() { return need(1) ? static_cast<uint8_t>(P[Off++]) : 0; }
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
  int64_t i64() { return static_cast<int64_t>(u64()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t U = u64();
    double V;
    std::memcpy(&V, &U, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t L = u64();
    if (Fail || L > N - Off) {
      Fail = true;
      return std::string();
    }
    std::string S(P + Off, static_cast<size_t>(L));
    Off += static_cast<size_t>(L);
    return S;
  }
  bool ok() const { return !Fail; }
  bool done() const { return !Fail && Off == N; }

private:
  bool need(size_t K) {
    if (Fail || N - Off < K) {
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

std::string manifestPath(const std::string &Dir) { return Dir + "/manifest"; }
std::string ckptPath(const std::string &Dir, int Shard) {
  return Dir + "/shard_" + std::to_string(Shard) + ".ckpt";
}
std::string donePath(const std::string &Dir, int Shard) {
  return Dir + "/shard_" + std::to_string(Shard) + ".done";
}

Error writeManifest(const std::string &Dir, const FleetManifest &M) {
  std::string Body;
  Body.append(kManifestMagic, sizeof(kManifestMagic));
  putU32(Body, kManifestVersion);
  putU64(Body, M.Seed);
  putU32(Body, static_cast<uint32_t>(M.MaxIterations));
  putF64(Body, M.MinBoost);
  putF64(Body, M.MaxBoost);
  putU32(Body, static_cast<uint32_t>(M.Workers));
  putU32(Body, static_cast<uint32_t>(M.BatchSize));
  putI64(Body, M.CandidateBudgetMs);
  putU32(Body, static_cast<uint32_t>(M.Shards));
  Body.push_back(static_cast<char>(M.Portfolio));
  putI64(Body, M.FallbackMs);
  putI64(Body, M.CheckpointEveryMs);
  putU64(Body, M.Strategies.size());
  for (const std::string &S : M.Strategies)
    putStr(Body, S);
  std::string Cfg;
  encodeConfigBytes(M.Base, Cfg);
  putStr(Body, Cfg);
  putU32(Body, support::crc32(Body.data(), Body.size()));

  support::AtomicFile F;
  if (Error E = F.open(manifestPath(Dir)))
    return E;
  if (Error E = F.append(Body.data(), Body.size()))
    return E;
  return F.commit();
}

Error readManifest(const std::string &Dir, FleetManifest &M) {
  std::ifstream IS(manifestPath(Dir), std::ios::binary);
  if (!IS)
    return Error::failure(ErrorCode::Io,
                          "cannot open fleet manifest in " + Dir);
  std::string Data((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  auto Bad = [&](const char *What) {
    return Error::failure(ErrorCode::SnapshotCorrupt,
                          std::string("fleet manifest: ") + What);
  };
  if (Data.size() < sizeof(kManifestMagic) + 8 ||
      std::memcmp(Data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0)
    return Bad("bad magic");
  ManifestReader Tail(Data.data() + Data.size() - 4, 4);
  if (Tail.u32() != support::crc32(Data.data(), Data.size() - 4))
    return Bad("checksum mismatch");

  ManifestReader R(Data.data() + sizeof(kManifestMagic),
                   Data.size() - sizeof(kManifestMagic) - 4);
  if (R.u32() != kManifestVersion)
    return Error::failure(ErrorCode::SnapshotVersionSkew,
                          "fleet manifest: version skew");
  M.Seed = R.u64();
  M.MaxIterations = R.i32();
  M.MinBoost = R.f64();
  M.MaxBoost = R.f64();
  M.Workers = R.i32();
  M.BatchSize = R.i32();
  M.CandidateBudgetMs = R.i64();
  M.Shards = R.i32();
  M.Portfolio = R.u8();
  M.FallbackMs = R.i64();
  M.CheckpointEveryMs = R.i64();
  uint64_t NS = R.u64();
  if (NS > 4096)
    return Bad("absurd strategy count");
  for (uint64_t I = 0; R.ok() && I < NS; ++I)
    M.Strategies.push_back(R.str());
  std::string Cfg = R.str();
  if (!R.done())
    return Bad("malformed body");
  if (!decodeConfigBytes(Cfg, M.Base))
    return Bad("malformed base config");
  return Error::success();
}

/// The strategy shard \p Shard runs under manifest \p M.
std::string shardStrategyName(const FleetManifest &M, int Shard) {
  if (M.Portfolio)
    return static_cast<size_t>(Shard) < M.Strategies.size()
               ? M.Strategies[static_cast<size_t>(Shard)]
               : std::string("local");
  return M.Strategies.empty() ? std::string("local") : M.Strategies.front();
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// The finding iteration of a successful result (the trajectory's last
/// entry is (finding iteration, 0) when Found).
int findIteration(const SearchResult &R) {
  if (!R.Found || R.BestTrajectory.empty())
    return INT32_MAX;
  return R.BestTrajectory.back().first;
}

} // namespace

//===----------------------------------------------------------------------===//
// Worker side.
//===----------------------------------------------------------------------===//

Result<SearchResult> schedtool::runFleetShard(const std::string &Dir,
                                              int Shard,
                                              const CancelToken *Cancel,
                                              ExchangeStats *ExStats) {
  FleetManifest M;
  if (Error E = readManifest(Dir, M))
    return E;
  if (Shard < 0 || Shard >= M.Shards)
    return Error::failure(formatString(
        "fleet shard %d out of range (fleet of %d)", Shard, M.Shards));

  SearchProblem P;
  P.Base = M.Base;
  P.Seed = M.Seed;
  P.MaxIterations = M.MaxIterations;
  P.MinBoost = M.MinBoost;
  P.MaxBoost = M.MaxBoost;
  P.Workers = M.Workers;
  P.BatchSize = M.BatchSize;
  P.CandidateBudgetMs = M.CandidateBudgetMs;
  P.Cancel = Cancel;
  P.CheckpointPath = ckptPath(Dir, Shard);
  P.CheckpointEveryMs = M.CheckpointEveryMs;

  std::unique_ptr<Strategy> Strat = makeStrategy(shardStrategyName(M, Shard));
  if (!Strat)
    return Error::failure("unknown fleet strategy '" +
                          shardStrategyName(M, Shard) + "'");
  P.Strat = Strat.get();

  Exchange Ex;
  if (M.Shards > 1) {
    if (Error E = Ex.init(Dir, Shard, M.Shards,
                          M.Portfolio ? Exchange::Mode::Share
                                      : Exchange::Mode::Shard))
      return E;
    Ex.FallbackMs = M.FallbackMs;
    P.Ex = &Ex;
  }

  // Auto-resume: a respawned worker finds its own checkpoint and picks
  // up mid-stream (the PR 9 byte-identity contract). A missing or
  // unreadable checkpoint is a cold start — never a wrong answer; an
  // *identity-mismatched* one is a typed error from the search itself.
  Snapshot Resume;
  if (fileExists(P.CheckpointPath)) {
    Result<Snapshot> S = loadSnapshot(P.CheckpointPath);
    if (S.ok()) {
      Resume = std::move(*S);
      P.Resume = &Resume;
    }
  }

  Result<SearchResult> R = searchConfiguration(P);
  if (ExStats)
    *ExStats = Ex.Stats;
  return R;
}

int schedtool::runFleetWorker(const std::string &Dir, int Shard) {
  Result<SearchResult> Res = runFleetShard(Dir, Shard);
  if (!Res.ok()) {
    std::fprintf(stderr, "fleet worker %d: %s\n", Shard,
                 Res.error().message().c_str());
    return 1;
  }
  // The done envelope: a snapshot whose search state carries the final
  // SearchResult (plus the identity triple, so a coordinator resuming a
  // half-finished fleet can sanity-check it against the manifest).
  FleetManifest M;
  if (Error E = readManifest(Dir, M)) {
    std::fprintf(stderr, "fleet worker %d: %s\n", Shard, E.message().c_str());
    return 1;
  }
  Snapshot S;
  S.HasSearchState = true;
  S.Seed = M.Seed;
  S.BatchSize = M.BatchSize;
  S.BaseCrc = snapshotBaseCrc(M.Base);
  S.Current = M.Base;
  S.StrategyName = shardStrategyName(M, Shard);
  S.Res = std::move(*Res);
  if (Error E = saveSnapshot(S, donePath(Dir, Shard))) {
    std::fprintf(stderr, "fleet worker %d: %s\n", Shard, E.message().c_str());
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Coordinator.
//===----------------------------------------------------------------------===//

namespace {

/// Loads a finished worker's result from its done envelope.
Result<SearchResult> loadDone(const std::string &Dir, int Shard) {
  Result<Snapshot> S = loadSnapshot(donePath(Dir, Shard));
  if (!S.ok())
    return S.takeError().withContext(
        formatString("loading result of fleet shard %d", Shard));
  if (!S->HasSearchState)
    return Error::failure(
        ErrorCode::SnapshotCorrupt,
        formatString("fleet shard %d result envelope has no search state",
                     Shard));
  return std::move(S->Res);
}

Error clearShardFiles(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Error::failure(ErrorCode::Io,
                          "cannot open exchange directory " + Dir);
  std::vector<std::string> Victims;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.rfind("shard_", 0) == 0 || Name == "manifest" ||
        Name == "manifest.tmp")
      Victims.push_back(Name);
  }
  ::closedir(D);
  for (const std::string &V : Victims)
    ::unlink((Dir + "/" + V).c_str());
  return Error::success();
}

/// Portfolio winner: Found beats not-found; among found, earliest
/// finding iteration, then lowest shard; among all-unfound, lowest
/// badness, then lowest shard. A pure function of the results — every
/// coordinator run picks the same winner.
int pickWinner(const std::vector<SearchResult> &Results) {
  int Win = 0;
  for (int I = 1; I < static_cast<int>(Results.size()); ++I) {
    const SearchResult &A = Results[static_cast<size_t>(I)];
    const SearchResult &B = Results[static_cast<size_t>(Win)];
    if (A.Found != B.Found) {
      if (A.Found)
        Win = I;
      continue;
    }
    if (A.Found) {
      if (findIteration(A) < findIteration(B))
        Win = I;
    } else if (A.BestBadness < B.BestBadness) {
      Win = I;
    }
  }
  return Win;
}

} // namespace

Result<FleetResult> schedtool::runFleetSearch(const FleetProblem &FP) {
  if (FP.Shards < 1)
    return Error::failure("fleet needs at least one shard");
  if (FP.M == FleetProblem::Mode::Shard && FP.Strategies.size() > 1)
    return Error::failure("shard mode runs one strategy fleet-wide; pass at "
                          "most one strategy name");
  if (FP.ExchangeDir.empty())
    return Error::failure("fleet needs an exchange directory");

  // The exchange directory: create if missing; scrub stale state unless
  // resuming.
  ::mkdir(FP.ExchangeDir.c_str(), 0777);
  struct stat St;
  if (::stat(FP.ExchangeDir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return Error::failure(ErrorCode::Io,
                          "cannot create exchange directory " + FP.ExchangeDir);
  if (!FP.Resume) {
    if (Error E = clearShardFiles(FP.ExchangeDir))
      return E;
  }

  FleetManifest M;
  M.Base = FP.Problem.Base;
  M.Seed = FP.Problem.Seed;
  M.MaxIterations = FP.Problem.MaxIterations;
  M.MinBoost = FP.Problem.MinBoost;
  M.MaxBoost = FP.Problem.MaxBoost;
  M.Workers = FP.Problem.Workers;
  M.BatchSize = FP.Problem.BatchSize;
  M.CandidateBudgetMs = FP.Problem.CandidateBudgetMs;
  M.Shards = FP.Shards;
  M.Portfolio = FP.M == FleetProblem::Mode::Portfolio ? 1 : 0;
  M.FallbackMs = FP.FallbackMs;
  M.CheckpointEveryMs = FP.CheckpointEveryMs;
  M.Strategies = FP.Strategies;
  if (Error E = writeManifest(FP.ExchangeDir, M))
    return E;

  FleetResult Out;
  Out.ShardResults.resize(static_cast<size_t>(FP.Shards));
  Out.ShardExchange.resize(static_cast<size_t>(FP.Shards));
  Out.ShardStrategies.reserve(static_cast<size_t>(FP.Shards));
  for (int I = 0; I < FP.Shards; ++I)
    Out.ShardStrategies.push_back(shardStrategyName(M, I));

  std::vector<char> Have(static_cast<size_t>(FP.Shards), 0);

  if (FP.WorkerCommand.empty()) {
    // In-process backend: one thread per shard, each running the same
    // worker code path a spawned process would (manifest and all).
    std::vector<std::thread> Threads;
    std::vector<Result<SearchResult>> Results;
    Results.reserve(static_cast<size_t>(FP.Shards));
    for (int I = 0; I < FP.Shards; ++I)
      Results.push_back(Error::failure("shard did not run"));
    for (int I = 0; I < FP.Shards; ++I)
      Threads.emplace_back([&, I] {
        // A finished shard of a resumed fleet short-circuits through
        // its done envelope instead of re-searching.
        if (FP.Resume && fileExists(donePath(FP.ExchangeDir, I))) {
          Result<SearchResult> R = loadDone(FP.ExchangeDir, I);
          if (R.ok()) {
            Results[static_cast<size_t>(I)] = std::move(R);
            return;
          }
        }
        Results[static_cast<size_t>(I)] =
            runFleetShard(FP.ExchangeDir, I, FP.Problem.Cancel,
                          &Out.ShardExchange[static_cast<size_t>(I)]);
      });
    for (std::thread &T : Threads)
      T.join();
    for (int I = 0; I < FP.Shards; ++I) {
      if (!Results[static_cast<size_t>(I)].ok())
        return Results[static_cast<size_t>(I)].takeError().withContext(
            formatString("fleet shard %d", I));
      Out.ShardResults[static_cast<size_t>(I)] =
          std::move(*Results[static_cast<size_t>(I)]);
      Have[static_cast<size_t>(I)] = 1;
    }
  } else {
    // Process backend: spawn, monitor, respawn. A worker that exits
    // non-zero (or dies by signal) is restarted and auto-resumes from
    // its checkpoint; MaxRestarts bounds the respawn budget per shard.
    std::vector<support::Subprocess> Procs(static_cast<size_t>(FP.Shards));
    std::vector<int> Restarts(static_cast<size_t>(FP.Shards), 0);
    std::vector<char> Killed(static_cast<size_t>(FP.Shards), 0);
    auto Spawn = [&](int I, bool First) -> Error {
      std::vector<std::string> Argv = FP.WorkerCommand;
      Argv.push_back("--fleet-worker");
      Argv.push_back(FP.ExchangeDir);
      Argv.push_back("--fleet-shard");
      Argv.push_back(std::to_string(I));
      return Procs[static_cast<size_t>(I)].start(
          Argv, First ? FP.WorkerEnv : std::vector<std::string>());
    };
    for (int I = 0; I < FP.Shards; ++I) {
      if (FP.Resume && fileExists(donePath(FP.ExchangeDir, I))) {
        Result<SearchResult> R = loadDone(FP.ExchangeDir, I);
        if (R.ok()) {
          Out.ShardResults[static_cast<size_t>(I)] = std::move(*R);
          Have[static_cast<size_t>(I)] = 1;
          continue;
        }
      }
      if (Error E = Spawn(I, /*First=*/true))
        return E.withContext(formatString("spawning fleet shard %d", I));
    }

    for (;;) {
      bool AllDone = true;
      for (int I = 0; I < FP.Shards; ++I) {
        if (Have[static_cast<size_t>(I)])
          continue;
        AllDone = false;
        support::Subprocess &Proc = Procs[static_cast<size_t>(I)];
        if (Proc.running()) {
          // The crash drill: SIGKILL the victim the first time its
          // checkpoint exists, so the respawn resumes mid-search.
          if (I == FP.KillShardOnFirstCheckpoint &&
              !Killed[static_cast<size_t>(I)] &&
              fileExists(ckptPath(FP.ExchangeDir, I))) {
            Proc.kill(SIGKILL);
            Killed[static_cast<size_t>(I)] = 1;
          }
          continue;
        }
        int Code = Proc.wait();
        if (Code == 0) {
          Result<SearchResult> R = loadDone(FP.ExchangeDir, I);
          if (!R.ok())
            return R.takeError();
          Out.ShardResults[static_cast<size_t>(I)] = std::move(*R);
          Have[static_cast<size_t>(I)] = 1;
          continue;
        }
        if (Restarts[static_cast<size_t>(I)] >= FP.MaxRestarts)
          return Error::failure(formatString(
              "fleet shard %d failed with status %d after %d restarts", I,
              Code, Restarts[static_cast<size_t>(I)]));
        ++Restarts[static_cast<size_t>(I)];
        ++Out.Restarts;
        if (Error E = Spawn(I, /*First=*/false))
          return E.withContext(formatString("respawning fleet shard %d", I));
      }
      if (AllDone)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  if (FP.M == FleetProblem::Mode::Shard) {
    // Every shard replayed the full deterministic loop; their results
    // must agree byte for byte, and the fleet's answer is that result.
    std::string Ref = encodeSearchResultBytes(Out.ShardResults[0]);
    for (int I = 1; I < FP.Shards; ++I)
      if (encodeSearchResultBytes(Out.ShardResults[static_cast<size_t>(I)]) !=
          Ref)
        return Error::failure(
            ErrorCode::SnapshotMismatch,
            formatString("fleet shard %d's result diverges from shard 0's — "
                         "the byte-identity contract is broken",
                         I));
    Out.WinnerShard = 0;
    Out.WinnerStrategy = Out.ShardStrategies[0];
    Out.Res = Out.ShardResults[0];
  } else {
    Out.WinnerShard = pickWinner(Out.ShardResults);
    Out.WinnerStrategy =
        Out.ShardStrategies[static_cast<size_t>(Out.WinnerShard)];
    Out.Res = Out.ShardResults[static_cast<size_t>(Out.WinnerShard)];
  }
  return Out;
}
