//===- tests/FleetSearchTest.cpp - Fleet-equality contract ------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The fleet-scale search headline contract: the fleet result is
// byte-identical to the single-process PR 9 search for every fleet
// size and per-worker thread count — exercised over the full grid
// shards {1,2,4} x workers {1,2} (in-process backend), through the
// process backend (spawned config_search workers), and through the
// crash drills: a worker killed deterministically at its first
// checkpoint commit (SWA_CRASH_AFTER) and a worker SIGKILLed by the
// coordinator mid-round, both respawned and resumed.
//
// Portfolio mode: each racing strategy's result is byte-identical to
// that strategy's solo run, and the winner pick is deterministic.
//
// Plus the plumbing: the deterministic ownership partition, and
// manifest corruption as a typed rejection.
//
//===----------------------------------------------------------------------===//

#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Exchange.h"
#include "schedtool/FleetSearch.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace swa;
using namespace swa::schedtool;

namespace {

/// Bindings and windows stripped so the search must discover them (the
/// SchedtoolTest/DurableSearchTest idiom).
cfg::Config unboundProblem(double Utilization, uint64_t Seed) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = Utilization;
  P.Seed = Seed;
  cfg::Config C = gen::industrialConfig(P);
  for (cfg::Partition &Part : C.Partitions) {
    Part.Core = -1;
    Part.Windows.clear();
  }
  return C;
}

/// Hard enough that the search runs all rounds (no early Found), so the
/// exchange sees real multi-round traffic.
SearchProblem hardProblem() {
  SearchProblem P;
  P.Base = unboundProblem(0.8, 4);
  P.Seed = 4;
  P.MaxIterations = 12;
  P.BatchSize = 4;
  P.Workers = 1;
  return P;
}

/// A fresh exchange directory under the test's temp space.
std::string freshDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "fleet_" + Name + "_" +
                    std::to_string(::getpid());
  ::system(("rm -rf " + Dir).c_str());
  ::mkdir(Dir.c_str(), 0777);
  return Dir;
}

std::string resultBytes(const SearchResult &R) {
  return encodeSearchResultBytes(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// The ownership partition.
//===----------------------------------------------------------------------===//

TEST(Exchange, OwnershipPartitionsEveryItemExactlyOnce) {
  std::string Dir = freshDir("own");
  for (int N : {1, 2, 3, 4}) {
    std::vector<Exchange> Ex(static_cast<size_t>(N));
    for (int I = 0; I < N; ++I)
      ASSERT_FALSE(Ex[static_cast<size_t>(I)].init(Dir, I, N,
                                                   Exchange::Mode::Shard));
    for (int Round = 0; Round < 6; ++Round)
      for (int Item = 0; Item < 10; ++Item) {
        int Owners = 0;
        for (int I = 0; I < N; ++I)
          Owners += Ex[static_cast<size_t>(I)].ownsItem(Round, Item) ? 1 : 0;
        EXPECT_EQ(Owners, 1) << "round " << Round << " item " << Item
                             << " fleet " << N;
      }
  }
}

TEST(Exchange, RefusesMissingDirectory) {
  Exchange Ex;
  Error E = Ex.init(::testing::TempDir() + "no_such_dir_swa", 0, 2,
                    Exchange::Mode::Shard);
  EXPECT_TRUE(E.isFailure());
  EXPECT_EQ(E.code(), ErrorCode::Io);
}

//===----------------------------------------------------------------------===//
// The fleet-equality grid (in-process backend).
//===----------------------------------------------------------------------===//

TEST(FleetSearch, ShardGridIsByteIdenticalToSolo) {
  SearchProblem Solo = hardProblem();
  Result<SearchResult> Ref = searchConfiguration(Solo);
  ASSERT_TRUE(Ref.ok());
  std::string RefBytes = resultBytes(*Ref);

  for (int Shards : {1, 2, 4})
    for (int Workers : {1, 2}) {
      FleetProblem FP;
      FP.Problem = hardProblem();
      FP.Problem.Workers = Workers;
      FP.Shards = Shards;
      FP.ExchangeDir = freshDir("grid");
      FP.FallbackMs = 500;
      ASSERT_TRUE(FP.WorkerCommand.empty()); // in-process backend
      Result<FleetResult> Out = runFleetSearch(FP);
      ASSERT_TRUE(Out.ok()) << "shards=" << Shards << " workers=" << Workers
                            << ": " << Out.error().message();
      // Every shard — and therefore the merged result — matches the
      // single-process run byte for byte.
      EXPECT_EQ(resultBytes(Out->Res), RefBytes)
          << "shards=" << Shards << " workers=" << Workers;
      for (int I = 0; I < Shards; ++I)
        EXPECT_EQ(resultBytes(Out->ShardResults[static_cast<size_t>(I)]),
                  RefBytes)
            << "shards=" << Shards << " workers=" << Workers << " shard "
            << I;
    }
}

TEST(FleetSearch, FindingFleetMatchesSoloToo) {
  // An easy problem where the search *finds* a layout mid-stream: the
  // Found path (early return, partial rounds) must shard identically.
  SearchProblem Solo;
  Solo.Base = unboundProblem(0.55, 7);
  Solo.Seed = 7;
  Solo.MaxIterations = 40;
  Result<SearchResult> Ref = searchConfiguration(Solo);
  ASSERT_TRUE(Ref.ok());
  EXPECT_TRUE(Ref->Found);

  FleetProblem FP;
  FP.Problem = Solo;
  FP.Shards = 2;
  FP.ExchangeDir = freshDir("found");
  FP.FallbackMs = 500;
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_EQ(resultBytes(Out->Res), resultBytes(*Ref));
}

//===----------------------------------------------------------------------===//
// Portfolio mode.
//===----------------------------------------------------------------------===//

TEST(FleetSearch, PortfolioShardsMatchTheirSoloRuns) {
  const std::vector<std::string> Names = {"local", "annealing", "genetic"};
  // Long enough that the metaheuristics genuinely diverge (annealing
  // needs rejected moves, genetic needs a filled population).
  SearchProblem Portfolio = hardProblem();
  Portfolio.MaxIterations = 32;

  // Solo reference per strategy.
  std::vector<std::string> RefBytes;
  for (const std::string &Name : Names) {
    SearchProblem P = Portfolio;
    std::unique_ptr<Strategy> S = makeStrategy(Name);
    ASSERT_TRUE(S) << Name;
    P.Strat = S.get();
    Result<SearchResult> R = searchConfiguration(P);
    ASSERT_TRUE(R.ok()) << Name;
    RefBytes.push_back(resultBytes(*R));
  }
  // Distinct trajectories: otherwise the equality below would be
  // trivially satisfied by three identical searches.
  EXPECT_NE(RefBytes[0], RefBytes[2]);

  FleetProblem FP;
  FP.Problem = Portfolio;
  FP.Shards = static_cast<int>(Names.size());
  FP.M = FleetProblem::Mode::Portfolio;
  FP.Strategies = Names;
  FP.ExchangeDir = freshDir("folio");
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  for (size_t I = 0; I < Names.size(); ++I)
    EXPECT_EQ(resultBytes(Out->ShardResults[I]), RefBytes[I])
        << "strategy " << Names[I]
        << " diverged from its solo run under the shared exchange";

  // The winner pick is a pure function of the results: a second fleet
  // run picks the same winner with the same bytes.
  FleetProblem FP2 = FP;
  FP2.ExchangeDir = freshDir("folio2");
  Result<FleetResult> Out2 = runFleetSearch(FP2);
  ASSERT_TRUE(Out2.ok());
  EXPECT_EQ(Out->WinnerShard, Out2->WinnerShard);
  EXPECT_EQ(Out->WinnerStrategy, Out2->WinnerStrategy);
  EXPECT_EQ(resultBytes(Out->Res), resultBytes(Out2->Res));
}

//===----------------------------------------------------------------------===//
// Strategy checkpointing.
//===----------------------------------------------------------------------===//

TEST(FleetSearch, ResumeUnderDifferentStrategyIsTypedMismatch) {
  std::string Ckpt = ::testing::TempDir() + "strategy_swap_" +
                     std::to_string(::getpid()) + ".snap";
  std::remove(Ckpt.c_str());

  SearchProblem P = hardProblem();
  std::unique_ptr<Strategy> Ann = makeStrategy("annealing");
  P.Strat = Ann.get();
  P.CheckpointPath = Ckpt;
  ASSERT_TRUE(searchConfiguration(P).ok());

  Result<Snapshot> S = loadSnapshot(Ckpt);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S->StrategyName, "annealing");

  std::unique_ptr<Strategy> Gen = makeStrategy("genetic");
  P.Strat = Gen.get();
  P.CheckpointPath.clear();
  P.Resume = &*S;
  Result<SearchResult> R = searchConfiguration(P);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::SnapshotMismatch);
  std::remove(Ckpt.c_str());
}

TEST(FleetSearch, AnnealingResumeIsByteIdentical) {
  // The stateful-strategy counterpart of the PR 9 contract: interrupt an
  // annealing search mid-stream (simulated by running with checkpoints
  // and resuming from a mid-run snapshot) and the final result matches
  // the uninterrupted run — the temperature ladder resumes, not resets.
  std::string Ckpt = ::testing::TempDir() + "anneal_resume_" +
                     std::to_string(::getpid()) + ".snap";
  std::remove(Ckpt.c_str());

  SearchProblem P = hardProblem();
  std::unique_ptr<Strategy> A1 = makeStrategy("annealing");
  P.Strat = A1.get();
  Result<SearchResult> Ref = searchConfiguration(P);
  ASSERT_TRUE(Ref.ok());

  // Interrupted run: 2 of 3 rounds, then resume the rest.
  SearchProblem Half = hardProblem();
  Half.MaxIterations = 8;
  std::unique_ptr<Strategy> A2 = makeStrategy("annealing");
  Half.Strat = A2.get();
  Half.CheckpointPath = Ckpt;
  ASSERT_TRUE(searchConfiguration(Half).ok());

  Result<Snapshot> S = loadSnapshot(Ckpt);
  ASSERT_TRUE(S.ok());
  SearchProblem Rest = hardProblem();
  std::unique_ptr<Strategy> A3 = makeStrategy("annealing");
  Rest.Strat = A3.get();
  Rest.Resume = &*S;
  Result<SearchResult> Resumed = searchConfiguration(Rest);
  ASSERT_TRUE(Resumed.ok());
  EXPECT_EQ(resultBytes(*Resumed), resultBytes(*Ref));
  std::remove(Ckpt.c_str());
}

//===----------------------------------------------------------------------===//
// Process backend + crash drills. Workers are real spawned
// config_search processes (SWA_CONFIG_SEARCH_BIN, a build-time path).
//===----------------------------------------------------------------------===//

#ifdef SWA_CONFIG_SEARCH_BIN

TEST(FleetSearch, ProcessBackendMatchesSolo) {
  SearchProblem Solo = hardProblem();
  Result<SearchResult> Ref = searchConfiguration(Solo);
  ASSERT_TRUE(Ref.ok());

  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Shards = 2;
  FP.ExchangeDir = freshDir("proc");
  FP.FallbackMs = 500;
  FP.WorkerCommand = {SWA_CONFIG_SEARCH_BIN};
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_EQ(resultBytes(Out->Res), resultBytes(*Ref));
}

TEST(FleetSearch, CrashedWorkerResumesByteIdentically) {
  // Deterministic mid-fleet death: SWA_CRASH_AFTER=commit:1 makes every
  // worker die right after its first checkpoint commit (the injected-
  // crash machinery of the PR 9 fault campaign, exit code 87). The
  // coordinator respawns them with a clean environment; each finds its
  // own checkpoint, resumes mid-stream, and the fleet result must still
  // match the uninterrupted single-process run byte for byte.
  SearchProblem Solo = hardProblem();
  Result<SearchResult> Ref = searchConfiguration(Solo);
  ASSERT_TRUE(Ref.ok());

  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Shards = 2;
  FP.ExchangeDir = freshDir("crash");
  FP.FallbackMs = 500;
  FP.WorkerCommand = {SWA_CONFIG_SEARCH_BIN};
  FP.WorkerEnv = {"SWA_CRASH_AFTER=commit:1"};
  FP.MaxRestarts = 2;
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_GE(Out->Restarts, 2); // both workers died once
  EXPECT_EQ(resultBytes(Out->Res), resultBytes(*Ref));
}

TEST(FleetSearch, SigkilledWorkerResumesByteIdentically) {
  // The ungraceful variant: the coordinator SIGKILLs shard 1 the moment
  // its first checkpoint appears — mid-round, no cooperation — then
  // respawns it. Shard 0 meanwhile covers shard 1's items through the
  // fallback path, which must not perturb any result.
  SearchProblem Solo = hardProblem();
  Solo.MaxIterations = 24; // longer run: the kill lands mid-search
  Result<SearchResult> Ref = searchConfiguration(Solo);
  ASSERT_TRUE(Ref.ok());

  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Problem.MaxIterations = 24;
  FP.Shards = 2;
  FP.ExchangeDir = freshDir("kill");
  FP.FallbackMs = 300;
  FP.WorkerCommand = {SWA_CONFIG_SEARCH_BIN};
  FP.KillShardOnFirstCheckpoint = 1;
  FP.MaxRestarts = 2;
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_TRUE(Out.ok()) << Out.error().message();
  EXPECT_EQ(resultBytes(Out->Res), resultBytes(*Ref));
}

TEST(FleetSearch, ExhaustedRestartBudgetIsAnError) {
  // A worker that *always* dies must surface as a coordinator error,
  // not a hang: crash at every checkpoint commit with zero restarts.
  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Shards = 1;
  FP.ExchangeDir = freshDir("dead");
  FP.WorkerCommand = {"/nonexistent/worker/binary"};
  FP.MaxRestarts = 1;
  Result<FleetResult> Out = runFleetSearch(FP);
  ASSERT_FALSE(Out.ok());
}

TEST(ConfigSearchCli, RejectsUnknownArguments) {
  // A removed or misspelled flag must not silently parse as the seed:
  // usage on stderr and exit 2, before any search runs.
  for (const char *Arg : {"--no-cache", "--bogus-flag", "7x"}) {
    std::string Cmd = std::string(SWA_CONFIG_SEARCH_BIN) + " " + Arg +
                      " >/dev/null 2>&1";
    int Status = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Arg;
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Arg;
  }
}

#endif // SWA_CONFIG_SEARCH_BIN

//===----------------------------------------------------------------------===//
// Manifest robustness.
//===----------------------------------------------------------------------===//

TEST(FleetSearch, CorruptManifestIsTypedRejection) {
  // Produce a valid manifest via a 1-shard fleet, then flip a byte in
  // the middle and re-run a shard against it: typed error, never a
  // half-read problem.
  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Problem.MaxIterations = 4;
  FP.Shards = 1;
  FP.ExchangeDir = freshDir("corrupt");
  ASSERT_TRUE(runFleetSearch(FP).ok());

  std::string Path = FP.ExchangeDir + "/manifest";
  std::ifstream IS(Path, std::ios::binary);
  std::string Data((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  IS.close();
  ASSERT_GT(Data.size(), 30u);
  Data[Data.size() / 2] ^= 0x40;
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  OS.close();

  Result<SearchResult> R = runFleetShard(FP.ExchangeDir, 0);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::SnapshotCorrupt);
}

TEST(FleetSearch, VersionOneManifestIsTypedSkew) {
  // A manifest from the format that still carried the six acceleration
  // flag bytes (version 1) must be a typed skew, never reinterpreted:
  // rewrite a valid manifest's version and re-seal its CRC, so only the
  // version check can reject it.
  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Problem.MaxIterations = 4;
  FP.Shards = 1;
  FP.ExchangeDir = freshDir("v1");
  ASSERT_TRUE(runFleetSearch(FP).ok());

  std::string Path = FP.ExchangeDir + "/manifest";
  std::ifstream IS(Path, std::ios::binary);
  std::string Data((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  IS.close();
  ASSERT_GT(Data.size(), 16u);
  // Layout: 8-byte magic, u32 version (little-endian), ..., u32 CRC32 of
  // everything before it.
  Data[8] = 1;
  Data[9] = Data[10] = Data[11] = 0;
  uint32_t Crc = support::crc32(Data.data(), Data.size() - 4);
  for (int I = 0; I < 4; ++I)
    Data[Data.size() - 4 + static_cast<size_t>(I)] =
        static_cast<char>((Crc >> (8 * I)) & 0xFF);
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  OS.close();

  Result<SearchResult> R = runFleetShard(FP.ExchangeDir, 0);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::SnapshotVersionSkew);
}

TEST(FleetSearch, ShardModeRejectsStrategyPortfolio) {
  FleetProblem FP;
  FP.Problem = hardProblem();
  FP.Shards = 2;
  FP.Strategies = {"local", "annealing"};
  FP.ExchangeDir = freshDir("badmix");
  ASSERT_FALSE(runFleetSearch(FP).ok());
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
