//===- tests/DurableSearchTest.cpp - Kill-and-resume byte identity ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The durable-search headline contract: a configuration search killed at
// any checkpoint and resumed produces a SearchResult *byte-identical* to
// the uninterrupted run — same verdict stream, same counters, same log —
// for Workers 1/2/4. Exercised three ways:
//
//  * checkpointing on vs off (cadence must never leak into the result),
//  * the kill grid: SWA_CRASH_AFTER=commit:k death-tests the search at
//    every checkpoint boundary, then resumes from the surviving file,
//  * a real fork() + SIGKILL mid-run (no cooperative injection at all).
//
// Plus the degraded modes: warm cache-only start, a snapshot from a
// different search (typed SnapshotMismatch), and an unwritable
// checkpoint path (search result unaffected); a stateful strategy that
// resumes mid-stream, a resume under a different strategy (typed
// SnapshotMismatch), and the config_search CLI rejecting unknown flags
// and malformed numbers.
//
//===----------------------------------------------------------------------===//

#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"
#include "schedtool/Strategy.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__SANITIZE_THREAD__)
#define SWA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SWA_TSAN 1
#endif
#endif

using namespace swa;
using namespace swa::schedtool;

namespace {

/// The standard searchable problem: bindings and windows stripped so the
/// search must discover them (same idiom as SchedtoolTest).
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

/// A problem hard enough that 12 iterations never find a schedulable
/// layout: the search runs all 3 rounds (batch 4) and writes exactly 4
/// checkpoints — one at the top of each round plus the terminal flush.
SearchProblem hardProblem() {
  SearchProblem P;
  P.Base = unboundProblem(0.8, 4);
  P.Seed = 4;
  P.MaxIterations = 12;
  P.BatchSize = 4;
  P.Workers = 2;
  return P;
}
constexpr int kCheckpoints = 4;

/// Full-identity comparison: every SearchResult field, including the
/// cache statistics and the log, must match. (SchedtoolTest's
/// expectSameResult checks a subset; a resumed run restores the partial
/// result verbatim, so nothing is allowed to differ.)
void expectIdenticalResult(const SearchResult &A, const SearchResult &B) {
  EXPECT_EQ(A.Found, B.Found);
  EXPECT_EQ(A.ConfigurationsEvaluated, B.ConfigurationsEvaluated);
  EXPECT_EQ(A.SchedulableSeen, B.SchedulableSeen);
  EXPECT_EQ(A.BestBadness, B.BestBadness);
  EXPECT_EQ(A.BestTrajectory, B.BestTrajectory);
  EXPECT_EQ(A.CandidatesSkipped, B.CandidatesSkipped);
  EXPECT_EQ(A.Cancelled, B.Cancelled);
  EXPECT_EQ(A.CacheHits, B.CacheHits);
  EXPECT_EQ(A.CacheMisses, B.CacheMisses);
  EXPECT_EQ(A.SymmetryFolds, B.SymmetryFolds);
  EXPECT_EQ(A.DuplicateCandidates, B.DuplicateCandidates);
  EXPECT_EQ(A.DecomposedCandidates, B.DecomposedCandidates);
  EXPECT_EQ(A.ComponentsSimulated, B.ComponentsSimulated);
  EXPECT_EQ(A.ComponentCacheHits, B.ComponentCacheHits);
  EXPECT_EQ(A.ComponentCacheMisses, B.ComponentCacheMisses);
  EXPECT_EQ(A.DirtyComponents, B.DirtyComponents);
  EXPECT_EQ(A.CleanComponentsReused, B.CleanComponentsReused);
  EXPECT_EQ(A.SimulationsRun, B.SimulationsRun);
  EXPECT_EQ(A.StopReasonCounts, B.StopReasonCounts);
  EXPECT_EQ(A.Log, B.Log);
  ASSERT_EQ(A.Best.Partitions.size(), B.Best.Partitions.size());
  for (size_t P = 0; P < A.Best.Partitions.size(); ++P) {
    EXPECT_EQ(A.Best.Partitions[P].Core, B.Best.Partitions[P].Core);
    ASSERT_EQ(A.Best.Partitions[P].Windows.size(),
              B.Best.Partitions[P].Windows.size());
    for (size_t W = 0; W < A.Best.Partitions[P].Windows.size(); ++W) {
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].Start,
                B.Best.Partitions[P].Windows[W].Start);
      EXPECT_EQ(A.Best.Partitions[P].Windows[W].End,
                B.Best.Partitions[P].Windows[W].End);
    }
  }
}

} // namespace

TEST(DurableSearch, CheckpointingNeverChangesTheResult) {
  SearchProblem Plain = hardProblem();
  auto Baseline = searchConfiguration(Plain);
  ASSERT_TRUE(Baseline.ok()) << Baseline.error().message();

  std::string Path = testing::TempDir() + "swa_durable_plain.bin";
  std::remove(Path.c_str());
  SearchProblem Ck = hardProblem();
  Ck.CheckpointPath = Path;
  SnapshotStats Stats;
  Ck.CkptStats = &Stats;
  auto Res = searchConfiguration(Ck);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  expectIdenticalResult(*Baseline, *Res);
  EXPECT_EQ(Stats.SnapshotsWritten, static_cast<uint64_t>(kCheckpoints));
  EXPECT_EQ(Stats.WriteFailures, 0u);

  // The terminal snapshot is a complete, loadable image of the run.
  auto L = loadSnapshot(Path, &Stats);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_TRUE(L->HasSearchState);
  EXPECT_EQ(L->Iter, 12);
  expectIdenticalResult(*Baseline, L->Res);
  std::remove(Path.c_str());
}

TEST(DurableSearch, ThrottleLimitsCheckpointsToTheTerminalFlush) {
  std::string Path = testing::TempDir() + "swa_durable_throttle.bin";
  std::remove(Path.c_str());
  SearchProblem P = hardProblem();
  P.CheckpointPath = Path;
  P.CheckpointEveryMs = 1000000; // no periodic write can ever be due
  SnapshotStats Stats;
  P.CkptStats = &Stats;
  auto Res = searchConfiguration(P);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  // The terminal flush is throttle-free: exactly one snapshot.
  EXPECT_EQ(Stats.SnapshotsWritten, 1u);
  auto L = loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_EQ(L->Iter, 12);
  std::remove(Path.c_str());
}

// The kill grid. For every checkpoint boundary k, a death-test child
// runs the checkpointed search with SWA_CRASH_AFTER=commit:k — it dies
// with kCrashExitCode the instant the k-th checkpoint is fully durable —
// and the parent resumes from the surviving file at several worker
// counts, demanding the byte-identical result.
//
// Death-test discipline (the crash plan is parsed from the environment
// once per process): the threadsafe style re-executes the binary, so
// SWA_CRASH_AFTER — set *inside* the EXPECT_EXIT statement — is seen by
// a fresh process. The child must not touch AtomicFile before its
// designated statement, so everything parent-side is gated on
// !InDeathTestChild().
TEST(DurableSearch, KilledAtEveryCheckpointResumesByteIdentical) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const bool InChild = testing::internal::InDeathTestChild();
  SearchResult Baseline;
  if (!InChild) {
    auto R = searchConfiguration(hardProblem());
    ASSERT_TRUE(R.ok()) << R.error().message();
    Baseline = R.takeValue();
    ASSERT_FALSE(Baseline.Found)
        << "problem found a schedule; the kill grid needs a full-length run";

    // Pin the checkpoint count the grid below assumes.
    std::string CountPath = testing::TempDir() + "swa_durable_count.bin";
    std::remove(CountPath.c_str());
    SearchProblem PC = hardProblem();
    PC.CheckpointPath = CountPath;
    SnapshotStats Stats;
    PC.CkptStats = &Stats;
    auto RC = searchConfiguration(PC);
    ASSERT_TRUE(RC.ok());
    ASSERT_EQ(Stats.SnapshotsWritten, static_cast<uint64_t>(kCheckpoints))
        << "checkpoint cadence changed; update the kill grid";
    std::remove(CountPath.c_str());
  }

  for (int K = 1; K <= kCheckpoints; ++K) {
    std::string Path =
        testing::TempDir() + "swa_durable_kill_" + std::to_string(K) + ".bin";
    std::remove(Path.c_str());
    std::string Plan = "commit:" + std::to_string(K);
    EXPECT_EXIT(
        {
          setenv("SWA_CRASH_AFTER", Plan.c_str(), 1);
          SearchProblem PK = hardProblem();
          PK.CheckpointPath = Path;
          searchConfiguration(PK);
          std::fprintf(stderr, "checkpoint %d never committed\n", K);
          _exit(1);
        },
        testing::ExitedWithCode(support::AtomicFile::kCrashExitCode), "")
        << "kill point " << K;
    if (InChild)
      continue;

    // The atomicity contract: the file the crashed run left behind is a
    // complete, verifiable snapshot — the k-th checkpoint exactly.
    auto L = loadSnapshot(Path);
    ASSERT_TRUE(L.ok()) << "kill point " << K << ": " << L.error().message();
    EXPECT_TRUE(L->HasSearchState);

    for (int Workers : {1, 2, 4}) {
      SearchProblem PR = hardProblem();
      PR.Workers = Workers;
      PR.Resume = &L.value();
      auto RR = searchConfiguration(PR);
      ASSERT_TRUE(RR.ok())
          << "kill point " << K << ": " << RR.error().message();
      expectIdenticalResult(Baseline, *RR);
    }
    std::remove(Path.c_str());
  }
}

// The same contract without cooperative injection: fork a child that
// runs the checkpointed search, SIGKILL it mid-run, resume in the
// parent. Whatever instant the kill landed — mid-simulation, mid-write,
// between rounds — the resumed (or, if no checkpoint ever became
// durable, cold) search must reproduce the uninterrupted result.
TEST(DurableSearch, SigkilledMidRunResumesByteIdentical) {
#ifdef SWA_TSAN
  GTEST_SKIP() << "raw fork() + SIGKILL is not TSan-clean; the SWA_CRASH_AFTER "
                  "grid above covers the kill points under TSan";
#else
  SearchProblem P = hardProblem();
  P.MaxIterations = 40; // widen the window the kill can land in
  P.Workers = 1;        // the child stays single-threaded

  auto Baseline = searchConfiguration(P);
  ASSERT_TRUE(Baseline.ok()) << Baseline.error().message();

  std::string Path = testing::TempDir() + "swa_durable_sigkill.bin";
  std::remove(Path.c_str());
  pid_t Child = fork();
  ASSERT_GE(Child, 0) << "fork failed";
  if (Child == 0) {
    SearchProblem PC = P;
    PC.CheckpointPath = Path;
    auto R = searchConfiguration(PC);
    _exit(R.ok() ? 0 : 3);
  }
  usleep(15000);
  kill(Child, SIGKILL);
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  // Either we caught it mid-run (killed) or it finished first (clean
  // exit) — both are valid grid points for the resume contract.
  ASSERT_TRUE((WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL) ||
              (WIFEXITED(Status) && WEXITSTATUS(Status) == 0))
      << "child status " << Status;

  SearchProblem PR = P;
  Result<Snapshot> L = loadSnapshot(Path);
  if (L.ok()) {
    PR.Resume = &L.value();
  } else {
    // Killed before the first commit became durable: the only acceptable
    // failure is "no such file" — a torn or corrupt file would break the
    // atomicity contract.
    EXPECT_EQ(L.error().code(), ErrorCode::Io) << L.error().message();
  }
  auto RR = searchConfiguration(PR);
  ASSERT_TRUE(RR.ok()) << RR.error().message();
  expectIdenticalResult(*Baseline, *RR);
  std::remove(Path.c_str());
#endif
}

TEST(DurableSearch, WarmCacheOnlyStartPreservesTheVerdictStream) {
  // Strip the search state from a finished run's snapshot, leaving only
  // the verdict cache, and re-run from the top: every decision-visible
  // field must be unchanged (verdicts replay from the warm cache exactly
  // as simulation would decide them); only the cost counters may differ.
  std::string Path = testing::TempDir() + "swa_durable_warm.bin";
  std::remove(Path.c_str());
  SearchProblem P = hardProblem();
  P.CheckpointPath = Path;
  auto Cold = searchConfiguration(P);
  ASSERT_TRUE(Cold.ok()) << Cold.error().message();

  auto L = loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();
  L->HasSearchState = false;

  SearchProblem PW = hardProblem();
  PW.Resume = &L.value();
  SnapshotStats Stats;
  PW.CkptStats = &Stats;
  auto Warm = searchConfiguration(PW);
  ASSERT_TRUE(Warm.ok()) << Warm.error().message();
  EXPECT_EQ(Cold->Found, Warm->Found);
  EXPECT_EQ(Cold->ConfigurationsEvaluated, Warm->ConfigurationsEvaluated);
  EXPECT_EQ(Cold->SchedulableSeen, Warm->SchedulableSeen);
  EXPECT_EQ(Cold->BestBadness, Warm->BestBadness);
  EXPECT_EQ(Cold->BestTrajectory, Warm->BestTrajectory);
  EXPECT_EQ(Cold->StopReasonCounts, Warm->StopReasonCounts);
  EXPECT_EQ(Cold->CandidatesSkipped, Warm->CandidatesSkipped);
  EXPECT_EQ(Cold->DuplicateCandidates, Warm->DuplicateCandidates);
  // The warm run actually used the disk entries.
  EXPECT_GT(Stats.SnapshotHits, 0u);
  EXPECT_GT(Stats.ComponentEntriesMerged, 0u);
  std::remove(Path.c_str());
}

TEST(DurableSearch, ForeignSnapshotIsRejectedTyped) {
  std::string Path = testing::TempDir() + "swa_durable_foreign.bin";
  std::remove(Path.c_str());
  SearchProblem P = hardProblem();
  P.CheckpointPath = Path;
  ASSERT_TRUE(searchConfiguration(P).ok());
  auto L = loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();

  // Same base, different seed.
  SearchProblem Other = hardProblem();
  Other.Seed = 5;
  Other.Resume = &L.value();
  auto R1 = searchConfiguration(Other);
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.error().code(), ErrorCode::SnapshotMismatch);

  // Same seed, different batch size (a different candidate sequence).
  SearchProblem Batched = hardProblem();
  Batched.BatchSize = 6;
  Batched.Resume = &L.value();
  auto R2 = searchConfiguration(Batched);
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.error().code(), ErrorCode::SnapshotMismatch);

  // Same seed and batch, different base config.
  SearchProblem Rebased = hardProblem();
  Rebased.Base = unboundProblem(0.8, 5);
  Rebased.Resume = &L.value();
  auto R3 = searchConfiguration(Rebased);
  ASSERT_FALSE(R3.ok());
  EXPECT_EQ(R3.error().code(), ErrorCode::SnapshotMismatch);
  std::remove(Path.c_str());
}

TEST(DurableSearch, UnwritableCheckpointPathNeverChangesTheResult) {
  auto Baseline = searchConfiguration(hardProblem());
  ASSERT_TRUE(Baseline.ok());

  SearchProblem P = hardProblem();
  P.CheckpointPath = "/nonexistent-swa-dir/checkpoint.bin";
  SnapshotStats Stats;
  P.CkptStats = &Stats;
  auto Res = searchConfiguration(P);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  expectIdenticalResult(*Baseline, *Res);
  EXPECT_EQ(Stats.SnapshotsWritten, 0u);
  EXPECT_EQ(Stats.WriteFailures, static_cast<uint64_t>(kCheckpoints));
  EXPECT_FALSE(Stats.LastError.empty());
}

//===----------------------------------------------------------------------===//
// Strategy checkpointing: a checkpoint records the strategy that wrote it.
//===----------------------------------------------------------------------===//

TEST(DurableSearch, ResumeUnderDifferentStrategyIsTypedMismatch) {
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

TEST(DurableSearch, AnnealingResumeIsByteIdentical) {
  // The stateful-strategy counterpart of the kill-and-resume contract:
  // interrupt an annealing search mid-stream (simulated by running with
  // checkpoints and resuming from a mid-run snapshot) and the final
  // result matches the uninterrupted run — the temperature ladder
  // resumes, not resets.
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
  EXPECT_EQ(encodeSearchResultBytes(*Resumed), encodeSearchResultBytes(*Ref));
  std::remove(Ckpt.c_str());
}

//===----------------------------------------------------------------------===//
// The config_search CLI (SWA_CONFIG_SEARCH_BIN, a build-time path).
//===----------------------------------------------------------------------===//

#ifdef SWA_CONFIG_SEARCH_BIN
TEST(ConfigSearchCli, RejectsUnknownArguments) {
  // A removed or misspelled flag must not silently parse as the seed, and
  // a malformed or out-of-range number must not silently become a
  // default: usage on stderr and exit 2, before any search runs.
  for (const char *Arg :
       {"--no-cache", "--bogus-flag", "7x", "--fleet 4",
        "--portfolio local,genetic", "--fleet-worker d", "--workers abc",
        "--workers -2", "--workers 0", "--budget-ms -5",
        "--checkpoint-every-ms x"}) {
    std::string Cmd = std::string(SWA_CONFIG_SEARCH_BIN) + " " + Arg +
                      " >/dev/null 2>&1";
    int Status = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(Status)) << Arg;
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Arg;
  }
}
#endif // SWA_CONFIG_SEARCH_BIN

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
