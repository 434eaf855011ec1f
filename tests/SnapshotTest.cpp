//===- tests/SnapshotTest.cpp - Durable snapshot format + fault campaign ---===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The snapshot layer's contracts, adversarially:
//
//  * CRC32 known answers and the running (incremental) form.
//  * AtomicFile: commit publishes exactly the appended bytes and leaves
//    no temp file; discard leaves the old file untouched; every crash
//    point (SWA_CRASH_AFTER, exercised via death tests) leaves the old
//    file or the new file on disk — never a torn hybrid.
//  * Snapshot round-trip: save -> load -> re-save is byte-identical, and
//    snapshot bytes are a pure function of cache *contents* (insertion
//    order must not matter).
//  * The corrupt corpus: zero-length, truncated at every byte, a bit
//    flipped in every byte, version-skewed, endian-swapped, bad magic,
//    trailing garbage. Every single file must be rejected with a typed
//    non-Generic support::Error — a corrupt snapshot degrades a search
//    to a cold start, it never smuggles in a wrong verdict.
//
//===----------------------------------------------------------------------===//

#include "gen/Workload.h"
#include "schedtool/Snapshot.h"
#include "schedtool/VerdictCache.h"
#include "support/AtomicFile.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

using namespace swa;
using namespace swa::schedtool;

namespace {

std::string testPath(const std::string &Name) {
  return testing::TempDir() + "swa_snapshot_" + Name;
}

std::string readAll(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(IS)),
                     std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::string &Data) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  ASSERT_TRUE(OS.good()) << Path;
}

cfg::Config sampleConfig(uint64_t Seed) {
  gen::IndustrialParams P;
  P.Modules = 2;
  P.CoresPerModule = 2;
  P.PartitionsPerCore = 2;
  P.CoreUtilization = 0.5;
  P.Seed = Seed;
  return gen::industrialConfig(P);
}

analysis::VerdictOutcome missVerdict(int64_t At, int32_t Gid) {
  analysis::VerdictOutcome V;
  V.Schedulable = false;
  V.FailedTasks = 1;
  V.TaskFailed = {0, 1, 0};
  V.ActionCount = 123;
  V.FirstMissTime = At;
  V.FirstMissTasks = {Gid};
  V.Stop = nsa::StopReason::DeadlineMiss;
  return V;
}

analysis::VerdictOutcome okVerdict() {
  analysis::VerdictOutcome V;
  V.Schedulable = true;
  V.ActionCount = 456;
  V.Stop = nsa::StopReason::Completed;
  return V;
}

/// A snapshot with every feature populated: search state, both entry
/// levels, logs, trajectory, stop-reason tallies.
Snapshot sampleSnapshot() {
  Snapshot S;
  S.HasSearchState = true;
  S.Seed = 42;
  S.BatchSize = 4;
  S.BaseCrc = 0xDEADBEEFu;
  S.NextRound = 3;
  S.Iter = 12;
  S.RngState = {1, 2, 3, 0x0123456789abcdefULL};
  S.Current = sampleConfig(7);
  S.Boost = {1.1, 2.0, 1.5, 1.9};
  S.Res.Found = false;
  S.Res.ConfigurationsEvaluated = 12;
  S.Res.BestBadness = 77;
  S.Res.BestTrajectory = {{0, 100}, {5, 77}};
  S.Res.CacheHits = 3;
  S.Res.CacheMisses = 9;
  S.Res.Best = sampleConfig(8);
  S.Res.StopReasonCounts[static_cast<size_t>(nsa::StopReason::DeadlineMiss)] =
      11;
  S.Res.StopReasonCounts[static_cast<size_t>(nsa::StopReason::Completed)] = 1;
  S.Res.Log = {"iter 0: unschedulable (badness 100, first miss at t=1, "
               "1 tasks)",
               "round 0: cache 0 hits / 4 misses (4 entries)"};
  S.ComponentEntries.push_back({{1, 2}, missVerdict(10, 0)});
  S.ComponentEntries.push_back({{5, 6}, okVerdict()});
  S.ComponentEntries.push_back({{7, 8}, missVerdict(20, 1)});
  return S;
}

void expectSameVerdict(const analysis::VerdictOutcome &A,
                       const analysis::VerdictOutcome &B) {
  EXPECT_EQ(A.Schedulable, B.Schedulable);
  EXPECT_EQ(A.FailedTasks, B.FailedTasks);
  EXPECT_EQ(A.TaskFailed, B.TaskFailed);
  EXPECT_EQ(A.ActionCount, B.ActionCount);
  EXPECT_EQ(A.FirstMissTime, B.FirstMissTime);
  EXPECT_EQ(A.FirstMissTasks, B.FirstMissTasks);
  EXPECT_EQ(A.Stop, B.Stop);
}

void expectSameConfig(const cfg::Config &A, const cfg::Config &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.NumCoreTypes, B.NumCoreTypes);
  ASSERT_EQ(A.Cores.size(), B.Cores.size());
  for (size_t C = 0; C < A.Cores.size(); ++C) {
    EXPECT_EQ(A.Cores[C].Name, B.Cores[C].Name);
    EXPECT_EQ(A.Cores[C].Module, B.Cores[C].Module);
    EXPECT_EQ(A.Cores[C].CoreType, B.Cores[C].CoreType);
  }
  ASSERT_EQ(A.Partitions.size(), B.Partitions.size());
  for (size_t P = 0; P < A.Partitions.size(); ++P) {
    const cfg::Partition &PA = A.Partitions[P], &PB = B.Partitions[P];
    EXPECT_EQ(PA.Name, PB.Name);
    EXPECT_EQ(PA.Scheduler, PB.Scheduler);
    EXPECT_EQ(PA.Core, PB.Core);
    ASSERT_EQ(PA.Tasks.size(), PB.Tasks.size());
    for (size_t T = 0; T < PA.Tasks.size(); ++T) {
      EXPECT_EQ(PA.Tasks[T].Name, PB.Tasks[T].Name);
      EXPECT_EQ(PA.Tasks[T].Priority, PB.Tasks[T].Priority);
      EXPECT_EQ(PA.Tasks[T].Wcet, PB.Tasks[T].Wcet);
      EXPECT_EQ(PA.Tasks[T].Period, PB.Tasks[T].Period);
      EXPECT_EQ(PA.Tasks[T].Deadline, PB.Tasks[T].Deadline);
    }
    ASSERT_EQ(PA.Windows.size(), PB.Windows.size());
    for (size_t W = 0; W < PA.Windows.size(); ++W) {
      EXPECT_EQ(PA.Windows[W].Start, PB.Windows[W].Start);
      EXPECT_EQ(PA.Windows[W].End, PB.Windows[W].End);
    }
  }
  ASSERT_EQ(A.Messages.size(), B.Messages.size());
  for (size_t M = 0; M < A.Messages.size(); ++M) {
    EXPECT_EQ(A.Messages[M].Sender.Partition, B.Messages[M].Sender.Partition);
    EXPECT_EQ(A.Messages[M].Sender.Task, B.Messages[M].Sender.Task);
    EXPECT_EQ(A.Messages[M].Receiver.Partition,
              B.Messages[M].Receiver.Partition);
    EXPECT_EQ(A.Messages[M].Receiver.Task, B.Messages[M].Receiver.Task);
    EXPECT_EQ(A.Messages[M].MemDelay, B.Messages[M].MemDelay);
    EXPECT_EQ(A.Messages[M].NetDelay, B.Messages[M].NetDelay);
  }
}

void expectSameSnapshot(const Snapshot &A, const Snapshot &B) {
  EXPECT_EQ(A.HasSearchState, B.HasSearchState);
  EXPECT_EQ(A.Seed, B.Seed);
  EXPECT_EQ(A.BatchSize, B.BatchSize);
  EXPECT_EQ(A.BaseCrc, B.BaseCrc);
  EXPECT_EQ(A.NextRound, B.NextRound);
  EXPECT_EQ(A.Iter, B.Iter);
  EXPECT_EQ(A.RngState, B.RngState);
  EXPECT_EQ(A.Boost, B.Boost);
  expectSameConfig(A.Current, B.Current);
  EXPECT_EQ(A.Res.Found, B.Res.Found);
  EXPECT_EQ(A.Res.ConfigurationsEvaluated, B.Res.ConfigurationsEvaluated);
  EXPECT_EQ(A.Res.BestBadness, B.Res.BestBadness);
  EXPECT_EQ(A.Res.BestTrajectory, B.Res.BestTrajectory);
  EXPECT_EQ(A.Res.StopReasonCounts, B.Res.StopReasonCounts);
  EXPECT_EQ(A.Res.Log, B.Res.Log);
  expectSameConfig(A.Res.Best, B.Res.Best);
  ASSERT_EQ(A.ComponentEntries.size(), B.ComponentEntries.size());
  for (size_t I = 0; I < A.ComponentEntries.size(); ++I) {
    EXPECT_EQ(A.ComponentEntries[I].Key, B.ComponentEntries[I].Key);
    expectSameVerdict(A.ComponentEntries[I].Verdict,
                      B.ComponentEntries[I].Verdict);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

TEST(Crc32, KnownAnswers) {
  // The IEEE reflected-polynomial check value.
  EXPECT_EQ(support::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(support::crc32("", 0), 0u);
  EXPECT_EQ(support::crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, RunningFormMatchesOneShot) {
  const std::string Data = "the quick brown fox jumps over the lazy dog";
  uint32_t Whole = support::crc32(Data.data(), Data.size());
  for (size_t Split = 0; Split <= Data.size(); ++Split) {
    uint32_t Part = support::crc32(Data.data(), Split);
    Part = support::crc32(Data.data() + Split, Data.size() - Split, Part);
    EXPECT_EQ(Part, Whole) << "split at " << Split;
  }
}

//===----------------------------------------------------------------------===//
// AtomicFile
//===----------------------------------------------------------------------===//

TEST(AtomicFile, CommitPublishesExactlyTheAppendedBytes) {
  std::string Path = testPath("commit.bin");
  std::remove(Path.c_str());
  support::AtomicFile F;
  ASSERT_FALSE(F.open(Path).isFailure());
  ASSERT_FALSE(F.append("hello ", 6).isFailure());
  ASSERT_FALSE(F.append("world", 5).isFailure());
  EXPECT_EQ(F.bytesWritten(), 11u);
  std::string Tmp = F.tempPath();
  ASSERT_FALSE(F.commit().isFailure());
  EXPECT_EQ(readAll(Path), "hello world");
  std::ifstream TmpCheck(Tmp);
  EXPECT_FALSE(TmpCheck.good()) << "temp file left after commit: " << Tmp;
  std::remove(Path.c_str());
}

TEST(AtomicFile, DiscardLeavesOldFileUntouchedAndNoTemp) {
  std::string Path = testPath("discard.bin");
  writeAll(Path, "OLD");
  std::string Tmp;
  {
    support::AtomicFile F;
    ASSERT_FALSE(F.open(Path).isFailure());
    ASSERT_FALSE(F.append("NEW", 3).isFailure());
    Tmp = F.tempPath();
    F.discard();
  }
  EXPECT_EQ(readAll(Path), "OLD");
  std::ifstream TmpCheck(Tmp);
  EXPECT_FALSE(TmpCheck.good()) << "temp file left after discard: " << Tmp;
  // The destructor path (no explicit discard/commit) must clean up too.
  {
    support::AtomicFile F;
    ASSERT_FALSE(F.open(Path).isFailure());
    ASSERT_FALSE(F.append("NEWER", 5).isFailure());
    Tmp = F.tempPath();
  }
  EXPECT_EQ(readAll(Path), "OLD");
  std::ifstream TmpCheck2(Tmp);
  EXPECT_FALSE(TmpCheck2.good()) << "temp file left by destructor: " << Tmp;
  std::remove(Path.c_str());
}

TEST(AtomicFile, OpenIntoMissingDirectoryIsTypedIoError) {
  support::AtomicFile F;
  Error E = F.open("/nonexistent-swa-dir/snap.bin");
  ASSERT_TRUE(E.isFailure());
  EXPECT_EQ(E.code(), ErrorCode::Io);
  EXPECT_FALSE(F.isOpen());
  Error W = support::writeFileAtomic("/nonexistent-swa-dir/snap.bin", "x", 1);
  ASSERT_TRUE(W.isFailure());
  EXPECT_EQ(W.code(), ErrorCode::Io);
}

// The crash-point fault campaign. Death tests use the threadsafe style:
// the child re-executes the test binary, so SWA_CRASH_AFTER — set inside
// the EXPECT_EXIT statement, i.e. only in the child — is parsed by a
// fresh process whose crash counters start at zero. The seed file is
// written with a plain ofstream so no AtomicFile crash point fires
// before the statement under test.
TEST(AtomicFileDeath, EveryCrashStageLeavesOldOrNewNeverTorn) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string Path = testPath("crash.bin");
  const std::string Old = "OLD-CONTENT";
  const std::string New = "NEW-CONTENT-LONGER-THAN-OLD";
  for (const char *Stage : {"byte", "write", "fsync", "rename", "commit"}) {
    writeAll(Path, Old);
    EXPECT_EXIT(
        {
          setenv("SWA_CRASH_AFTER", Stage, 1);
          Error E = support::writeFileAtomic(Path, New.data(), New.size());
          // Reaching here means the stage never fired — fail loudly with
          // a distinct exit code instead of a confusing success.
          std::fprintf(stderr, "no crash at stage %s (err=%s)\n", Stage,
                       E.isFailure() ? E.message().c_str() : "none");
          _exit(1);
        },
        testing::ExitedWithCode(support::AtomicFile::kCrashExitCode), "")
        << "stage " << Stage;
    // In the re-executed death-test child only the designated statement
    // runs; the on-disk checks below are meaningful in the parent alone.
    if (testing::internal::InDeathTestChild())
      continue;
    std::string Got = readAll(Path);
    EXPECT_TRUE(Got == Old || Got == New)
        << "torn file after crash at " << Stage << ": \"" << Got << "\"";
    // Crashing strictly before the rename must preserve the old bytes;
    // at or after the rename the new bytes must be visible.
    if (std::string(Stage) == "byte" || std::string(Stage) == "write" ||
        std::string(Stage) == "fsync")
      EXPECT_EQ(Got, Old) << "stage " << Stage;
    else
      EXPECT_EQ(Got, New) << "stage " << Stage;
  }
  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());
}

TEST(AtomicFileDeath, NthOccurrenceCountingSelectsTheKthWrite) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string PathA = testPath("crash_a.bin");
  std::string PathB = testPath("crash_b.bin");
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
  // Crash at the *second* commit: the first file must be fully durable,
  // the second absent.
  EXPECT_EXIT(
      {
        setenv("SWA_CRASH_AFTER", "commit:2", 1);
        support::writeFileAtomic(PathA, "A", 1);
        support::writeFileAtomic(PathB, "B", 1);
        _exit(1);
      },
      testing::ExitedWithCode(support::AtomicFile::kCrashExitCode), "");
  EXPECT_EQ(readAll(PathA), "A");
  // writeFileAtomic(PathB) committed (rename done) before the crash
  // point fired — commit:N fires after the Nth successful commit.
  EXPECT_EQ(readAll(PathB), "B");
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshot round-trip and byte determinism
//===----------------------------------------------------------------------===//

TEST(Snapshot, RoundTripsEveryFieldAndIsByteStable) {
  Snapshot S = sampleSnapshot();
  std::string Path = testPath("roundtrip.bin");
  SnapshotStats Stats;
  ASSERT_FALSE(saveSnapshot(S, Path, &Stats).isFailure());
  EXPECT_EQ(Stats.SnapshotsWritten, 1u);
  EXPECT_GT(Stats.BytesWritten, 0u);

  Result<Snapshot> L = loadSnapshot(Path, &Stats);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_EQ(Stats.SnapshotsLoaded, 1u);
  EXPECT_EQ(Stats.BytesLoaded, Stats.BytesWritten);
  expectSameSnapshot(S, *L);

  // Re-saving the loaded image reproduces the file byte-for-byte.
  std::string Path2 = testPath("roundtrip2.bin");
  ASSERT_FALSE(saveSnapshot(*L, Path2).isFailure());
  EXPECT_EQ(readAll(Path), readAll(Path2));
  std::remove(Path.c_str());
  std::remove(Path2.c_str());
}

TEST(Snapshot, CacheOnlySnapshotRoundTrips) {
  Snapshot S;
  S.ComponentEntries.push_back({{1, 2}, okVerdict()});
  std::string Path = testPath("cacheonly.bin");
  ASSERT_FALSE(saveSnapshot(S, Path).isFailure());
  Result<Snapshot> L = loadSnapshot(Path);
  ASSERT_TRUE(L.ok()) << L.error().message();
  EXPECT_FALSE(L->HasSearchState);
  EXPECT_EQ(L->ComponentEntries.size(), 1u);
  std::remove(Path.c_str());
}

TEST(Snapshot, BytesAreAPureFunctionOfCacheContents) {
  // Two caches filled with the same entries in opposite orders must
  // produce identical snapshot files (captureCache sorts by key).
  analysis::VerdictOutcome V1 = missVerdict(10, 0), V2 = okVerdict();
  analysis::VerdictOutcome V3 = missVerdict(30, 2);
  VerdictCache A, B;
  A.insertComponent({1, 1}, V1);
  A.insertComponent({2, 2}, V2);
  A.insertComponent({3, 3}, V3);
  B.insertComponent({3, 3}, V3);
  B.insertComponent({2, 2}, V2);
  B.insertComponent({1, 1}, V1);

  Snapshot SA, SB;
  SA.captureCache(A);
  SB.captureCache(B);
  std::string PA = testPath("order_a.bin"), PB = testPath("order_b.bin");
  ASSERT_FALSE(saveSnapshot(SA, PA).isFailure());
  ASSERT_FALSE(saveSnapshot(SB, PB).isFailure());
  EXPECT_EQ(readAll(PA), readAll(PB));
  std::remove(PA.c_str());
  std::remove(PB.c_str());
}

TEST(Snapshot, SeedCacheMarksProvenanceAndNeverOverwrites) {
  Snapshot S;
  S.ComponentEntries.push_back({{1, 1}, missVerdict(10, 0)});
  S.ComponentEntries.push_back({{2, 2}, okVerdict()});
  S.ComponentEntries.push_back({{3, 3}, missVerdict(20, 1)});

  VerdictCache Cache;
  // Pre-existing same-run entry under key {1,1}: the snapshot must not
  // replace it or flip its provenance.
  Cache.insertComponent({1, 1}, missVerdict(10, 0));
  EXPECT_EQ(S.seedCache(Cache), 2u);
  const VerdictCache::ComponentEntry *E1 = Cache.lookupComponent({1, 1});
  ASSERT_NE(E1, nullptr);
  EXPECT_FALSE(E1->FromSnapshot);
  const VerdictCache::ComponentEntry *E2 = Cache.lookupComponent({2, 2});
  ASSERT_NE(E2, nullptr);
  EXPECT_TRUE(E2->FromSnapshot);
  const VerdictCache::ComponentEntry *C3 = Cache.lookupComponent({3, 3});
  ASSERT_NE(C3, nullptr);
  EXPECT_TRUE(C3->FromSnapshot);
}

TEST(Snapshot, BaseCrcDistinguishesConfigs) {
  cfg::Config A = sampleConfig(1), B = sampleConfig(2);
  EXPECT_EQ(snapshotBaseCrc(A), snapshotBaseCrc(A));
  EXPECT_NE(snapshotBaseCrc(A), snapshotBaseCrc(B));
  cfg::Config A2 = A;
  A2.Partitions[0].Tasks[0].Wcet[0] += 1;
  EXPECT_NE(snapshotBaseCrc(A), snapshotBaseCrc(A2));
}

//===----------------------------------------------------------------------===//
// The corrupt corpus
//===----------------------------------------------------------------------===//

namespace {

/// Loads \p Data (written to a scratch file) and expects a typed,
/// non-Generic rejection.
void expectTypedRejection(const std::string &Data, const char *What) {
  std::string Path = testPath("corpus.bin");
  writeAll(Path, Data);
  Result<Snapshot> L = loadSnapshot(Path);
  ASSERT_FALSE(L.ok()) << What << ": accepted a malformed snapshot";
  EXPECT_NE(L.error().code(), ErrorCode::Generic) << What;
  EXPECT_NE(L.error().code(), ErrorCode::Io)
      << What << ": " << L.error().message();
  std::remove(Path.c_str());
}

} // namespace

TEST(SnapshotCorpus, MissingFileIsTypedIoError) {
  Result<Snapshot> L = loadSnapshot(testPath("never_written.bin"));
  ASSERT_FALSE(L.ok());
  EXPECT_EQ(L.error().code(), ErrorCode::Io);
}

TEST(SnapshotCorpus, ZeroLengthFileIsTruncated) {
  std::string Path = testPath("zero.bin");
  writeAll(Path, "");
  Result<Snapshot> L = loadSnapshot(Path);
  ASSERT_FALSE(L.ok());
  EXPECT_EQ(L.error().code(), ErrorCode::SnapshotTruncated);
  std::remove(Path.c_str());
}

TEST(SnapshotCorpus, TruncationAtEveryByteIsRejectedTyped) {
  std::string Path = testPath("full.bin");
  ASSERT_FALSE(saveSnapshot(sampleSnapshot(), Path).isFailure());
  std::string Full = readAll(Path);
  ASSERT_GT(Full.size(), 16u);
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    std::string Prefix = Full.substr(0, Len);
    std::string P = testPath("trunc.bin");
    writeAll(P, Prefix);
    Result<Snapshot> L = loadSnapshot(P);
    ASSERT_FALSE(L.ok()) << "accepted a " << Len << "-byte prefix of a "
                         << Full.size() << "-byte snapshot";
    EXPECT_NE(L.error().code(), ErrorCode::Generic) << "at " << Len;
    std::remove(P.c_str());
  }
  std::remove(Path.c_str());
}

TEST(SnapshotCorpus, BitFlipsAreRejectedTyped) {
  std::string Path = testPath("flip_src.bin");
  ASSERT_FALSE(saveSnapshot(sampleSnapshot(), Path).isFailure());
  std::string Full = readAll(Path);
  // Every bit of the header and framing-sensitive prefix; one bit per
  // byte (rotating position) across the whole rest of the file.
  for (size_t Off = 0; Off < Full.size(); ++Off) {
    int Bits = Off < 64 ? 8 : 1;
    for (int B = 0; B < Bits; ++B) {
      int Bit = Bits == 8 ? B : static_cast<int>(Off % 8);
      std::string Mut = Full;
      Mut[Off] = static_cast<char>(Mut[Off] ^ (1 << Bit));
      expectTypedRejection(
          Mut, ("bit " + std::to_string(Bit) + " at offset " +
                std::to_string(Off))
                   .c_str());
    }
  }
  std::remove(Path.c_str());
}

TEST(SnapshotCorpus, VersionSkewIsTyped) {
  std::string Path = testPath("skew_src.bin");
  ASSERT_FALSE(saveSnapshot(sampleSnapshot(), Path).isFailure());
  std::string Full = readAll(Path);
  // The u32 version lives at offset 8 (after the magic), little-endian.
  // Both a newer writer and the previous format (two cache levels) are
  // typed skews, never a best-effort read.
  for (uint32_t Version :
       {Snapshot::FormatVersion + 1, Snapshot::FormatVersion - 1}) {
    std::string Skewed = Full;
    Skewed[8] = static_cast<char>(Version);
    std::string P = testPath("skew.bin");
    writeAll(P, Skewed);
    Result<Snapshot> L = loadSnapshot(P);
    ASSERT_FALSE(L.ok()) << "version " << Version;
    EXPECT_EQ(L.error().code(), ErrorCode::SnapshotVersionSkew)
        << "version " << Version;
    std::remove(P.c_str());
  }
  std::remove(Path.c_str());
}

TEST(SnapshotCorpus, ForeignEndianMarkerIsTyped) {
  std::string Path = testPath("endian_src.bin");
  ASSERT_FALSE(saveSnapshot(sampleSnapshot(), Path).isFailure());
  std::string Full = readAll(Path);
  // The endian marker 0x01020304 is encoded little-endian at offset 12
  // as 04 03 02 01; a big-endian writer would store 01 02 03 04.
  Full[12] = 0x01;
  Full[13] = 0x02;
  Full[14] = 0x03;
  Full[15] = 0x04;
  std::string P = testPath("endian.bin");
  writeAll(P, Full);
  Result<Snapshot> L = loadSnapshot(P);
  ASSERT_FALSE(L.ok());
  EXPECT_EQ(L.error().code(), ErrorCode::SnapshotEndianMismatch);
  std::remove(P.c_str());
  std::remove(Path.c_str());
}

TEST(SnapshotCorpus, BadMagicAndTrailingGarbageAreTyped) {
  std::string Path = testPath("frame_src.bin");
  ASSERT_FALSE(saveSnapshot(sampleSnapshot(), Path).isFailure());
  std::string Full = readAll(Path);

  std::string BadMagic = Full;
  BadMagic[0] = 'X';
  expectTypedRejection(BadMagic, "bad magic");
  expectTypedRejection("not a snapshot at all", "foreign file");
  expectTypedRejection(Full + "garbage", "trailing garbage");
  std::remove(Path.c_str());
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
