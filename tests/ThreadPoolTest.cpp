//===- tests/ThreadPoolTest.cpp - ThreadPool contract tests ----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Exercises the pool contracts the config search and the sensitivity
// fan-out rely on: every index of every job runs exactly once even across
// rapid back-to-back jobs whose callables are destroyed as soon as
// parallelFor returns (a late-scheduled worker must never run a stale
// callable); an exception thrown by the callable is rethrown on the caller
// after the whole range ran, leaving the pool usable; and every item gets
// a thread slot in [0, threadCount()) that no two items hold at once —
// the contract that lets callers keep one model arena per slot unlocked.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace swa;

TEST(ThreadPool, RunsEveryIndexOnce) {
  ThreadPool Pool(4);
  const int N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](int I, int) {
    Hits[static_cast<size_t>(I)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1) << "index " << I;
}

TEST(ThreadPool, BackToBackJobsNeverRunStaleCallables) {
  // Each round publishes a *distinct temporary* callable that dies when
  // parallelFor returns, then immediately starts the next round. A worker
  // notified for round k but scheduled only after round k finished must
  // not touch round k's callable or steal round k+1's indices under it:
  // every entry of every round must be written with that round's tag.
  ThreadPool Pool(4);
  const int Rounds = 2000;
  const int N = 8;
  std::vector<int> Tags(static_cast<size_t>(N));
  for (int Round = 0; Round < Rounds; ++Round) {
    std::fill(Tags.begin(), Tags.end(), -1);
    Pool.parallelFor(N, [&Tags, Round](int I, int) {
      Tags[static_cast<size_t>(I)] = Round;
    });
    for (int I = 0; I < N; ++I)
      ASSERT_EQ(Tags[static_cast<size_t>(I)], Round)
          << "round " << Round << " index " << I;
  }
}

TEST(ThreadPool, RethrowsFirstExceptionAndStaysUsable) {
  ThreadPool Pool(4);
  const int N = 64;
  std::vector<std::atomic<int>> Hits(N);
  bool Caught = false;
  try {
    Pool.parallelFor(N, [&](int I, int) {
      Hits[static_cast<size_t>(I)].fetch_add(1, std::memory_order_relaxed);
      if (I == 17)
        throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error &E) {
    Caught = true;
    EXPECT_STREQ(E.what(), "boom");
  }
  EXPECT_TRUE(Caught);
  // The throwing item still counted as completed: every index ran.
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1) << "index " << I;

  // The pool is not poisoned: the next job runs to completion.
  std::atomic<int> Sum{0};
  Pool.parallelFor(N, [&](int I, int) {
    Sum.fetch_add(I, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), N * (N - 1) / 2);
}

TEST(ThreadPool, SerialPoolPropagatesExceptions) {
  ThreadPool Pool(1);
  EXPECT_THROW(
      Pool.parallelFor(4,
                       [](int I, int) {
                         if (I == 2)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, SlotsAreInRangeAndNeverShared) {
  // Per-slot in-use flags: an item that finds its slot's flag already set
  // is running concurrently with another item on the same slot. Each item
  // holds its slot across a yield so an overlap has time to show. Many
  // short jobs also cover the hand-over between back-to-back jobs.
  ThreadPool Pool(4);
  const int Threads = Pool.threadCount();
  ASSERT_EQ(Threads, 4);
  std::vector<std::atomic<bool>> InUse(static_cast<size_t>(Threads));
  std::atomic<int> OutOfRange{0}, Overlaps{0}, Items{0};
  for (int Round = 0; Round < 200; ++Round)
    Pool.parallelFor(16, [&](int, int Slot) {
      Items.fetch_add(1, std::memory_order_relaxed);
      if (Slot < 0 || Slot >= Threads) {
        OutOfRange.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::atomic<bool> &Flag = InUse[static_cast<size_t>(Slot)];
      if (Flag.exchange(true, std::memory_order_acq_rel))
        Overlaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
      Flag.store(false, std::memory_order_release);
    });
  EXPECT_EQ(Items.load(), 200 * 16);
  EXPECT_EQ(OutOfRange.load(), 0);
  EXPECT_EQ(Overlaps.load(), 0);
}

TEST(ThreadPool, SerialRunsUseSlotZero) {
  // A one-thread pool, and a one-item job on any pool, run inline on the
  // caller: slot 0 every time.
  ThreadPool Serial(1);
  std::vector<int> Seen;
  Serial.parallelFor(8, [&](int, int Slot) { Seen.push_back(Slot); });
  EXPECT_EQ(Seen, std::vector<int>(8, 0));

  ThreadPool Pool(4);
  for (int Round = 0; Round < 100; ++Round) {
    int Slot = -1;
    Pool.parallelFor(1, [&](int, int S) { Slot = S; });
    ASSERT_EQ(Slot, 0) << "round " << Round;
  }
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
