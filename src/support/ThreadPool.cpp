//===- support/ThreadPool.cpp - Fixed worker pool with parallelFor ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

using namespace swa;

ThreadPool::ThreadPool(int Threads) {
  int NWorkers = Threads > 1 ? Threads - 1 : 0;
  Workers.reserve(static_cast<size_t>(NWorkers));
  for (int I = 0; I < NWorkers; ++I)
    Workers.emplace_back([this, I] { workerLoop(I + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  WakeCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runIndices(JobState &S, int Slot) {
  for (;;) {
    int I = S.NextIndex.fetch_add(1, std::memory_order_relaxed);
    if (I >= S.N)
      return;
    try {
      S.Fn(I, Slot);
    } catch (...) {
      // Keep the first exception; the item still counts as completed so
      // Pending reaches zero and the pool stays usable.
      if (!S.HaveExc.exchange(true, std::memory_order_acq_rel))
        S.Exc = std::current_exception();
    }
    if (S.Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last item: wake the caller (lock so the notify cannot slip between
      // the caller's predicate check and its wait).
      std::lock_guard<std::mutex> L(M);
      DoneCv.notify_all();
    }
  }
}

void ThreadPool::workerLoop(int Slot) {
  uint64_t SeenGen = 0;
  for (;;) {
    std::shared_ptr<JobState> S;
    {
      std::unique_lock<std::mutex> L(M);
      WakeCv.wait(L, [&] { return Stopping || JobGen != SeenGen; });
      if (Stopping)
        return;
      SeenGen = JobGen;
      S = Current;
    }
    // If this worker was notified for an earlier generation but only got
    // scheduled now, S is the newest job: either it still has indices (the
    // worker helps) or its cursor is exhausted (the loop no-ops). The
    // shared_ptr keeps the state alive past the caller's return either way.
    runIndices(*S, Slot);
  }
}

void ThreadPool::parallelFor(int N, const ItemFn &Fn) {
  if (N <= 0)
    return;
  if (Workers.empty() || N == 1) {
    for (int I = 0; I < N; ++I)
      Fn(I, 0);
    return;
  }

  auto S = std::make_shared<JobState>();
  S->Fn = Fn;
  S->N = N;
  S->Pending.store(N, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(M);
    Current = S;
    ++JobGen;
  }
  WakeCv.notify_all();

  // The caller is a full participant, on slot 0.
  runIndices(*S, 0);

  // Wait until every item ran. Workers still inside runIndices after that
  // hold their own shared_ptr to S and find an exhausted cursor, so the
  // next parallelFor can publish immediately.
  {
    std::unique_lock<std::mutex> L(M);
    DoneCv.wait(L, [&] {
      return S->Pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (S->HaveExc.load(std::memory_order_acquire))
    std::rethrow_exception(S->Exc);
}
