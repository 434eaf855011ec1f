//===- support/ThreadPool.h - Fixed worker pool with parallelFor *- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for embarrassingly parallel index ranges. The
/// config search evaluates candidate batches with parallelFor: workers
/// (and the calling thread) grab indices from a shared atomic cursor, so
/// the *assignment* of items to threads is nondeterministic while the
/// item set and every per-item result slot are fixed up front — callers
/// write results by index and reduce in index order, which is how the
/// search stays byte-identical for any thread count.
///
/// A pool constructed with <= 1 threads spawns nothing and runs
/// parallelFor inline on the caller; the parallel and serial paths are the
/// same code.
///
/// Every item also receives the *slot* of the thread running it: 0 for
/// the caller, 1..threadCount()-1 for the workers. A slot runs at most one
/// item at a time, so callers keep per-thread state (a model arena) in a
/// vector of threadCount() entries indexed by slot, with no locking.
///
/// Each parallelFor call publishes its own heap-allocated job state (a
/// copy of the callable plus private index/pending cursors) held by
/// shared_ptr. A worker that was notified for a job but only gets
/// scheduled after that job finished either joins the *current* job or
/// finds an exhausted cursor and no-ops; it can never run a stale
/// callable or touch a later job's counters.
///
/// If the callable throws, the first exception is captured and rethrown
/// on the calling thread after every item ran; remaining items still
/// execute, and the pool stays usable.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SUPPORT_THREADPOOL_H
#define SWA_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace swa {

class ThreadPool {
public:
  /// Creates a pool whose parallelFor uses up to \p Threads threads in
  /// total (the caller counts as one; Threads - 1 workers are spawned).
  explicit ThreadPool(int Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads parallelFor can use (>= 1).
  int threadCount() const {
    return static_cast<int>(Workers.size()) + 1;
  }

  /// Runs Fn(I, Slot) for every I in [0, N), distributing indices over
  /// the workers and the calling thread; returns when all N calls
  /// finished. Slot identifies the running thread (see the file comment).
  /// Fn must be safe to call concurrently for distinct indices and slots.
  /// Must not be re-entered from inside Fn, nor called from two threads
  /// at once. If Fn throws, the first exception is rethrown here after
  /// the whole range ran.
  using ItemFn = std::function<void(int Index, int Slot)>;
  void parallelFor(int N, const ItemFn &Fn);

private:
  /// One job's complete state, shared by the caller and every worker that
  /// picks it up. Heap-allocated per parallelFor call so a late-scheduled
  /// worker holding a previous job keeps valid (exhausted) state instead
  /// of racing on reused members.
  struct JobState {
    ItemFn Fn; ///< Owned copy; outlives the caller's arg.
    int N = 0;
    std::atomic<int> NextIndex{0};
    /// Items not yet completed; the job is done at zero.
    std::atomic<int> Pending{0};
    std::atomic<bool> HaveExc{false};
    std::exception_ptr Exc; ///< First exception; read after Pending == 0.
  };

  void workerLoop(int Slot);
  void runIndices(JobState &S, int Slot);

  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable WakeCv;
  std::condition_variable DoneCv;
  /// Generation counter; bumped under M when a job is published.
  uint64_t JobGen = 0;
  bool Stopping = false;
  /// The most recently published job; workers copy the shared_ptr under M.
  std::shared_ptr<JobState> Current;
};

} // namespace swa

#endif // SWA_SUPPORT_THREADPOOL_H
