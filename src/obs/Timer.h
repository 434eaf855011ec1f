//===- obs/Timer.h - RAII phase timers and the phase tree -------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hierarchical phase timing: a ScopedTimer pushes a named phase onto the
/// *calling thread's* PhaseTree on construction and records the elapsed
/// steady-clock nanoseconds on destruction. Nested timers build a tree
/// (build -> compile, simulate, analyze -> criterion, ...), so a report
/// shows where a pipeline's wall time went.
///
/// Each thread owns its own tree (sharded like the metrics registry), so
/// parallel-search workers time their phases without locks or suppression;
/// PhaseTree::mergedRoot() folds all per-thread trees into one by phase
/// name. Note the merged *shape* can legitimately differ across worker
/// counts — with inline execution a worker phase nests under the caller's
/// phase, with pool execution it is a top-level phase of the worker's
/// tree — which is why the determinism contract covers counters, not
/// phase-tree shape (see DESIGN.md).
///
/// When obs::enabled() is false a ScopedTimer is a single branch and no
/// clock read — the instrumented code paths cost nothing in production
/// runs.
///
/// The same timers feed the timeline: when span recording is also on
/// (setSpansEnabled), every finished phase is stored as a span — name,
/// begin, end — in a bounded per-thread ring, and writeChromeTrace()
/// serializes the rings as `trace_event` JSON loadable by chrome://tracing
/// and Perfetto, one lane per thread (the recording thread's stable shard
/// id). No lock and, once a ring exists, no allocation on the hot path. A
/// full ring overwrites its oldest spans and counts them in spansDropped(),
/// so a pathological run degrades to a truncated timeline instead of
/// unbounded memory. ScopedTimer is the only instrument that measures
/// time: every event in the timeline is a phase of the tree.
///
/// Like every obs layer, phases are pure observers: nothing reads them
/// back, so timing a run cannot change a verdict or a trace. Phase names
/// must be string literals (or otherwise outlive the process): the ring
/// stores the pointer, and every instrumented phase is named by a literal
/// anyway.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_OBS_TIMER_H
#define SWA_OBS_TIMER_H

#include "obs/Metrics.h"

#include <chrono>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace swa {
namespace obs {

/// A tree of timed phases. One instance per thread (see current());
/// phases with the same name under the same parent accumulate (Nanos
/// summed, Count bumped).
class PhaseTree {
public:
  struct Node {
    std::string Name;
    uint64_t Nanos = 0;
    uint64_t Count = 0;
    std::vector<std::unique_ptr<Node>> Children;

    /// Child with the given name, or null. Indexed — no allocation, no
    /// linear scan (the transparent comparator lets string_view probe the
    /// map directly).
    const Node *child(std::string_view ChildName) const;

    /// Child with the given name, created (appended) if absent.
    Node &childOrCreate(std::string_view ChildName);

  private:
    std::map<std::string, size_t, std::less<>> ChildIndex;
  };

  /// The calling thread's tree, created on first use.
  static PhaseTree &current();

  /// Deterministic name-keyed merge of every thread's tree: children keep
  /// first-registration order within each shard, shards fold in creation
  /// order, and Nanos/Count accumulate per (parent, name).
  static Node mergedRoot();

  /// Clears every thread's tree. Must not be called while timers are open
  /// anywhere; quiescent points only.
  static void resetAll();

  /// Indented text rendering of \p Root's children ("name 12.3ms x4").
  static void render(std::ostream &OS, const Node &Root);

  /// Sum over \p Root's top-level phases (what a "coverage" check compares
  /// against wall time).
  static uint64_t totalNanos(const Node &Root);

  /// Enters a phase as a child of the current one.
  void push(std::string_view Name);
  /// Leaves the current phase, attributing \p Nanos to it.
  void pop(uint64_t Nanos);

  const Node &root() const { return Root; }

  /// Clears this tree (back to an empty root). Must not be called while
  /// timers are open on the owning thread.
  void reset();

private:
  Node Root;
  std::vector<Node *> Stack{&Root};
};

/// Span recording switch: process-wide, independent of the metrics switch
/// (which every phase needs too).
bool spansEnabled();
void setSpansEnabled(bool On);

namespace detail {
/// Appends one finished phase to the calling thread's span ring.
void recordSpan(const char *Name, std::chrono::steady_clock::time_point Begin,
                std::chrono::steady_clock::time_point End);
} // namespace detail

/// RAII phase timer. Inactive (and free apart from one branch) when
/// obs::enabled() is false at construction. \p Phase must be a string
/// literal.
class ScopedTimer {
public:
  explicit ScopedTimer(const char *Phase) {
    if (!enabled())
      return;
    Active = true;
    Name = Phase;
    PhaseTree::current().push(Phase);
    Start = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

  ~ScopedTimer() {
    if (!Active)
      return;
    auto End = std::chrono::steady_clock::now();
    auto Ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count();
    PhaseTree::current().pop(static_cast<uint64_t>(Ns));
    if (spansEnabled())
      detail::recordSpan(Name, Start, End);
  }

private:
  bool Active = false;
  const char *Name = nullptr;
  std::chrono::steady_clock::time_point Start;
};

/// Per-thread ring capacity, in spans.
constexpr size_t spanRingCapacity() { return size_t(1) << 14; }

/// Spans currently buffered across all threads.
size_t spanCount();

/// Spans overwritten because a ring wrapped, across all threads.
uint64_t spansDropped();

/// Clears every ring (buffered spans and drop counts). Call only at
/// quiescent points.
void resetSpans();

/// Serializes every buffered span (all threads, oldest surviving first per
/// thread) as Chrome `trace_event` JSON: one object with "traceEvents"
/// complete events ("ph":"X", microsecond timestamps) plus thread-name
/// metadata. Call at quiescent points.
void writeChromeTrace(std::ostream &OS);

/// writeChromeTrace() to \p Path; returns false and fills \p Error when the
/// file cannot be opened or the write fails.
bool writeChromeTraceFile(const std::string &Path, std::string &Error);

} // namespace obs
} // namespace swa

#endif // SWA_OBS_TIMER_H
