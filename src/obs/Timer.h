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
/// runs. When span recording is also on, every finished phase is recorded
/// as a "phase"-category span into the same Chrome-trace timeline.
///
/// Phase names must be string literals (or otherwise outlive the process):
/// spans store the pointer, and every instrumented phase in the tree is
/// named by a literal anyway.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_OBS_TIMER_H
#define SWA_OBS_TIMER_H

#include "obs/Metrics.h"
#include "obs/Span.h"

#include <chrono>
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
      recordSpan(Name, "phase", Start, End);
  }

private:
  bool Active = false;
  const char *Name = nullptr;
  std::chrono::steady_clock::time_point Start;
};

} // namespace obs
} // namespace swa

#endif // SWA_OBS_TIMER_H
