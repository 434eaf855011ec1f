//===- difftest/TraceInvariants.h - Online trace-invariant oracle -*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An nsa::RunObserver that validates, online, the semantic invariants the
/// paper's schedulability argument rests on — independently of the engine
/// that produces the run. Two layers:
///
///  * **Shadow replay**: the checker keeps its own copy of the NSA state
///    and re-applies every step / delay through a private nsa::Exec. Any
///    divergence between the engine's post-state and the shadow —
///    a flipped shared variable, a skewed clock, a location that moved
///    without a step — is reported at the next callback. This is what
///    detects the FlipVariable and SkewClock fault classes.
///
///  * **Trace-level invariants** from §2.1: model time never regresses;
///    a binary send always has exactly one receiver (detects SkipSync);
///    at most one task executes per core at a time; execution intervals
///    stay inside the owning partition's windows; and at every FIN the
///    job's accumulated execution equals its WCET (or is short of it only
///    for the model's deadline-abort FIN, which fires exactly at the
///    absolute deadline).
///
/// The checker is a pure observer; with no fault injected it must never
/// trip on a valid configuration (the campaign asserts zero violations
/// over hundreds of runs), and attaching it must not change the trace
/// (byte-identity asserted in tests/DiffTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SWA_DIFFTEST_TRACEINVARIANTS_H
#define SWA_DIFFTEST_TRACEINVARIANTS_H

#include "core/InstanceBuilder.h"
#include "nsa/Simulator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace swa {
namespace difftest {

class TraceInvariantChecker : public nsa::RunObserver {
public:
  /// \p Model must outlive the checker (it keeps references into the
  /// network and the configuration).
  explicit TraceInvariantChecker(const core::BuiltModel &Model);

  void onRunStart(const sa::Network &Net, const nsa::State &Initial) override;
  std::string onStep(const nsa::State &Post, const nsa::Step &St,
                     const std::vector<int32_t> &Writes) override;
  std::string onDelay(int64_t From, const nsa::State &Post) override;
  /// Compares the final state with the shadow after a Completed run;
  /// any other stop leaves nothing to check.
  std::string onRunEnd(const nsa::State &Final, nsa::StopReason Stop,
                       const std::string &Error) override;

  struct Stats {
    uint64_t StepsChecked = 0;
    uint64_t DelaysChecked = 0;
    uint64_t FinsChecked = 0;
    uint64_t ExecIntervalsChecked = 0;
  };
  const Stats &stats() const { return Counters; }

private:
  std::string compareShadow(const nsa::State &Post, const char *When);
  std::string onExec(int Gid, int64_t Time);
  std::string onStopExec(int Gid, int64_t Time, bool IsFin);

  const core::BuiltModel &Model;
  nsa::Exec ShadowEx;
  nsa::State Shadow;
  Stats Counters;

  int64_t LastTime = 0;

  /// Per-task static facts resolved once from the configuration.
  struct TaskFacts {
    int64_t Period = 0;
    int64_t Deadline = 0;
    int64_t Wcet = 0; ///< On the bound core's type.
    int Partition = -1;
    int Core = -1;
  };
  std::vector<TaskFacts> Tasks;

  /// Merged, sorted, non-overlapping window list per partition
  /// (adjacent/overlapping source windows coalesced), so containment of
  /// an execution interval is one binary search instead of a per-tick
  /// walk — essential for near-overflow-hyperperiod configurations.
  std::vector<std::vector<cfg::Window>> MergedWindows;

  /// Gid currently executing on each core; -1 when idle.
  std::vector<int> ExecutingOnCore;
  /// Open execution-interval start per gid; -1 when not executing.
  std::vector<int64_t> OpenStart;
  /// Execution accumulated since the task's last FIN.
  std::vector<int64_t> ExecAccum;

  int64_t Hyperperiod = 0;
};

} // namespace difftest
} // namespace swa

#endif // SWA_DIFFTEST_TRACEINVARIANTS_H
