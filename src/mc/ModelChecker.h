//===- mc/ModelChecker.h - Explicit-state NSA model checker -----*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Model Checking baseline the paper compares against (Table 1), and
/// the verifier used for observer-based component correctness proofs (§3).
///
/// The checker explores *every action interleaving* of the network:
/// internal edges, all binary sender/receiver pairs, every select
/// combination and every broadcast receiver-edge choice. Time passes with
/// maximal progress (a delay successor exists only when no action is
/// enabled, and jumps to the next clock bound); that matches the
/// deterministic-time model class of the paper, where the cost of model
/// checking is the factorial/exponential interleaving of simultaneous
/// events — exactly the effect Table 1 measures. See DESIGN.md §5.
///
/// Properties are state predicates ("bad state reached"); exploration stops
/// at the first bad state. storeNonZero() builds the form used throughout:
/// a store variable (an observer's or a task's failure flag) becoming
/// nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_MC_MODELCHECKER_H
#define SWA_MC_MODELCHECKER_H

#include "nsa/Exec.h"
#include "sa/Network.h"

#include <functional>
#include <string>

namespace swa {
namespace mc {

struct McOptions {
  /// Exploration time horizon; -1 uses the network "horizon" metadata.
  int64_t Horizon = -1;
  /// State budget; exceeded => Error set.
  uint64_t MaxStates = 20000000ULL;
  /// Store only 64-bit hashes in the visited set (memory-light mode used
  /// for the larger Table-1 points; collision probability is negligible at
  /// these state counts and only affects the baseline's timing, not the
  /// simulator's verdicts).
  bool CompactVisited = false;
  /// Record predecessor links so a property violation comes with a
  /// counterexample path (incompatible with CompactVisited).
  bool RecordWitness = false;
};

/// One step of a counterexample path.
struct WitnessStep {
  int64_t Time = 0;
  /// Human-readable action, e.g. "ts: exec[1]! -> drv1" or "delay to 5".
  std::string Action;
};

struct McResult {
  uint64_t StatesExplored = 0;
  uint64_t TransitionsExplored = 0;
  uint64_t CompleteRuns = 0;
  /// Number of distinct final states over all complete runs. The paper's
  /// determinism theorem implies 1 for well-formed system models.
  uint64_t DistinctFinalStates = 0;
  /// StateHash of one final state (the last complete run found). With
  /// DistinctFinalStates == 1 this is *the* final-state hash, directly
  /// comparable against StateHash of the simulator's SimResult::Final —
  /// the census-vs-trace oracle pair in src/difftest/ relies on this.
  uint64_t FinalStateHash = 0;
  bool PropertyViolated = false;
  nsa::State ViolatingState;
  /// Counterexample path from the initial state to ViolatingState (only
  /// with McOptions::RecordWitness).
  std::vector<WitnessStep> Witness;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

class ModelChecker {
public:
  /// True = bad state.
  using StatePredicate =
      std::function<bool(const nsa::Exec &, const nsa::State &)>;

  explicit ModelChecker(const sa::Network &Net);

  /// Explores the reachable state space from the initial state, stopping
  /// at the first state \p BadState flags.
  McResult explore(const McOptions &Options = {},
                   const StatePredicate &BadState = nullptr);

  /// Predicate: scalar store variable \p VarName is nonzero, or any element
  /// of an array variable is nonzero.
  static StatePredicate storeNonZero(const sa::Network &Net,
                                     const std::string &VarName);

private:
  /// Enumerates all fireable steps of \p S (committed semantics included).
  void forEachStep(const nsa::State &S,
                   const std::function<void(const nsa::Step &)> &Cb);

  const sa::Network &Net;
  nsa::Exec Ex;
};

} // namespace mc
} // namespace swa

#endif // SWA_MC_MODELCHECKER_H
