//===- schedtool/Strategy.h - Pluggable search strategy ---------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metaheuristic of the config search, refactored out of the
/// ConfigSearch round loop behind an interface (SearchProblem::Strat), so
/// a caller can wrap or replace it. A Strategy owns exactly the decisions
/// the historical loop made inline:
///
///   - perturb():  how candidate J (J >= 1) of a round is derived from
///                 the round's incumbent, driven by the candidate's
///                 private RNG (seeded from (Seed, Round, J) alone, so
///                 the candidate stream is independent of threads and
///                 wall clock);
///   - adapt():    how the incumbent moves after a round, driven by the
///                 search's main RNG;
///   - adaptAllInvalid(): the escape move when every candidate of a
///                 round failed validation.
///
/// Strategies are deterministic: every decision is a pure function of
/// the RNG draws and the inputs, never of time or thread identity, so a
/// strategy's SearchResult is byte-identical run to run, for any worker
/// count and across a checkpoint/resume.
///
/// The one built-in strategy ("local") reproduces the pre-split loop draw
/// for draw: a search with no explicit Strategy is byte-identical to
/// every earlier revision's result.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_STRATEGY_H
#define SWA_SCHEDTOOL_STRATEGY_H

#include "analysis/Analyzer.h"
#include "config/Config.h"
#include "support/Rng.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace swa {
namespace schedtool {

struct SearchProblem;

/// The move a perturbation applied to the round's base (candidate 0):
/// which partitions' boosts were resampled, and the endpoints of the
/// rebind (RebindPart < 0 when none, or when the rebind drew the
/// partition's current core — a no-op). The record feeds only one search
/// statistic: a decomposed candidate's components holding a core named
/// here count as dirty (SearchResult::DirtyComponents). Every candidate is
/// planned from its own config, so a missing or wrong record miscounts
/// that statistic and cannot change a verdict.
struct Mutation {
  std::vector<int32_t> BoostChanged;
  int32_t RebindPart = -1;
  int32_t OldCore = -1;
  int32_t NewCore = -1;
};

/// The round's best decided candidate, handed to Strategy::adapt.
/// Pointers reference round-local storage; valid for the call only.
struct RoundBest {
  const cfg::Config *Config = nullptr;
  const std::vector<double> *Boost = nullptr;
  const analysis::VerdictOutcome *Verdict = nullptr;
  /// L - FirstMissTime + 1 (0 when schedulable) — the search's badness
  /// metric, already computed on the reduce path.
  int64_t Badness = 0;
};

/// One metaheuristic. Stateless strategies ("local") need none of the
/// state hooks; a stateful one serializes its state opaquely so a
/// checkpointed search resumes the strategy mid-stream
/// (Snapshot::StrategyState).
class Strategy {
public:
  virtual ~Strategy();

  /// Stable identifier (the built-in one is "local"); persisted in
  /// checkpoints, so resuming under a different strategy is a typed
  /// SnapshotMismatch instead of a silently diverging run.
  virtual const char *name() const = 0;

  /// Derives candidate J of a round in place. Config/Boost arrive as
  /// copies of the incumbent; PJ is the candidate's private RNG. Boost
  /// resamples and rebinds are recorded in M for the statistics (see
  /// Mutation).
  virtual void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
                       std::vector<double> &Boost, Mutation &M) = 0;

  /// Moves the incumbent (Current/Boost) after a round with at least one
  /// decided candidate. R is the search's main RNG: the draw sequence is
  /// part of the reproducible stream a checkpoint captures.
  virtual void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
                     cfg::Config &Current, std::vector<double> &Boost) = 0;

  /// Every candidate of the round failed validation; the default escape
  /// resamples all boosts uniformly (the historical loop's move).
  virtual void adaptAllInvalid(Rng &R, const SearchProblem &P,
                               std::vector<double> &Boost);

  /// Serializes the strategy's internal state (appended to Out). The
  /// default is stateless: writes nothing.
  virtual void saveState(std::string &Out) const;

  /// Restores state written by saveState. Returns false on a malformed
  /// payload (the caller degrades to a typed snapshot rejection, never a
  /// half-restored strategy). The default accepts only an empty payload.
  virtual bool loadState(const char *Data, size_t Len);
};

/// Creates the built-in strategy, "local" (the classic loop — boost
/// resampling, occasional random rebind, greedy incumbent). Returns null
/// for any other name.
std::unique_ptr<Strategy> makeStrategy(const std::string &Name);

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_STRATEGY_H
