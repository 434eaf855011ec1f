//===- schedtool/ConfigSearch.h - Model-in-the-loop config search -*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The integration the paper describes in §4: an IMA scheduling tool
/// iterates over candidate configurations (partition-to-core bindings and
/// window layouts); each candidate is handed to the parametric model,
/// whose trace yields the schedulability verdict; unschedulable candidates
/// are discarded and drive the next move.
///
/// The search here is a greedy first-fit-decreasing binding followed by a
/// seeded local search over bindings and per-partition window shares —
/// deliberately simple, since the subject of the reproduction is the
/// model-in-the-loop protocol and its cost, not the optimizer.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SCHEDTOOL_CONFIGSEARCH_H
#define SWA_SCHEDTOOL_CONFIGSEARCH_H

#include "analysis/Schedulability.h"
#include "config/Config.h"
#include "nsa/Simulator.h"
#include "obs/RunReport.h"
#include "support/CancelToken.h"

#include <array>
#include <string>
#include <vector>

namespace swa {
namespace schedtool {

struct Snapshot;      // schedtool/Snapshot.h
struct SnapshotStats; // schedtool/Snapshot.h
class Strategy;       // schedtool/Strategy.h

struct SearchProblem {
  /// Cores/partitions/tasks/messages; bindings (Partition::Core) and
  /// windows are ignored and chosen by the search.
  cfg::Config Base;
  uint64_t Seed = 1;
  int MaxIterations = 100;
  /// Threads used to evaluate each candidate batch (1 = fully serial, no
  /// threads spawned). The result is byte-identical for every value: the
  /// candidate sequence is fixed by (Seed, BatchSize) alone and batch
  /// results are reduced in candidate order.
  int Workers = 1;
  /// Candidates generated and evaluated per round. Deliberately
  /// independent of Workers so changing the thread count never changes
  /// which configurations are explored.
  int BatchSize = 4;
  /// Per-candidate wall-clock budget in milliseconds; negative = none. A
  /// candidate whose simulation outlives the budget is recorded as
  /// skipped (with the reason in the log) and the search continues — the
  /// batch is never aborted. When no budget ever fires, the SearchResult
  /// is byte-identical to a run without a budget, for any worker count.
  int64_t CandidateBudgetMs = -1;
  /// Cooperative cancellation for the whole search: polled between rounds
  /// and passed to every candidate simulation, so an in-flight batch winds
  /// down quickly.
  const CancelToken *Cancel = nullptr;
  /// Durable search (schedtool/Snapshot.h). When non-empty, the search
  /// checkpoints to this path at round boundaries — atomically (see
  /// support::AtomicFile), so a crash at any instant leaves the previous
  /// checkpoint intact. A checkpoint captures the verdict cache and the
  /// full loop state; resuming from it replays the remaining rounds
  /// exactly, so a search killed at any checkpoint and resumed produces a
  /// SearchResult byte-identical to the uninterrupted run, for any
  /// Workers value. A checkpoint *write* failure is recorded in CkptStats
  /// and the search continues unchanged: durability is best-effort,
  /// results are not.
  std::string CheckpointPath;
  /// Minimum milliseconds between periodic checkpoints; 0 writes one at
  /// every round boundary. The terminal flush (found / iterations
  /// exhausted / cancelled) ignores the throttle, so a cancelled run
  /// always leaves its latest state on disk.
  int64_t CheckpointEveryMs = 0;
  /// A previously loaded snapshot to start from. With search state, the
  /// identity triple (Seed, BatchSize, CRC of the encoded Base) must
  /// match this problem — a foreign snapshot is a typed
  /// ErrorCode::SnapshotMismatch, never a silent wrong answer — and the
  /// search resumes mid-stream. Without search state the snapshot only
  /// pre-warms the verdict cache: the verdict stream, Found/Best and
  /// trajectory are invariant (hits replay identical verdicts); only
  /// the cache-statistics fields and their log lines can differ.
  const Snapshot *Resume = nullptr;
  /// Checkpoint/snapshot traffic of this run (optional out-param).
  /// Deliberately separate from SearchResult: checkpoint cadence is
  /// wall-clock dependent, and SearchResult stays byte-identical
  /// whether, and how often, a run checkpoints.
  SnapshotStats *CkptStats = nullptr;
  /// The metaheuristic driving perturbation and adaptation (Strategy.h);
  /// null = the built-in "local" strategy, draw-for-draw identical to
  /// the historical loop. The search mutates the strategy (adapt moves
  /// its internal state), so one instance serves one search at a time.
  /// A checkpoint records the strategy's name and opaque state; resuming
  /// under a different strategy is a typed SnapshotMismatch.
  Strategy *Strat = nullptr;
};

struct SearchResult {
  bool Found = false;
  cfg::Config Best;              ///< Schedulable configuration when Found.
  /// Decided candidates (verdict obtained by simulation *or* cache hit);
  /// invalid and guard-rail-skipped candidates are excluded.
  int ConfigurationsEvaluated = 0;
  int SchedulableSeen = 0;
  /// Badness of the best candidate seen: 0 when schedulable, otherwise
  /// L - FirstMissTime + 1 (hyperperiod minus the first-miss instant, so
  /// "misses later" is "less bad" and the value is positive). Chosen
  /// because a first-miss early-exit run computes it exactly — unlike the
  /// full-run failed-task count earlier revisions used (the field has
  /// been renamed/redefined before: BestMissedJobs -> BestBadness as
  /// failed tasks -> this first-miss metric).
  int64_t BestBadness = 0;
  /// Best-so-far trajectory: (iteration, badness of the best candidate
  /// seen up to then), appended whenever the best improves. The last entry
  /// is (finding iteration, 0) when Found.
  std::vector<std::pair<int, int64_t>> BestTrajectory;
  /// Candidates whose evaluation the guard rails ended (per-candidate
  /// budget or cancellation) before a verdict existed. Each is logged with
  /// its reason; none aborts the batch.
  int CandidatesSkipped = 0;
  /// The search stopped because SearchProblem::Cancel fired.
  bool Cancelled = false;
  /// Evaluation statistics. Every valid candidate is a list of
  /// components — its message-graph components, or the whole config as
  /// one component at its own hyperperiod when it does not decompose —
  /// resolved against one verdict cache (VerdictCache.h). All counts are
  /// serial-path facts, identical for any Workers value.
  ///
  /// Candidates: DuplicateCandidates repeat the component key list of an
  /// earlier candidate of the same batch and copy its verdict without a
  /// lookup. Every other valid candidate is a CacheHit (every component
  /// served by the cache — for a whole-config candidate, a revisit or a
  /// symmetric relabeling of an earlier one) or a CacheMiss (at least one
  /// component needed a simulation). SymmetryFolds counts the hits that
  /// only exist because of core-relabeling canonicalization.
  int CacheHits = 0;
  int CacheMisses = 0;
  int SymmetryFolds = 0;
  int DuplicateCandidates = 0;
  /// Non-duplicate candidates that split into two or more components.
  /// The component statistics below count only their components: cache
  /// hits and misses (Hits + Misses is their total component count), and
  /// the components re-materialized because a mutation touched one of
  /// their cores (Dirty) or reused verbatim from the round's base
  /// decomposition (Clean); Hits + Misses == Dirty + Clean.
  int DecomposedCandidates = 0;
  int ComponentCacheHits = 0;
  int ComponentCacheMisses = 0;
  int DirtyComponents = 0;
  int CleanComponentsReused = 0;
  /// Simulations actually run, once per distinct missing key per round:
  /// ComponentsSimulated for components of decomposed candidates,
  /// SimulationsRun for whole configs. SimulationsRun +
  /// ComponentsSimulated is the number of Simulator::run calls the search
  /// made (ComponentCacheMisses >= ComponentsSimulated, because a round
  /// simulates each distinct component once).
  int ComponentsSimulated = 0;
  int SimulationsRun = 0;
  /// How candidate evaluations ended, indexed by nsa::StopReason: decided
  /// candidates land on Completed/DeadlineMiss, guard-rail skips on
  /// Cancelled/BudgetExceeded. Tallied on the serial reduce path (cache
  /// hits replay the cached verdict's reason), so the taxonomy — like
  /// every other field — is identical for any Workers/BatchSize.
  std::array<int, nsa::NumStopReasons> StopReasonCounts{};
  std::vector<std::string> Log;
};

/// Assigns partitions to cores first-fit-decreasing by utilization.
/// Returns false when some partition fits on no core.
bool bindFirstFitDecreasing(cfg::Config &Config);

/// Synthesizes windows: per core, each minor frame (shortest period on
/// the core) is carved into slices proportional to partition utilization
/// times its boost factor (indexed by partition).
void synthesizeWindows(cfg::Config &Config,
                       const std::vector<double> &Boost);

/// Runs the search.
Result<SearchResult> searchConfiguration(const SearchProblem &Problem);

/// Populates \p Report with the search outcome: evaluation counts, cache
/// hit/miss/fold numbers and rates, component stats, the StopReason
/// taxonomy, and candidates/s when \p ElapsedSec is positive. The numbers
/// are read from \p Res alone, so the report matches the stats the search
/// prints whether or not observability was on.
void fillSearchReport(obs::RunReport &Report, const SearchResult &Res,
                      double ElapsedSec);

} // namespace schedtool
} // namespace swa

#endif // SWA_SCHEDTOOL_CONFIGSEARCH_H
