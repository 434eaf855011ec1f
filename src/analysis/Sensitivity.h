//===- analysis/Sensitivity.h - Parametric sensitivity analysis -*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parametric schedulability queries on top of the verdict oracle: instead
/// of one binary schedulable/unschedulable answer, compute how far a
/// configuration is from the edge. Reproduces numerically what parametric
/// timed-automata tools (IMITATOR) compute symbolically, with the
/// early-exit simulator as the oracle — thousands of exact verdicts per
/// query, which is exactly the regime the fast engine was built for.
///
/// Queries (all driven by monotone binary search over analyzeVerdictOnly):
///
///  * per-task WCET slack — the largest integer inflation (in ticks,
///    applied to every per-core-type WCET entry of the task) that stays
///    schedulable, with a *certificate pair*: the largest passing and the
///    smallest failing perturbed configuration actually probed. With the
///    default tolerance of one tick the two certificates are adjacent, so
///    both endpoints are verified by construction — no monotonicity
///    assumption is needed for the certificates themselves (see DESIGN.md,
///    "Parametric sensitivity").
///
///  * per-task period feasibility — the smallest period the task can run
///    at, probed over the divisors of its base period (divisor shrinkages
///    keep every period dividing the base hyperperiod, so the window
///    tables stay valid); the probe clamps the deadline to the new period.
///
///  * per-task window-offset feasibility — the interval of whole-partition
///    window shifts (in ticks, negative = earlier) that stay valid and
///    schedulable. Shifts never wrap: the domain is bounded by the first /
///    last window against [0, L), so the window count — and therefore
///    cfg::fingerprintShape — is invariant and probes rebind arena
///    instances instead of rebuilding models.
///
///  * breakdown frontier — the largest *uniform* WCET inflation factor
///    (fixed-point per-mille, 1000 = 1.0; entries scale by
///    ceil(c * F / 1000)) every task can absorb simultaneously.
///
/// A probe that perturbs the config out of validity counts as failing:
/// "not schedulable as specified" covers "not a well-formed configuration
/// at this parameter value".
///
/// Execution: queries fan out over support::ThreadPool, one work item per
/// (task, parameter) query, results written by index and merged in task
/// order — the result is byte-identical for every worker count. Probes
/// consult a schedtool::VerdictCache keyed by the perturbed config's
/// structural fingerprint (offset probes of co-partitioned tasks and
/// repeated queries against a caller-shared cache replay for free); only
/// decided verdicts are cached, so early-exit verdicts — which are exact —
/// are the only thing a probe can replay. Cache hit/miss *counts* are
/// timing facts under parallel queries and are deliberately absent from
/// SensitivityResult (they live in the obs counters); every field of the
/// result is deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_ANALYSIS_SENSITIVITY_H
#define SWA_ANALYSIS_SENSITIVITY_H

#include "config/Config.h"
#include "support/CancelToken.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace swa {
namespace obs {
class RunReport;
} // namespace obs

namespace schedtool {
class VerdictCache;
} // namespace schedtool

namespace analysis {

struct SensitivityOptions {
  /// Convergence granularity of the tick-valued searches (WCET slack,
  /// window offsets): the search stops when the passing and failing
  /// brackets are within this many ticks. 1 (the default) makes the
  /// certificate pair adjacent.
  cfg::TimeValue ToleranceTicks = 1;
  /// Threads for the query fan-out (1 = serial). Results are
  /// byte-identical for every value.
  int Workers = 1;
  /// Which parameter families to query.
  bool QueryWcet = true;
  bool QueryPeriod = true;
  bool QueryOffset = true;
  bool QueryFrontier = true;
  /// Per-probe simulation wall-clock budget (ms); negative = none. A probe
  /// the guard rails end marks its query undecided — never a wrong number.
  int64_t ProbeBudgetMs = -1;
  /// Cooperative cancellation, polled before every probe.
  const CancelToken *Cancel = nullptr;
  /// Optional caller-shared verdict cache (e.g. across repeated queries or
  /// with a surrounding search). Null uses a private per-call cache.
  schedtool::VerdictCache *Cache = nullptr;
};

/// Per-task WCET slack with its certificate pair.
struct WcetSlackResult {
  int TaskGid = -1;
  /// Largest probe-able inflation: Deadline - max per-core-type WCET
  /// (beyond it the config is invalid by WCET <= Deadline).
  cfg::TimeValue DomainMax = 0;
  /// Largest inflation (ticks) observed schedulable; -1 when the base
  /// config itself is unschedulable or the query was aborted.
  cfg::TimeValue SlackTicks = -1;
  /// (max WCET + slack) / max WCET — the inflation factor form.
  double SlackFactor = 1.0;
  /// The whole domain passes: slack == DomainMax and no failing
  /// certificate exists (inflating further is invalid, not unschedulable).
  bool UnboundedInDomain = false;
  /// False when cancellation / probe budget / the probe cap ended the
  /// query before convergence; the numeric fields are then meaningless.
  bool Decided = false;
  int Probes = 0;
  bool HasPassing = false;
  bool HasFailing = false;
  /// Certificate pair: actually-probed configs at the bracket endpoints.
  cfg::Config LargestPassing;
  cfg::Config SmallestFailing;
};

/// Per-task minimum feasible period over divisor shrinkages.
struct PeriodIntervalResult {
  int TaskGid = -1;
  cfg::TimeValue BasePeriod = 0;
  /// Smallest divisor of BasePeriod (>= the task's largest WCET) that
  /// stays schedulable; BasePeriod itself when no shrinkage fits, -1 when
  /// the query was aborted or the task exchanges messages (whose validity
  /// ties periods together — the domain is empty).
  cfg::TimeValue MinFeasiblePeriod = -1;
  /// Number of candidate periods in the probe domain.
  int DomainSize = 0;
  bool Decided = false;
  int Probes = 0;
};

/// Per-task window-offset feasibility interval (shifts of the owning
/// partition's whole window set).
struct OffsetIntervalResult {
  int TaskGid = -1;
  /// Shift domain keeping every window inside [0, L): [DomainLo, DomainHi]
  /// with DomainLo <= 0 <= DomainHi.
  cfg::TimeValue DomainLo = 0;
  cfg::TimeValue DomainHi = 0;
  /// Feasible interval endpoints found by the two endpoint searches.
  cfg::TimeValue MinShift = 0;
  cfg::TimeValue MaxShift = 0;
  /// The search reached the domain edge without finding a failure.
  bool LoUnbounded = false;
  bool HiUnbounded = false;
  bool Decided = false;
  int Probes = 0;
};

/// System-wide uniform-inflation breakdown frontier.
struct BreakdownFrontierResult {
  /// Largest factor probed (per-mille); at this factor some WCET exceeds
  /// its deadline, so the config is invalid — failing by convention.
  int DomainMaxPermille = 1000;
  /// Largest per-mille factor observed schedulable; -1 when the base is
  /// unschedulable or the query was aborted.
  int FrontierPermille = -1;
  bool UnboundedInDomain = false;
  bool Decided = false;
  int Probes = 0;
};

struct SensitivityResult {
  /// Verdict of the unperturbed configuration. When it is unschedulable
  /// (or undecided), no per-parameter query runs: every slack is -1 by
  /// definition and the result carries only the base verdict.
  bool BaseSchedulable = false;
  bool BaseDecided = false;
  /// SensitivityOptions::Cancel fired somewhere along the way.
  bool Cancelled = false;
  /// Oracle consultations across all queries (cache hits included —
  /// deterministic, unlike the hit/miss split).
  int TotalProbes = 0;
  std::vector<WcetSlackResult> Wcet;
  std::vector<PeriodIntervalResult> Periods;
  std::vector<OffsetIntervalResult> Offsets;
  BreakdownFrontierResult Frontier;

  /// Deterministic multi-line rendering of every numeric field (configs
  /// elided) — the workers-invariance contract compares these strings.
  std::string summary() const;
};

/// Runs the enabled queries against \p Config. The config must validate
/// under ValidationPolicy::Strict; the error is forwarded otherwise. A
/// probe-level model error aborts with that error; guard-rail stops and
/// cancellation instead mark the affected queries undecided.
Result<SensitivityResult>
analyzeSensitivity(const cfg::Config &Config,
                   const SensitivityOptions &Options = {});

/// Perturbation builders used by the probes — exported so the
/// differential oracle and the tests perturb configs *identically* to the
/// search that reported the numbers.
///
/// Adds \p Delta to every per-core-type WCET entry of the task.
cfg::Config withWcetDelta(const cfg::Config &Base, int TaskGid,
                          cfg::TimeValue Delta);
/// Sets the task's period to \p Period and clamps its deadline to it.
cfg::Config withPeriod(const cfg::Config &Base, int TaskGid,
                       cfg::TimeValue Period);
/// Shifts every window of partition \p Partition by \p Shift ticks.
cfg::Config withWindowShift(const cfg::Config &Base, int Partition,
                            cfg::TimeValue Shift);
/// Scales every WCET entry of every task by \p Permille / 1000, rounding
/// up (1000 = identity).
cfg::Config withUniformInflation(const cfg::Config &Base, int Permille);

/// Populates \p Report with the query outcome: probe totals, per-family
/// query counts, slack extremes, the frontier, and probes/s when
/// \p ElapsedSec is positive.
void fillSensitivityReport(obs::RunReport &Report,
                           const SensitivityResult &Res, double ElapsedSec);

} // namespace analysis
} // namespace swa

#endif // SWA_ANALYSIS_SENSITIVITY_H
