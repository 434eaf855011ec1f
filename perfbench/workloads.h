//===- perfbench/workloads.h - The benchmark's four workloads ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload turns a pool key into an input document, answers it through
/// the analyzer's public API, and renders the answer's semantic fields as
/// a canonical string that the harness digests and checks against the
/// recorded goldens. Every answer has an untraced form (the timed
/// end-to-end path, exactly what a user calls) and a traced form that
/// makes the same public calls with the analyzer's obs layer switched on
/// and benchmark-side spans around the steps no obs phase times.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_PERFBENCH_WORKLOADS_H
#define SWA_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace swabench {

/// Outcome of one answer. Ok is false when the analyzer returned an
/// error or a guard rail left the answer undecided; Golden is then
/// empty.
struct Answer {
  bool Ok = false;
  std::string Error;
  /// Time the answer took, without the benchmark's own golden rendering.
  uint64_t WallNs = 0;
  /// Whether the input may enter the golden pool (record mode): the
  /// sensitivity workload admits only configurations whose base verdict
  /// is schedulable, since an unschedulable base answers without a probe.
  bool Poolable = true;
  /// Canonical rendering of the answer's semantic fields (no counters,
  /// no probe counts): equal across worker counts by contract.
  std::string Golden;
  /// One-line human summary stored next to the golden digest.
  std::string Summary;
};

/// Per-layer numbers of one traced answer.
struct LayerSample {
  /// Thread time inside the answer that a layer accounts for: the
  /// outermost obs layer phases on every thread plus the benchmark's spans
  /// of layers without a phase. The answer's wall time is Answer::WallNs.
  uint64_t CoveredNs = 0;
  /// Per-layer metric values of this answer, by metric name.
  std::map<std::string, double> Values;
};

class Workload {
public:
  virtual ~Workload() = default;

  virtual const char *name() const = 0;
  /// Worker threads the measured answers use.
  virtual int workers() const = 0;
  /// Distinct inputs one run cycles through.
  virtual int ringSize() const = 0;
  /// Goldens recorded per workload (the pool a run draws its ring from).
  virtual int poolSize() const = 0;

  /// The input document (configuration XML) for pool key \p Key.
  virtual std::string makeInput(uint64_t Key) const = 0;
  /// Untimed preparation of one input; false (with \p Error) when the
  /// document does not parse.
  virtual bool prepare(uint64_t Key, const std::string &Xml,
                       std::string &Error) = 0;
  /// Answers prepared input \p Slot (the order prepare() was called in).
  virtual Answer answer(int Slot, int Workers) = 0;
  /// The same answer, with spans and obs on; fills \p Sample.
  virtual Answer answerTraced(int Slot, int Workers, LayerSample &Sample) = 0;
  /// Drops every prepared input.
  virtual void clear() = 0;
};

/// Creates a workload by name, or null. \p ScratchDir receives the
/// durable workload's checkpoint files.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &ScratchDir);

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Steady-clock nanoseconds.
uint64_t nowNs();

/// FNV-1a digest of \p S (golden values are digests of canonical answers).
uint64_t digest(const std::string &S);

/// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

} // namespace swabench

#endif // SWA_PERFBENCH_WORKLOADS_H
