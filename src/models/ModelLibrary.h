//===- models/ModelLibrary.h - IMA component automata library ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library of concrete automata types from §2.3 of the paper, each
/// implementing one base automata type of the general NSA:
///
///  * Task (T): job release each period, data-dependency wait, execution
///    with a stopwatch clock, preemption, completion, deadline handling,
///    output-data send after completion;
///  * FPPS / FPNPS / EDF task schedulers (TS): per-partition job
///    scheduling between wakeup/sleep window signals;
///  * Core scheduler (CS): drives the partition windows of one core over
///    the hyperperiod;
///  * Virtual link (L): delivers a message exactly at its worst-case
///    transfer delay, queueing back-to-back sends.
///
/// Templates are authored as USL source (the same role UPPAAL's editor
/// plays in the paper's toolchain) and compiled through the sa layer. The
/// shared-variable / channel interface of the general model is fixed by
/// globalDeclsSource(); instance construction (Algorithm 1) lives in
/// src/core.
///
/// Interface conventions (matching §2.3):
///  * is_ready[g] / is_failed[g] / prio[g] / deadline_abs[g] per task g;
///  * is_data_ready[h] is a monotone delivery counter per virtual link h —
///    job k of a receiver requires counter >= k+1 on all its input links;
///  * channels ready[p], finished[p], wakeup[p], sleep[p] per partition p;
///    exec[g], preempt[g], broadcast send[g] per task; broadcast deliver[h]
///    per link.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_MODELS_MODELLIBRARY_H
#define SWA_MODELS_MODELLIBRARY_H

#include "config/Config.h"
#include "sa/Template.h"

#include <memory>
#include <string>

namespace swa {
namespace models {

/// Returns the USL global declaration source defining the general model's
/// shared variables and channels for the given component counts.
std::string globalDeclsSource(int NumTasks, int NumPartitions,
                              int NumLinks);

/// The compiled component templates for one network build.
class ModelLibrary {
public:
  /// Compiles all standard templates against \p Globals (which must have
  /// been produced from globalDeclsSource()).
  static Result<std::unique_ptr<ModelLibrary>>
  create(const usl::Declarations &Globals);

  const sa::Template &task() const { return *Task; }
  const sa::Template &coreScheduler() const { return *CoreSched; }
  const sa::Template &virtualLink() const { return *Link; }

  /// The task-scheduler template for a scheduling algorithm kind.
  const sa::Template &scheduler(cfg::SchedulerKind K) const;

private:
  ModelLibrary() = default;

  std::unique_ptr<sa::Template> Task;
  std::unique_ptr<sa::Template> Fpps;
  std::unique_ptr<sa::Template> Fpnps;
  std::unique_ptr<sa::Template> Edf;
  std::unique_ptr<sa::Template> CoreSched;
  std::unique_ptr<sa::Template> Link;
};

} // namespace models
} // namespace swa

#endif // SWA_MODELS_MODELLIBRARY_H
