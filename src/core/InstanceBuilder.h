//===- core/InstanceBuilder.h - Algorithm 1: config -> NSA ------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: for a system configuration, construct the NSA
/// instance — one Task automaton per task, one task-scheduler automaton per
/// partition (matching its scheduling algorithm), one core-scheduler
/// automaton per used core, and one virtual-link automaton per message,
/// wired through the shared variables and channels of the general model.
///
/// The result keeps the channel-table bases and task-to-automaton mapping
/// needed to translate NSA synchronization traces back into system
/// operation traces (EX/PR/FIN events per job, §2.1).
///
//===----------------------------------------------------------------------===//

#ifndef SWA_CORE_INSTANCEBUILDER_H
#define SWA_CORE_INSTANCEBUILDER_H

#include "config/Config.h"
#include "sa/Network.h"

#include <memory>
#include <vector>

namespace swa {
namespace core {

/// A bound model instance for one configuration.
struct BuiltModel {
  std::unique_ptr<sa::Network> Net;
  cfg::Config Config;

  // Flat channel-id bases of the general model's channel families.
  int ReadyBase = -1;
  int FinishedBase = -1;
  int WakeupBase = -1;
  int SleepBase = -1;
  int ExecBase = -1;
  int PreemptBase = -1;
  int SendBase = -1;
  int DeliverBase = -1;

  /// Automaton index of each task (by global task id).
  std::vector<int> TaskAutomaton;
  /// Automaton index of each partition's task scheduler.
  std::vector<int> SchedulerAutomaton;

  /// Store slot of is_failed[0] (the failure flags array).
  int IsFailedSlot = -1;
};

/// Runs Algorithm 1. The configuration is validated first.
///
/// \p PublishMetrics gates the obs build counters (core.models.built,
/// core.automata.instantiated). Model-arena rebuilds pass false: whether
/// an arena slot exists is a timing fact under parallel workers, and the
/// search's merged metrics must stay worker-count-invariant.
Result<BuiltModel> buildModel(const cfg::Config &Config,
                              bool PublishMetrics = true);

/// Patch plan for retargeting a built model's CoreScheduler window
/// tables in place. The window positions are the only part of a config
/// that reaches the compiled network as *data* (per-instance const
/// arrays, always indexed through a runtime variable); everything else —
/// task parameters, nw, hyper, the instance layout — is folded into
/// bytecode at build time. Two configs with equal cfg::fingerprintShape
/// therefore differ only in these arrays, and rebinding turns a full
/// Algorithm-1 rebuild into three vector assignments per core.
struct WindowRebinder {
  struct CoreSlots {
    int Core = -1;      ///< Original config core index.
    int StartSlot = -1; ///< ConstArrays slot of w_start.
    int EndSlot = -1;   ///< ConstArrays slot of w_end.
    int PartSlot = -1;  ///< ConstArrays slot of w_part.
    int64_t NumWindows = 0; ///< Folded nw — must match on rebind.
  };
  std::vector<CoreSlots> Cores;
  /// False when the model's CoreScheduler instances do not expose their
  /// array slots (foreign model); rebinding is then unavailable.
  bool Valid = false;
};

/// Builds the patch plan for \p Model from the cs_* automata metadata.
WindowRebinder makeWindowRebinder(const BuiltModel &Model);

/// Retargets \p Model to \p NewConfig by patching the window tables.
/// \p NewConfig must validate and have the same shape
/// (cfg::fingerprintShape) as the model's current config; the per-core
/// window counts and used-core set are re-checked defensively. After a
/// successful rebind the next Simulator::run (which resets first)
/// simulates exactly the model buildModel(NewConfig) would produce.
Error rebindWindows(BuiltModel &Model, const WindowRebinder &RB,
                    const cfg::Config &NewConfig);

} // namespace core
} // namespace swa

#endif // SWA_CORE_INSTANCEBUILDER_H
