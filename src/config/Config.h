//===- config/Config.h - Modular system configurations ----------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system configuration model of §2.1 of the paper:
///
///   conf = <HW, WL, Bind, Sched>
///
///  * HW: processing cores, each with a type (performance class) and a
///    module (cabinet) — inter-module messages travel over the network,
///    intra-module ones through memory;
///  * WL: partitions, each a set of tasks (priority, per-core-type WCET,
///    period, deadline) plus a scheduling algorithm, and the data-flow
///    graph of messages between same-period tasks;
///  * Bind: partition-to-core mapping;
///  * Sched: per-partition execution windows within the scheduling period
///    L = lcm of all task periods (the hyperperiod).
///
/// All times are integer ticks (the unit is the configurator's choice,
/// e.g. 100 us). Higher Priority values mean more urgent tasks.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_CONFIG_CONFIG_H
#define SWA_CONFIG_CONFIG_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace swa {
namespace cfg {

using TimeValue = int64_t;

/// One processing core of a hardware module.
struct Core {
  std::string Name;
  int Module = 0;   ///< Module (cabinet) id.
  int CoreType = 0; ///< Index into the core-type space [0, NumCoreTypes).
};

/// One task of a partition.
struct Task {
  std::string Name;
  int Priority = 0;              ///< Larger value = higher priority.
  std::vector<TimeValue> Wcet;   ///< Per core type; size == NumCoreTypes.
  TimeValue Period = 0;
  TimeValue Deadline = 0;        ///< Relative; 0 < Deadline <= Period.
};

enum class SchedulerKind {
  FPPS,  ///< Fixed-priority preemptive.
  FPNPS, ///< Fixed-priority non-preemptive (windows still preempt).
  EDF,   ///< Earliest-deadline-first, preemptive.
};

const char *schedulerKindName(SchedulerKind K);

/// A partition execution window [Start, End) within the hyperperiod.
struct Window {
  TimeValue Start = 0;
  TimeValue End = 0;
};

struct Partition {
  std::string Name;
  SchedulerKind Scheduler = SchedulerKind::FPPS;
  std::vector<Task> Tasks;
  int Core = -1; ///< Bind: index into Config::Cores.
  std::vector<Window> Windows;
};

/// Reference to a task by (partition index, task index).
struct TaskRef {
  int Partition = -1;
  int Task = -1;

  bool operator==(const TaskRef &O) const {
    return Partition == O.Partition && Task == O.Task;
  }
};

/// A message of the data-flow graph (one virtual link delivery).
struct Message {
  TaskRef Sender;
  TaskRef Receiver;
  TimeValue MemDelay = 0; ///< Worst case through shared memory.
  TimeValue NetDelay = 0; ///< Worst case through the switched network.
};

/// How strictly Config::validate checks the binding layer.
enum class ValidationPolicy {
  /// Every partition must be bound to a valid core (the simulation and
  /// analysis paths require this).
  Strict,
  /// Partitions may be unbound (Core == -1): the shape of a search-input
  /// Base configuration whose bindings and windows the scheduling tool
  /// will choose. Everything else is still checked.
  AllowUnbound,
};

class Config {
public:
  std::string Name;
  int NumCoreTypes = 1;
  std::vector<Core> Cores;
  std::vector<Partition> Partitions;
  std::vector<Message> Messages;

  /// L: the least common multiple of all task periods. Saturates at int64
  /// max if the lcm overflows — validate() rejects such configurations, so
  /// downstream code only ever sees real hyperperiods.
  TimeValue hyperperiod() const;

  /// Checked variant: an overflowing hyperperiod is a structured Error
  /// naming the offending period, in every build mode.
  Result<TimeValue> checkedHyperperiod() const;

  /// Total number of jobs in one hyperperiod (sum over tasks of L/P).
  /// Saturates on overflow, like hyperperiod().
  int64_t jobCount() const;

  /// Checked variant of jobCount().
  Result<int64_t> checkedJobCount() const;

  /// Total number of tasks.
  int numTasks() const;

  /// Flat task numbering: partitions in order, tasks within each.
  int globalTaskId(const TaskRef &Ref) const;
  TaskRef taskRefOf(int GlobalId) const;
  /// taskRefOf for every global id, indexed by it: one pass over the
  /// partitions instead of one per lookup.
  std::vector<TaskRef> taskRefs() const;
  const Task &taskOf(const TaskRef &Ref) const;

  /// The WCET of a task on the core its partition is bound to.
  TimeValue boundWcet(const TaskRef &Ref) const;

  /// Worst-case delay of a message given the current binding: MemDelay for
  /// intra-module communication, NetDelay across modules.
  TimeValue effectiveDelay(const Message &M) const;

  /// Processor demand of a partition within one hyperperiod divided by L.
  double partitionUtilization(int Partition) const;

  /// Fraction of the hyperperiod covered by the partition's windows.
  double windowShare(int Partition) const;

  /// Structural validation; returns the first problem found. An
  /// overflowing hyperperiod is rejected here (with a message naming the
  /// offending periods), so every accepted configuration has a real L.
  Error validate(ValidationPolicy Policy = ValidationPolicy::Strict) const;
};

} // namespace cfg
} // namespace swa

#endif // SWA_CONFIG_CONFIG_H
