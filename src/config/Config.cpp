//===- config/Config.cpp - Modular system configurations -------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "config/Config.h"

#include "support/MathExtras.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace swa;
using namespace swa::cfg;

const char *swa::cfg::schedulerKindName(SchedulerKind K) {
  switch (K) {
  case SchedulerKind::FPPS:
    return "FPPS";
  case SchedulerKind::FPNPS:
    return "FPNPS";
  case SchedulerKind::EDF:
    return "EDF";
  }
  return "<bad>";
}

TimeValue Config::hyperperiod() const {
  TimeValue L = 1;
  for (const Partition &P : Partitions)
    for (const Task &T : P.Tasks)
      if (T.Period > 0)
        L = lcm64(L, T.Period); // Saturates on overflow; validate() rejects.
  return L;
}

Result<TimeValue> Config::checkedHyperperiod() const {
  TimeValue L = 1;
  for (size_t P = 0; P < Partitions.size(); ++P) {
    const Partition &Part = Partitions[P];
    for (size_t T = 0; T < Part.Tasks.size(); ++T) {
      const Task &Tk = Part.Tasks[T];
      if (Tk.Period <= 0)
        continue;
      Result<int64_t> Next = checkedLcm(L, Tk.Period);
      if (!Next.ok())
        return Error::failure(formatString(
            "hyperperiod overflows int64 folding period %lld of task '%s' "
            "(partition '%s') into accumulated lcm %lld",
            static_cast<long long>(Tk.Period), Tk.Name.c_str(),
            Part.Name.c_str(), static_cast<long long>(L)));
      L = *Next;
    }
  }
  return L;
}

int64_t Config::jobCount() const {
  TimeValue L = hyperperiod();
  int64_t Jobs = 0;
  for (const Partition &P : Partitions)
    for (const Task &T : P.Tasks)
      if (T.Period > 0)
        Jobs = saturatingAdd(Jobs, L / T.Period);
  return Jobs;
}

Result<int64_t> Config::checkedJobCount() const {
  Result<TimeValue> L = checkedHyperperiod();
  if (!L.ok())
    return L.takeError();
  int64_t Jobs = 0;
  for (const Partition &P : Partitions)
    for (const Task &T : P.Tasks) {
      if (T.Period <= 0)
        continue;
      Result<int64_t> Next = checkedAdd(Jobs, *L / T.Period);
      if (!Next.ok())
        return Error::failure("job count overflows int64");
      Jobs = *Next;
    }
  return Jobs;
}

int Config::numTasks() const {
  int N = 0;
  for (const Partition &P : Partitions)
    N += static_cast<int>(P.Tasks.size());
  return N;
}

int Config::globalTaskId(const TaskRef &Ref) const {
  assert(Ref.Partition >= 0 &&
         static_cast<size_t>(Ref.Partition) < Partitions.size() &&
         "bad partition index");
  int Id = 0;
  for (int P = 0; P < Ref.Partition; ++P)
    Id += static_cast<int>(Partitions[static_cast<size_t>(P)].Tasks.size());
  return Id + Ref.Task;
}

TaskRef Config::taskRefOf(int GlobalId) const {
  int Remaining = GlobalId;
  for (size_t P = 0; P < Partitions.size(); ++P) {
    int N = static_cast<int>(Partitions[P].Tasks.size());
    if (Remaining < N)
      return {static_cast<int>(P), Remaining};
    Remaining -= N;
  }
  assert(false && "global task id out of range");
  return {};
}

std::vector<TaskRef> Config::taskRefs() const {
  std::vector<TaskRef> Out;
  Out.reserve(static_cast<size_t>(numTasks()));
  for (size_t P = 0; P < Partitions.size(); ++P)
    for (size_t T = 0; T < Partitions[P].Tasks.size(); ++T)
      Out.push_back({static_cast<int>(P), static_cast<int>(T)});
  return Out;
}

const Task &Config::taskOf(const TaskRef &Ref) const {
  return Partitions[static_cast<size_t>(Ref.Partition)]
      .Tasks[static_cast<size_t>(Ref.Task)];
}

TimeValue Config::boundWcet(const TaskRef &Ref) const {
  const Partition &P = Partitions[static_cast<size_t>(Ref.Partition)];
  assert(P.Core >= 0 && static_cast<size_t>(P.Core) < Cores.size() &&
         "partition not bound");
  int Type = Cores[static_cast<size_t>(P.Core)].CoreType;
  return taskOf(Ref).Wcet[static_cast<size_t>(Type)];
}

TimeValue Config::effectiveDelay(const Message &M) const {
  const Partition &SP = Partitions[static_cast<size_t>(M.Sender.Partition)];
  const Partition &RP =
      Partitions[static_cast<size_t>(M.Receiver.Partition)];
  assert(SP.Core >= 0 && RP.Core >= 0 && "message between unbound partitions");
  int SMod = Cores[static_cast<size_t>(SP.Core)].Module;
  int RMod = Cores[static_cast<size_t>(RP.Core)].Module;
  return SMod == RMod ? M.MemDelay : M.NetDelay;
}

double Config::partitionUtilization(int Partition) const {
  const cfg::Partition &P = Partitions[static_cast<size_t>(Partition)];
  double U = 0;
  for (size_t T = 0; T < P.Tasks.size(); ++T) {
    TimeValue C = boundWcet({Partition, static_cast<int>(T)});
    U += static_cast<double>(C) /
         static_cast<double>(P.Tasks[T].Period);
  }
  return U;
}

double Config::windowShare(int Partition) const {
  const cfg::Partition &P = Partitions[static_cast<size_t>(Partition)];
  TimeValue Sum = 0;
  for (const Window &W : P.Windows)
    Sum += W.End - W.Start;
  TimeValue L = hyperperiod();
  return L > 0 ? static_cast<double>(Sum) / static_cast<double>(L) : 0.0;
}

Error Config::validate(ValidationPolicy Policy) const {
  auto Fail = [](const std::string &Msg) { return Error::failure(Msg); };

  if (NumCoreTypes <= 0)
    return Fail("configuration must declare at least one core type");
  if (Cores.empty())
    return Fail("configuration has no cores");
  if (Partitions.empty())
    return Fail("configuration has no partitions");

  for (size_t C = 0; C < Cores.size(); ++C) {
    const Core &Co = Cores[C];
    if (Co.CoreType < 0 || Co.CoreType >= NumCoreTypes)
      return Fail(formatString("core %zu has invalid type %d", C,
                               Co.CoreType));
    if (Co.Module < 0)
      return Fail(formatString("core %zu has negative module id", C));
  }

  // Pass 1: per-task structural checks. The hyperperiod fold below assumes
  // positive periods, so those come first.
  for (size_t P = 0; P < Partitions.size(); ++P) {
    const Partition &Part = Partitions[P];
    auto Where = [&](const std::string &What) {
      return formatString("partition %zu ('%s'): %s", P, Part.Name.c_str(),
                          What.c_str());
    };
    if (Part.Tasks.empty())
      return Fail(Where("has no tasks"));
    bool Bound =
        Part.Core >= 0 && static_cast<size_t>(Part.Core) < Cores.size();
    if (!Bound && (Policy == ValidationPolicy::Strict || Part.Core >= 0))
      return Fail(Where("is not bound to a valid core"));
    for (size_t T = 0; T < Part.Tasks.size(); ++T) {
      const Task &Tk = Part.Tasks[T];
      auto TWhere = [&](const std::string &What) {
        return Where(formatString("task %zu ('%s') %s", T, Tk.Name.c_str(),
                                  What.c_str()));
      };
      if (Tk.Period <= 0)
        return Fail(TWhere("has non-positive period"));
      if (Tk.Deadline <= 0 || Tk.Deadline > Tk.Period)
        return Fail(TWhere("needs 0 < deadline <= period"));
      if (Tk.Wcet.size() != static_cast<size_t>(NumCoreTypes))
        return Fail(TWhere("must list one WCET per core type"));
      for (TimeValue C : Tk.Wcet)
        if (C <= 0 || C > Tk.Deadline)
          return Fail(TWhere("needs 0 < WCET <= deadline"));
    }
  }

  // The hyperperiod must be representable before anything downstream is
  // allowed to compute with it (the checked fold names the period that
  // overflowed the accumulated lcm).
  Result<TimeValue> CheckedL = checkedHyperperiod();
  if (!CheckedL.ok())
    return CheckedL.takeError();
  TimeValue L = *CheckedL;

  // Pass 2: windows against the (now known-good) hyperperiod.
  for (size_t P = 0; P < Partitions.size(); ++P) {
    const Partition &Part = Partitions[P];
    auto Where = [&](const std::string &What) {
      return formatString("partition %zu ('%s'): %s", P, Part.Name.c_str(),
                          What.c_str());
    };
    for (const Window &W : Part.Windows) {
      if (W.Start < 0 || W.End > L || W.Start >= W.End)
        return Fail(
            Where(formatString("window [%lld, %lld) is not within the "
                               "hyperperiod %lld",
                               static_cast<long long>(W.Start),
                               static_cast<long long>(W.End),
                               static_cast<long long>(L))));
    }
  }

  // Windows on one core must not overlap (across all its partitions).
  for (size_t C = 0; C < Cores.size(); ++C) {
    std::vector<Window> All;
    for (const Partition &Part : Partitions)
      if (Part.Core == static_cast<int>(C))
        All.insert(All.end(), Part.Windows.begin(), Part.Windows.end());
    std::sort(All.begin(), All.end(), [](const Window &A, const Window &B) {
      return A.Start < B.Start;
    });
    for (size_t I = 1; I < All.size(); ++I)
      if (All[I].Start < All[I - 1].End)
        return Fail(formatString(
            "core %zu has overlapping windows [%lld,%lld) and [%lld,%lld)",
            C, static_cast<long long>(All[I - 1].Start),
            static_cast<long long>(All[I - 1].End),
            static_cast<long long>(All[I].Start),
            static_cast<long long>(All[I].End)));
  }

  for (size_t M = 0; M < Messages.size(); ++M) {
    const Message &Msg = Messages[M];
    auto MWhere = [&](const std::string &What) {
      return formatString("message %zu: %s", M, What.c_str());
    };
    auto ValidRef = [&](const TaskRef &R) {
      return R.Partition >= 0 &&
             static_cast<size_t>(R.Partition) < Partitions.size() &&
             R.Task >= 0 &&
             static_cast<size_t>(R.Task) <
                 Partitions[static_cast<size_t>(R.Partition)].Tasks.size();
    };
    if (!ValidRef(Msg.Sender) || !ValidRef(Msg.Receiver))
      return Fail(MWhere("references a non-existent task"));
    if (Msg.Sender == Msg.Receiver)
      return Fail(MWhere("connects a task to itself"));
    if (taskOf(Msg.Sender).Period != taskOf(Msg.Receiver).Period)
      return Fail(MWhere("connects tasks with different periods"));
    if (Msg.MemDelay < 0 || Msg.NetDelay < 0)
      return Fail(MWhere("has a negative transfer delay"));
  }
  return Error::success();
}
