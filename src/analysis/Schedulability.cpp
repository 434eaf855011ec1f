//===- analysis/Schedulability.cpp - Criterion and job statistics ----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Schedulability.h"

#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace swa;
using namespace swa::analysis;

namespace {

/// Per-task accumulation state while scanning the trace.
struct TaskScan {
  int64_t OpenStart = -1; ///< Start of the currently executing interval.
  std::vector<JobStats> Jobs;
};

} // namespace

AnalysisResult swa::analysis::analyzeTrace(const cfg::Config &Config,
                                           const core::SystemTrace &Trace) {
  obs::ScopedTimer Timer("criterion");
  AnalysisResult Res;
  int NT = Config.numTasks();
  cfg::TimeValue L = Config.hyperperiod();
  const std::vector<cfg::TaskRef> Refs = Config.taskRefs();
  auto TaskOf = [&](int Gid) -> const cfg::Task & {
    return Config.taskOf(Refs[static_cast<size_t>(Gid)]);
  };

  // Pre-create the full job table: every job of the hyperperiod must be
  // accounted for, including jobs that never produced any event.
  std::vector<TaskScan> Scan(static_cast<size_t>(NT));
  size_t TotalJobs = 0;
  for (int G = 0; G < NT; ++G) {
    const cfg::Task &T = TaskOf(G);
    int64_t NumJobs = L / T.Period;
    TotalJobs += static_cast<size_t>(NumJobs);
    Scan[static_cast<size_t>(G)].Jobs.resize(
        static_cast<size_t>(NumJobs));
    for (int64_t K = 0; K < NumJobs; ++K) {
      JobStats &J = Scan[static_cast<size_t>(G)].Jobs[
          static_cast<size_t>(K)];
      J.TaskGid = G;
      J.JobIndex = static_cast<int>(K);
      J.ReleaseTime = K * T.Period;
    }
  }

  auto JobOf = [&](int Gid, int64_t Time,
                   bool EndsJob) -> JobStats * {
    const cfg::Task &T = TaskOf(Gid);
    int64_t K = Time / T.Period;
    // A FIN landing exactly on a release boundary belongs to the previous
    // job (deadline == period); a new job cannot finish at its release.
    if (EndsJob && Time % T.Period == 0 && Time > 0)
      K = Time / T.Period - 1;
    auto &Jobs = Scan[static_cast<size_t>(Gid)].Jobs;
    if (K < 0 || static_cast<size_t>(K) >= Jobs.size())
      return nullptr; // Event beyond the analyzed hyperperiod.
    return &Jobs[static_cast<size_t>(K)];
  };

  for (const core::SysEvent &E : Trace) {
    TaskScan &TS = Scan[static_cast<size_t>(E.TaskGid)];
    switch (E.Type) {
    case core::SysEventType::READY: {
      if (JobStats *J = JobOf(E.TaskGid, E.Time, /*EndsJob=*/false))
        if (J->ReadyTime < 0)
          J->ReadyTime = E.Time;
      break;
    }
    case core::SysEventType::EX: {
      // Nested EX without PR/FIN would be a model error; keep the first.
      if (TS.OpenStart < 0)
        TS.OpenStart = E.Time;
      break;
    }
    case core::SysEventType::PR: {
      if (TS.OpenStart < 0)
        break; // PR without EX: ignore (cannot happen in our models).
      if (JobStats *J = JobOf(E.TaskGid, TS.OpenStart, /*EndsJob=*/false)) {
        if (E.Time > TS.OpenStart) {
          J->Intervals.push_back({TS.OpenStart, E.Time});
          J->ExecTotal += E.Time - TS.OpenStart;
          ++J->Preemptions;
        }
      }
      TS.OpenStart = -1;
      break;
    }
    case core::SysEventType::FIN: {
      JobStats *J = nullptr;
      if (TS.OpenStart >= 0) {
        J = JobOf(E.TaskGid, TS.OpenStart, /*EndsJob=*/false);
        if (J && E.Time > TS.OpenStart) {
          J->Intervals.push_back({TS.OpenStart, E.Time});
          J->ExecTotal += E.Time - TS.OpenStart;
        }
        TS.OpenStart = -1;
      } else {
        J = JobOf(E.TaskGid, E.Time, /*EndsJob=*/true);
      }
      if (J && J->FinishTime < 0)
        J->FinishTime = E.Time;
      break;
    }
    }
  }

  // Evaluate the criterion.
  Res.WorstResponse.assign(static_cast<size_t>(NT), 0);
  Res.Jobs.reserve(TotalJobs);
  Res.Schedulable = true;
  for (int G = 0; G < NT; ++G) {
    cfg::TaskRef Ref = Refs[static_cast<size_t>(G)];
    const cfg::Task &T = Config.taskOf(Ref);
    cfg::TimeValue C = Config.boundWcet(Ref);
    bool AnyMiss = false;
    for (JobStats &J : Scan[static_cast<size_t>(G)].Jobs) {
      ++Res.TotalJobs;
      int64_t AbsDeadline = J.ReleaseTime + T.Deadline;
      J.Completed = J.ExecTotal == C && J.FinishTime >= 0 &&
                    J.FinishTime <= AbsDeadline;
      if (!J.Completed) {
        AnyMiss = true;
        ++Res.MissedJobs;
        if (Res.Schedulable) {
          Res.Schedulable = false;
          Res.FirstViolation = formatString(
              "task %d ('%s') job %d: executed %lld of %lld ticks by its "
              "deadline %lld",
              G, T.Name.c_str(), J.JobIndex,
              static_cast<long long>(J.ExecTotal),
              static_cast<long long>(C),
              static_cast<long long>(AbsDeadline));
        }
      } else {
        Res.WorstResponse[static_cast<size_t>(G)] =
            std::max(Res.WorstResponse[static_cast<size_t>(G)],
                     J.responseTime());
      }
      Res.Jobs.push_back(std::move(J));
    }
    // Worst response is undefined for tasks with missed jobs.
    if (AnyMiss)
      Res.WorstResponse[static_cast<size_t>(G)] = -1;
  }
  return Res;
}

bool swa::analysis::jobTracesEquivalent(const AnalysisResult &A,
                                        const AnalysisResult &B) {
  if (A.Jobs.size() != B.Jobs.size())
    return false;
  // Jobs are emitted in (task, job-index) order by construction.
  for (size_t I = 0; I < A.Jobs.size(); ++I) {
    const JobStats &JA = A.Jobs[I];
    const JobStats &JB = B.Jobs[I];
    if (JA.TaskGid != JB.TaskGid || JA.JobIndex != JB.JobIndex ||
        JA.ReadyTime != JB.ReadyTime || JA.FinishTime != JB.FinishTime ||
        !(JA.Intervals == JB.Intervals))
      return false;
  }
  return true;
}
