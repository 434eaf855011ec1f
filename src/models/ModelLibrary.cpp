//===- models/ModelLibrary.cpp - IMA component automata library ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "models/ModelLibrary.h"

#include "support/StringUtils.h"

using namespace swa;
using namespace swa::models;
using sa::TemplateBuilder;

std::string swa::models::globalDeclsSource(int NumTasks, int NumPartitions,
                                           int NumLinks) {
  // Arrays must be non-empty; clamp the link table for link-free systems.
  int NL = NumLinks > 0 ? NumLinks : 1;
  return formatString(
      "const int NT = %d;\n"
      "const int NP = %d;\n"
      "const int NL = %d;\n"
      "int is_ready[NT];\n"
      "int is_failed[NT];\n"
      "int prio[NT];\n"
      "int deadline_abs[NT];\n"
      "int is_data_ready[NL];\n"
      "chan ready[NP];\n"
      "chan finished[NP];\n"
      "chan wakeup[NP];\n"
      "chan sleep[NP];\n"
      "chan exec[NT];\n"
      "chan preempt[NT];\n"
      "broadcast chan send[NT];\n"
      "broadcast chan deliver[NL];\n",
      NumTasks, NumPartitions, NL);
}

namespace {

Result<std::unique_ptr<sa::Template>>
buildTask(const usl::Declarations &Globals) {
  TemplateBuilder TB("Task", Globals);
  TB.params("int gid, int part, int wcet, int period, int deadline, "
            "int priority, int n_in, int[] in_links");
  TB.decls(
      "clock p; clock e;\n"
      "int jobidx = 0;\n"
      "bool inputs_ready() {\n"
      "  for (int i = 0; i < n_in; i++)\n"
      "    if (is_data_ready[in_links[i]] < jobidx + 1) return false;\n"
      "  return true;\n"
      "}\n"
      "void on_release() {\n"
      "  prio[gid] = priority;\n"
      "  deadline_abs[gid] = jobidx * period + deadline;\n"
      "}\n");

  // Job lifecycle. The execution stopwatch `e` advances only in Running;
  // the period clock `p` is reset at each release, so p == deadline marks
  // the absolute deadline and p == period the next release.
  TB.committed("Release")
      .location("AwaitData", "p <= deadline && e' == 0")
      .location("Ready", "p <= deadline && e' == 0")
      .location("Running", "e <= wcet && p <= deadline")
      .committed("Sending")
      .location("WaitNext", "p <= period && e' == 0")
      .initial("Release");

  TB.edge("Release", "Ready",
          {.Guard = "inputs_ready()", .Sync = "ready[part]!",
           .Update = "on_release(), is_ready[gid] = 1"});
  TB.edge("Release", "AwaitData",
          {.Guard = "!inputs_ready()", .Update = "on_release()"});
  TB.edge("AwaitData", "Ready",
          {.Guard = "inputs_ready() && p <= deadline - 1",
           .Sync = "ready[part]!", .Update = "is_ready[gid] = 1"});
  TB.edge("AwaitData", "WaitNext",
          {.Guard = "p >= deadline",
           .Update = "is_failed[gid] = 1, jobidx = jobidx + 1"});
  // Dispatch is refused from the deadline instant on ("a job that reaches
  // its deadline can not be executed anymore"): without this guard, an
  // interleaving could start a zero-length execution at exactly the
  // deadline, breaking trace determinism.
  TB.edge("Ready", "Running",
          {.Guard = "p <= deadline - 1", .Sync = "exec[gid]?"});
  TB.edge("Ready", "WaitNext",
          {.Guard = "p >= deadline", .Sync = "finished[part]!",
           .Update =
               "is_failed[gid] = 1, is_ready[gid] = 0, jobidx = jobidx + 1"});
  // Preemption is refused once the job's work is complete (e == wcet):
  // completion takes priority over a simultaneous window end or dispatch
  // decision, which is what makes the finished-time unique (§3: a job's
  // FIN happens exactly when its cumulative execution reaches the WCET).
  TB.edge("Running", "Ready",
          {.Guard = "e <= wcet - 1", .Sync = "preempt[gid]?"});
  TB.edge("Running", "Sending",
          {.Guard = "e >= wcet", .Sync = "finished[part]!",
           .Update = "is_ready[gid] = 0, jobidx = jobidx + 1"});
  TB.edge("Running", "WaitNext",
          {.Guard = "p >= deadline && e <= wcet - 1",
           .Sync = "finished[part]!",
           .Update =
               "is_failed[gid] = 1, is_ready[gid] = 0, jobidx = jobidx + 1"});
  TB.edge("Sending", "WaitNext", {.Sync = "send[gid]!"});
  TB.edge("WaitNext", "Release",
          {.Guard = "p >= period", .Update = "p = 0, e = 0"});
  // Dirty-tracking hint: inputs_ready() only reads this task's own input
  // links, not the whole delivery-counter table.
  TB.readElems("is_data_ready", "in_links", "n_in");
  return TB.build();
}

/// Shared scaffold of the three task schedulers: wakeup/sleep window
/// handling plus ready/finished bookkeeping; \p DeclSrc supplies pick()
/// and \p DecideEdges installs the algorithm-specific dispatch edges.
/// \p IdleInv is an extra invariant for the time-passing locations (used
/// by FPNPS to freeze its dispatch-age clock while the core is idle) and
/// \p WindowClearUpd / \p SleepUpd the updates of the window-end preempt
/// and sleep edges (FPNPS additionally resets that clock there).
void addSchedulerScaffold(TemplateBuilder &TB, const std::string &DeclSrc,
                          const std::string &IdleInv = "",
                          const std::string &WindowClearUpd = "cur = -1",
                          const std::string &SleepUpd = "") {
  TB.params("int part, int off, int nt");
  TB.decls("int cur = -1;\n" + DeclSrc +
           "void on_finished() {\n"
           "  if (cur >= 0) { if (is_ready[cur] == 0) cur = -1; }\n"
           "}\n");
  TB.location("Asleep", IdleInv)
      .location("Awake", IdleInv)
      .committed("Decide")
      .committed("Pausing")
      .initial("Asleep");

  TB.edge("Asleep", "Decide", {.Sync = "wakeup[part]?"});
  TB.edge("Asleep", "Asleep", {.Sync = "ready[part]?"});
  TB.edge("Asleep", "Asleep",
          {.Sync = "finished[part]?", .Update = "on_finished()"});

  TB.edge("Awake", "Decide", {.Sync = "ready[part]?"});
  TB.edge("Awake", "Decide",
          {.Sync = "finished[part]?", .Update = "on_finished()"});
  TB.edge("Awake", "Pausing", {.Sync = "sleep[part]?"});

  // Committed locations must stay receptive so that committed task chains
  // (release, completion) can always hand their signals over.
  TB.edge("Decide", "Decide", {.Sync = "ready[part]?"});
  TB.edge("Decide", "Decide",
          {.Sync = "finished[part]?", .Update = "on_finished()"});
  TB.edge("Pausing", "Pausing", {.Sync = "ready[part]?"});
  TB.edge("Pausing", "Pausing",
          {.Sync = "finished[part]?", .Update = "on_finished()"});

  // Window end: force the running job off the core, then sleep.
  TB.edge("Pausing", "Pausing",
          {.Guard = "cur != -1", .Sync = "preempt[cur]!",
           .Update = WindowClearUpd});
  TB.edge("Pausing", "Asleep", {.Guard = "cur == -1", .Update = SleepUpd});

  // Dirty-tracking hints: the scheduler only inspects its own partition's
  // slice of the per-task tables.
  TB.readRange("is_ready", "off", "nt");
  TB.readRange("prio", "off", "nt");
  TB.readRange("deadline_abs", "off", "nt");
}

Result<std::unique_ptr<sa::Template>>
buildFpps(const usl::Declarations &Globals) {
  TemplateBuilder TB("FppsScheduler", Globals);
  addSchedulerScaffold(
      TB,
      // Highest priority ready job; ties broken towards the lower task id.
      "int pick() {\n"
      "  int best = -1; int bp = 0;\n"
      "  for (int i = 0; i < nt; i++) {\n"
      "    int g = off + i;\n"
      "    if (is_ready[g] == 1) {\n"
      "      if (best == -1 || prio[g] > bp) { best = g; bp = prio[g]; }\n"
      "    }\n"
      "  }\n"
      "  return best;\n"
      "}\n");
  TB.edge("Decide", "Awake", {.Guard = "pick() == cur"});
  TB.edge("Decide", "Decide",
          {.Guard = "pick() != cur && cur != -1", .Sync = "preempt[cur]!",
           .Update = "cur = -1"});
  TB.edge("Decide", "Awake",
          {.Guard = "pick() != cur && cur == -1", .Sync = "exec[pick()]!",
           .Update = "cur = pick()"});
  return TB.build();
}

Result<std::unique_ptr<sa::Template>>
buildFpnps(const usl::Declarations &Globals) {
  TemplateBuilder TB("FpnpsScheduler", Globals);
  addSchedulerScaffold(
      TB,
      "clock z;\n"
      "int zrate() { if (cur == -1) return 0; return 1; }\n"
      "int pick() {\n"
      "  int best = -1; int bp = 0;\n"
      "  for (int i = 0; i < nt; i++) {\n"
      "    int g = off + i;\n"
      "    if (is_ready[g] == 1) {\n"
      "      if (best == -1 || prio[g] > bp) { best = g; bp = prio[g]; }\n"
      "    }\n"
      "  }\n"
      "  return best;\n"
      "}\n",
      // The dispatch-age stopwatch z must be a function of the observable
      // schedule, or its value would leak which same-instant interleaving
      // produced a state and re-break the determinism theorem the revocable
      // dispatch below restores: z runs only while a job holds the core
      // (frozen when cur == -1), is reset on the window-end edges (a
      // zero-length dispatch clobbered by the window end must converge
      // with the interleaving where the sleep wins and no dispatch
      // happens), and otherwise freezes at the completed chunk's length
      // on a job finish — an observable quantity in every case.
      /*IdleInv=*/"z' == zrate()",
      /*WindowClearUpd=*/"cur = -1, z = 0",
      /*SleepUpd=*/"z = 0");
  // Non-preemptive: a job that has started executing (z >= 1: time has
  // passed since its dispatch) is never displaced; only the window end in
  // Pausing removes it. Within the dispatch instant (z == 0) the decision
  // stays revocable — displacing a zero-progress job is free — so the job
  // left on the core is a pure function of the instant's ready set, not
  // of the order in which same-instant releases were processed. Without
  // this, two releases at the same instant race the dispatch and the
  // trace-determinism theorem fails for FPNPS (the MC census oracle in
  // src/difftest/ finds multiple final states).
  TB.edge("Decide", "Awake", {.Guard = "cur != -1 && z >= 1"});
  TB.edge("Decide", "Awake",
          {.Guard = "cur != -1 && z <= 0 && pick() == cur"});
  TB.edge("Decide", "Decide",
          {.Guard = "cur != -1 && z <= 0 && pick() != cur",
           .Sync = "preempt[cur]!", .Update = "cur = -1, z = 0"});
  TB.edge("Decide", "Awake", {.Guard = "cur == -1 && pick() == -1"});
  TB.edge("Decide", "Awake",
          {.Guard = "cur == -1 && pick() != -1", .Sync = "exec[pick()]!",
           .Update = "cur = pick(), z = 0"});
  return TB.build();
}

Result<std::unique_ptr<sa::Template>>
buildEdf(const usl::Declarations &Globals) {
  TemplateBuilder TB("EdfScheduler", Globals);
  addSchedulerScaffold(
      TB,
      // Earliest absolute deadline; ties broken towards the lower task id.
      "int pick() {\n"
      "  int best = -1; int bd = 0;\n"
      "  for (int i = 0; i < nt; i++) {\n"
      "    int g = off + i;\n"
      "    if (is_ready[g] == 1) {\n"
      "      if (best == -1 || deadline_abs[g] < bd) {\n"
      "        best = g; bd = deadline_abs[g];\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "  return best;\n"
      "}\n");
  TB.edge("Decide", "Awake", {.Guard = "pick() == cur"});
  TB.edge("Decide", "Decide",
          {.Guard = "pick() != cur && cur != -1", .Sync = "preempt[cur]!",
           .Update = "cur = -1"});
  TB.edge("Decide", "Awake",
          {.Guard = "pick() != cur && cur == -1", .Sync = "exec[pick()]!",
           .Update = "cur = pick()"});
  return TB.build();
}

Result<std::unique_ptr<sa::Template>>
buildCoreScheduler(const usl::Declarations &Globals) {
  TemplateBuilder TB("CoreScheduler", Globals);
  TB.params("int nw, int[] w_start, int[] w_end, int[] w_part, int hyper");
  TB.decls("clock h;\n"
           "int widx = 0;\n"
           "int nstart() { if (widx < nw) return w_start[widx]; "
           "return hyper; }\n");
  TB.location("Gap", "h <= nstart()")
      .location("InWin", "h <= w_end[widx]")
      .initial("Gap");
  TB.edge("Gap", "InWin",
          {.Guard = "widx < nw && h >= nstart()",
           .Sync = "wakeup[w_part[widx]]!"});
  TB.edge("InWin", "Gap",
          {.Guard = "h >= w_end[widx]", .Sync = "sleep[w_part[widx]]!",
           .Update = "widx = widx + 1"});
  TB.edge("Gap", "Gap",
          {.Guard = "widx >= nw && h >= hyper",
           .Update = "h = 0, widx = 0"});
  return TB.build();
}

Result<std::unique_ptr<sa::Template>>
buildVirtualLink(const usl::Declarations &Globals) {
  TemplateBuilder TB("VirtualLink", Globals);
  TB.params("int link, int src, int delay");
  TB.decls("clock d; int pending = 0;");
  TB.location("Idle")
      .location("Transfer", "d <= delay")
      .committed("Check")
      .initial("Idle");
  TB.edge("Idle", "Transfer", {.Sync = "send[src]?", .Update = "d = 0"});
  // A send arriving mid-transfer queues up (back-to-back messages).
  TB.edge("Transfer", "Transfer",
          {.Sync = "send[src]?", .Update = "pending = pending + 1"});
  TB.edge("Transfer", "Check",
          {.Guard = "d >= delay", .Sync = "deliver[link]!",
           .Update = "is_data_ready[link] = is_data_ready[link] + 1"});
  TB.edge("Check", "Transfer",
          {.Guard = "pending > 0",
           .Update = "pending = pending - 1, d = 0"});
  TB.edge("Check", "Idle", {.Guard = "pending == 0"});
  return TB.build();
}

} // namespace

Result<std::unique_ptr<ModelLibrary>>
ModelLibrary::create(const usl::Declarations &Globals) {
  std::unique_ptr<ModelLibrary> Lib(new ModelLibrary());

  auto Take = [](Result<std::unique_ptr<sa::Template>> R,
                 std::unique_ptr<sa::Template> &Into) -> Error {
    if (!R.ok())
      return R.takeError();
    Into = R.takeValue();
    return Error::success();
  };

  if (Error E = Take(buildTask(Globals), Lib->Task))
    return E;
  if (Error E = Take(buildFpps(Globals), Lib->Fpps))
    return E;
  if (Error E = Take(buildFpnps(Globals), Lib->Fpnps))
    return E;
  if (Error E = Take(buildEdf(Globals), Lib->Edf))
    return E;
  if (Error E = Take(buildCoreScheduler(Globals), Lib->CoreSched))
    return E;
  if (Error E = Take(buildVirtualLink(Globals), Lib->Link))
    return E;
  return Lib;
}

const sa::Template &ModelLibrary::scheduler(cfg::SchedulerKind K) const {
  switch (K) {
  case cfg::SchedulerKind::FPPS:
    return *Fpps;
  case cfg::SchedulerKind::FPNPS:
    return *Fpnps;
  case cfg::SchedulerKind::EDF:
    return *Edf;
  }
  return *Fpps;
}
