//===- verify/Observers.cpp - Observer-based component verification ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "verify/Observers.h"

#include "models/ModelLibrary.h"
#include "sa/NetworkBuilder.h"
#include "support/StringUtils.h"

using namespace swa;
using namespace swa::verify;
using sa::TemplateBuilder;

namespace {

/// Extra shared state used by the harness drivers and observers.
const char *harnessDecls() {
  return "int t_now = 0;\n"
         "int drv_running = 0;\n"
         "int fin_pulse = 0;\n"
         "int inflight = 0;\n"
         "int running[4];\n"
         "int awake[4];\n"
         "broadcast chan tick;\n";
}

/// Duration observer for R6: its clock accumulates while some job runs
/// with the partition window closed. Zero-duration transients inside one
/// instant (the scheduler needs a step to preempt after `sleep`) are
/// legitimate and accumulate nothing.
Result<std::unique_ptr<sa::Template>>
buildWindowObserver(const usl::Declarations &Globals) {
  TemplateBuilder TB("WindowObserver", Globals);
  TB.decls("clock v;");
  TB.location("Watch",
              "v' == ((running[0] + running[1] >= 1 && awake[0] == 0) "
              "? 1 : 0)")
      .initial("Watch");
  return TB.build();
}

/// The pacing automaton: a broadcast tick at every integer instant up to
/// the horizon; t_now is incremented by the sender before receivers act.
Result<std::unique_ptr<sa::Template>>
buildTicker(const usl::Declarations &Globals) {
  TemplateBuilder TB("Ticker", Globals);
  TB.params("int hticks");
  TB.decls("clock c;");
  TB.location("Run", "c <= 1").location("Done").initial("Run");
  TB.edge("Run", "Run",
          {.Guard = "t_now < hticks && c >= 1", .Sync = "tick!",
           .Update = "t_now = t_now + 1, c = 0"});
  TB.edge("Run", "Done", {.Guard = "t_now >= hticks && c >= 1"});
  return TB.build();
}

/// Task-side driver for scheduler harnesses: becomes ready, completes or
/// deadline-fails at nondeterministic ticks; mirrors exec/preempt into
/// running[g].
Result<std::unique_ptr<sa::Template>>
buildSchedDriverTask(const usl::Declarations &Globals) {
  TemplateBuilder TB("DriverTask", Globals);
  TB.params("int g, int p, int myprio");
  TB.location("Out")
      .committed("OutChoose")
      .location("Ready")
      .committed("ReadyChoose")
      .location("Running")
      .committed("RunChoose")
      .initial("Out");

  TB.edge("Out", "OutChoose", {.Sync = "tick?"});
  TB.edge("OutChoose", "Out", {});
  TB.edge("OutChoose", "Ready",
          {.Sync = "ready[p]!",
           .Update = "is_ready[g] = 1, prio[g] = myprio, "
                     "deadline_abs[g] = t_now + 50"});

  TB.edge("Ready", "Running", {.Sync = "exec[g]?",
                               .Update = "running[g] = 1"});
  TB.edge("Ready", "ReadyChoose", {.Sync = "tick?"});
  TB.edge("ReadyChoose", "Ready", {});
  // Deadline miss announced from the ready queue.
  TB.edge("ReadyChoose", "Out",
          {.Sync = "finished[p]!", .Update = "is_ready[g] = 0"});

  TB.edge("Running", "Ready", {.Sync = "preempt[g]?",
                               .Update = "running[g] = 0"});
  TB.edge("Running", "RunChoose", {.Sync = "tick?"});
  TB.edge("RunChoose", "Running", {});
  TB.edge("RunChoose", "Out",
          {.Sync = "finished[p]!",
           .Update = "running[g] = 0, is_ready[g] = 0"});
  return TB.build();
}

/// Core-scheduler-side driver: opens/closes the window nondeterministically.
Result<std::unique_ptr<sa::Template>>
buildWindowDriver(const usl::Declarations &Globals) {
  TemplateBuilder TB("DriverWindow", Globals);
  TB.params("int p");
  TB.location("Closed")
      .committed("CChoose")
      .location("Open")
      .committed("OChoose")
      .initial("Closed");
  TB.edge("Closed", "CChoose", {.Sync = "tick?"});
  TB.edge("CChoose", "Closed", {});
  TB.edge("CChoose", "Open",
          {.Sync = "wakeup[p]!", .Update = "awake[p] = 1"});
  TB.edge("Open", "OChoose", {.Sync = "tick?"});
  TB.edge("OChoose", "Open", {});
  TB.edge("OChoose", "Closed",
          {.Sync = "sleep[p]!", .Update = "awake[p] = 0"});
  return TB.build();
}

/// Scheduler-side driver for task harnesses: at each tick, dispatch or
/// preempt the single task nondeterministically.
Result<std::unique_ptr<sa::Template>>
buildTaskDriverSched(const usl::Declarations &Globals) {
  TemplateBuilder TB("DriverSched", Globals);
  TB.params("int g, int p");
  TB.location("Idle").committed("Choose").initial("Idle");
  TB.edge("Idle", "Idle", {.Sync = "ready[p]?"});
  TB.edge("Idle", "Idle",
          {.Sync = "finished[p]?",
           .Update = "drv_running = 0, fin_pulse = fin_pulse + 1"});
  TB.edge("Idle", "Choose", {.Sync = "tick?"});
  TB.edge("Choose", "Idle", {});
  TB.edge("Choose", "Idle",
          {.Guard = "is_ready[g] == 1 && drv_running == 0",
           .Sync = "exec[g]!", .Update = "drv_running = 1"});
  TB.edge("Choose", "Idle",
          {.Guard = "drv_running == 1", .Sync = "preempt[g]!",
           .Update = "drv_running = 0"});
  // Stay receptive mid-choice: the task may complete at this instant.
  TB.edge("Choose", "Choose", {.Sync = "ready[p]?"});
  TB.edge("Choose", "Choose",
          {.Sync = "finished[p]?",
           .Update = "drv_running = 0, fin_pulse = fin_pulse + 1"});
  return TB.build();
}

/// Input-data driver: delivers the single message at a nondeterministic
/// tick (stands in for the virtual link when testing the task alone).
Result<std::unique_ptr<sa::Template>>
buildDataDriver(const usl::Declarations &Globals) {
  TemplateBuilder TB("DriverData", Globals);
  TB.location("Pending").committed("Choose").location("Sent").initial(
      "Pending");
  TB.edge("Pending", "Choose", {.Sync = "tick?"});
  TB.edge("Choose", "Pending", {});
  TB.edge("Choose", "Sent", {.Update = "is_data_ready[0] = 1"});
  return TB.build();
}

/// Stopwatch observer for the task harness: clock x accumulates at rate
/// drv_running (execution time), clock late accumulates while the task
/// runs past its deadline. Enters Bad when a completed job's execution
/// total differs from its WCET or when a second completion appears.
Result<std::unique_ptr<sa::Template>>
buildTaskObserver(const usl::Declarations &Globals) {
  TemplateBuilder TB("TaskObserver", Globals);
  TB.params("int g, int wcet, int deadline");
  TB.decls("clock x; clock late;");
  TB.location("Watch",
              "x' == drv_running && "
              "late' == ((t_now >= deadline && drv_running == 1) ? 1 : 0)")
      .location("Bad")
      .initial("Watch");
  TB.edge("Watch", "Bad",
          {.Guard = "fin_pulse >= 1 && is_failed[g] == 0 && "
                    "x <= wcet - 1"});
  TB.edge("Watch", "Bad",
          {.Guard = "fin_pulse >= 1 && is_failed[g] == 0 && "
                    "x >= wcet + 1"});
  TB.edge("Watch", "Bad", {.Guard = "fin_pulse >= 2"});
  // R3: output broadcast while the job is still marked ready.
  TB.edge("Watch", "Bad", {.Guard = "is_ready[g] == 1",
                           .Sync = "send[g]?"});
  return TB.build();
}

/// Delay observer for the virtual-link harness: times the head-of-queue
/// transfer with its own clock.
Result<std::unique_ptr<sa::Template>>
buildLinkObserver(const usl::Declarations &Globals) {
  TemplateBuilder TB("LinkObserver", Globals);
  TB.params("int src, int link, int delay");
  TB.decls("clock x;");
  TB.location("Idle")
      .location("Timing")
      .location("Bad")
      .initial("Idle");
  TB.edge("Idle", "Timing", {.Sync = "send[src]?", .Update = "x = 0"});
  TB.edge("Timing", "Timing", {.Sync = "send[src]?"});
  TB.edge("Timing", "Bad",
          {.Guard = "x <= delay - 1", .Sync = "deliver[link]?",
           .Update = "inflight = 0"});
  TB.edge("Timing", "Bad",
          {.Guard = "x >= delay + 1", .Sync = "deliver[link]?",
           .Update = "inflight = 0"});
  TB.edge("Timing", "Idle",
          {.Guard = "x >= delay && x <= delay",
           .Sync = "deliver[link]?", .Update = "inflight = 0"});
  return TB.build();
}

/// A deliberately broken FPPS scheduler: dispatches the best ready job
/// without preempting the current one first (violates R1).
Result<std::unique_ptr<sa::Template>>
buildBrokenFpps(const usl::Declarations &Globals) {
  TemplateBuilder TB("BrokenFpps", Globals);
  TB.params("int part, int off, int nt");
  TB.decls("int pick() {\n"
           "  int best = -1; int bp = 0;\n"
           "  for (int i = 0; i < nt; i++) {\n"
           "    int g = off + i;\n"
           "    if (is_ready[g] == 1 && running[g] == 0) {\n"
           "      if (best == -1 || prio[g] > bp) { best = g; "
           "bp = prio[g]; }\n"
           "    }\n"
           "  }\n"
           "  return best;\n"
           "}\n");
  TB.location("Asleep")
      .location("Awake")
      .committed("Decide")
      .initial("Asleep");
  TB.edge("Asleep", "Decide", {.Sync = "wakeup[part]?"});
  TB.edge("Asleep", "Asleep", {.Sync = "ready[part]?"});
  TB.edge("Asleep", "Asleep", {.Sync = "finished[part]?"});
  TB.edge("Awake", "Decide", {.Sync = "ready[part]?"});
  TB.edge("Awake", "Decide", {.Sync = "finished[part]?"});
  TB.edge("Awake", "Asleep", {.Sync = "sleep[part]?"});
  TB.edge("Decide", "Decide", {.Sync = "ready[part]?"});
  TB.edge("Decide", "Decide", {.Sync = "finished[part]?"});
  TB.edge("Decide", "Awake", {.Guard = "pick() == -1"});
  // BUG: dispatches without preempting whatever is already running.
  TB.edge("Decide", "Awake",
          {.Guard = "pick() != -1", .Sync = "exec[pick()]!"});
  TB.readRange("is_ready", "off", "nt");
  TB.readRange("prio", "off", "nt");
  TB.readRange("running", "off", "nt");
  return TB.build();
}

/// Common plumbing: globals + library against them.
struct HarnessContext {
  sa::NetworkBuilder NB;
  std::unique_ptr<models::ModelLibrary> Lib;
};

Result<std::unique_ptr<HarnessContext>> makeContext(int NT, int NP,
                                                    int NL) {
  auto Ctx = std::make_unique<HarnessContext>();
  if (Error E = Ctx->NB.addGlobals(models::globalDeclsSource(NT, NP, NL)))
    return E;
  if (Error E = Ctx->NB.addGlobals(harnessDecls()))
    return E;
  Result<std::unique_ptr<models::ModelLibrary>> Lib =
      models::ModelLibrary::create(Ctx->NB.globalDecls());
  if (!Lib.ok())
    return Lib.takeError();
  Ctx->Lib = Lib.takeValue();
  return Ctx;
}

Result<HarnessRun> runHarness(std::unique_ptr<sa::Network> Net,
                              int64_t Horizon,
                              const mc::ModelChecker::StatePredicate &Bad) {
  Net->Meta["horizon"] = Horizon;
  mc::ModelChecker MC(*Net);
  mc::McOptions Opts;
  Opts.MaxStates = 10000000;
  Opts.RecordWitness = true; // Violations come with a counterexample.
  HarnessRun Run;
  Run.Mc = MC.explore(Opts, Bad);
  if (!Run.Mc.ok())
    return Error::failure("model checking failed: " + Run.Mc.Error);
  Run.Holds = !Run.Mc.PropertyViolated;
  return Run;
}

/// Builds the scheduler harness (real or broken TS + 2 driver tasks +
/// window driver + ticker) and explores it with \p Bad.
Result<HarnessRun>
runSchedulerHarness(const sa::Template *TsOverride,
                    cfg::SchedulerKind Kind, int Ticks,
                    const char *BadExprKind) {
  Result<std::unique_ptr<HarnessContext>> Ctx = makeContext(2, 1, 0);
  if (!Ctx.ok())
    return Ctx.takeError();
  sa::NetworkBuilder &NB = (*Ctx)->NB;

  const sa::Template &TS =
      TsOverride ? *TsOverride : (*Ctx)->Lib->scheduler(Kind);
  if (auto R = NB.addInstance(TS, "ts",
                              {{"part", {0}}, {"off", {0}}, {"nt", {2}}});
      !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Template>> Driver =
      buildSchedDriverTask(NB.globalDecls());
  if (!Driver.ok())
    return Driver.takeError();
  for (int64_t G = 0; G < 2; ++G)
    if (auto R = NB.addInstance(
            **Driver, formatString("drv%lld", static_cast<long long>(G)),
            {{"g", {G}}, {"p", {0}}, {"myprio", {G + 1}}});
        !R.ok())
      return R.takeError();

  Result<std::unique_ptr<sa::Template>> Window =
      buildWindowDriver(NB.globalDecls());
  if (!Window.ok())
    return Window.takeError();
  if (auto R = NB.addInstance(**Window, "win", {{"p", {0}}}); !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Template>> WinObs =
      buildWindowObserver(NB.globalDecls());
  if (!WinObs.ok())
    return WinObs.takeError();
  Result<sa::Automaton *> WinObsInst =
      NB.addInstance(**WinObs, "winobs", {});
  if (!WinObsInst.ok())
    return WinObsInst.takeError();
  int ViolClock = (*WinObsInst)->Clocks[0];

  Result<std::unique_ptr<sa::Template>> Ticker =
      buildTicker(NB.globalDecls());
  if (!Ticker.ok())
    return Ticker.takeError();
  if (auto R = NB.addInstance(**Ticker, "ticker",
                              {{"hticks", {Ticks}}});
      !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  if (!Net.ok())
    return Net.takeError();

  int RunBase = (*Net)->slotOf("running");
  mc::ModelChecker::StatePredicate Bad;
  if (std::string(BadExprKind) == "double-exec") {
    Bad = [RunBase](const nsa::Exec &, const nsa::State &S) {
      return S.Store[static_cast<size_t>(RunBase)] +
                 S.Store[static_cast<size_t>(RunBase) + 1] >=
             2;
    };
  } else { // Window confinement: positive out-of-window execution time.
    Bad = [ViolClock](const nsa::Exec &, const nsa::State &S) {
      return S.clock(static_cast<size_t>(ViolClock)) > 0;
    };
  }
  return runHarness(Net.takeValue(), Ticks, Bad);
}

/// Builds the task harness (real Task + scheduler driver + optional data
/// driver + stopwatch observer + ticker).
struct TaskHarness {
  std::unique_ptr<sa::Network> Net;
  int ObserverIndex = -1;
  int LateClock = -1;
};

Result<TaskHarness> buildTaskHarness(int64_t Wcet, int64_t Deadline,
                                     int Ticks, bool WithInputLink) {
  Result<std::unique_ptr<HarnessContext>> Ctx = makeContext(1, 1, 1);
  if (!Ctx.ok())
    return Ctx.takeError();
  sa::NetworkBuilder &NB = (*Ctx)->NB;

  int64_t Period = Ticks + 10; // Single job within the harness horizon.
  std::vector<int64_t> InLinks = {0};
  if (auto R = NB.addInstance(
          (*Ctx)->Lib->task(), "task",
          {{"gid", {0}},
           {"part", {0}},
           {"wcet", {Wcet}},
           {"period", {Period}},
           {"deadline", {Deadline}},
           {"priority", {1}},
           {"n_in", {WithInputLink ? 1 : 0}},
           {"in_links", InLinks}});
      !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Template>> Sched =
      buildTaskDriverSched(NB.globalDecls());
  if (!Sched.ok())
    return Sched.takeError();
  if (auto R = NB.addInstance(**Sched, "sched", {{"g", {0}}, {"p", {0}}});
      !R.ok())
    return R.takeError();

  if (WithInputLink) {
    Result<std::unique_ptr<sa::Template>> Data =
        buildDataDriver(NB.globalDecls());
    if (!Data.ok())
      return Data.takeError();
    if (auto R = NB.addInstance(**Data, "data", {}); !R.ok())
      return R.takeError();
  }

  Result<std::unique_ptr<sa::Template>> Obs =
      buildTaskObserver(NB.globalDecls());
  if (!Obs.ok())
    return Obs.takeError();
  Result<sa::Automaton *> ObsInst = NB.addInstance(
      **Obs, "observer",
      {{"g", {0}}, {"wcet", {Wcet}}, {"deadline", {Deadline}}});
  if (!ObsInst.ok())
    return ObsInst.takeError();
  int LateClock = (*ObsInst)->Clocks[1]; // "late" is the second clock.

  Result<std::unique_ptr<sa::Template>> Ticker =
      buildTicker(NB.globalDecls());
  if (!Ticker.ok())
    return Ticker.takeError();
  if (auto R = NB.addInstance(**Ticker, "ticker",
                              {{"hticks", {Ticks}}});
      !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  if (!Net.ok())
    return Net.takeError();

  TaskHarness H;
  H.Net = Net.takeValue();
  H.LateClock = LateClock;
  for (size_t A = 0; A < H.Net->Automata.size(); ++A)
    if (H.Net->Automata[A]->Name == "observer")
      H.ObserverIndex = static_cast<int>(A);
  return H;
}

} // namespace

Result<HarnessRun>
swa::verify::verifyTsSingleExecution(cfg::SchedulerKind Kind, int Ticks) {
  return runSchedulerHarness(nullptr, Kind, Ticks, "double-exec");
}

Result<HarnessRun>
swa::verify::verifyTsWindowConfinement(cfg::SchedulerKind Kind,
                                       int Ticks) {
  return runSchedulerHarness(nullptr, Kind, Ticks, "window");
}

Result<HarnessRun> swa::verify::verifyBrokenTsIsCaught(int Ticks) {
  // Build the broken scheduler against a throwaway context first to get
  // matching globals; runSchedulerHarness needs the template compiled
  // against ITS globals, so compile inside a custom run.
  Result<std::unique_ptr<HarnessContext>> Ctx = makeContext(2, 1, 0);
  if (!Ctx.ok())
    return Ctx.takeError();
  Result<std::unique_ptr<sa::Template>> Broken =
      buildBrokenFpps((*Ctx)->NB.globalDecls());
  if (!Broken.ok())
    return Broken.takeError();

  sa::NetworkBuilder &NB = (*Ctx)->NB;
  if (auto R = NB.addInstance(**Broken, "ts",
                              {{"part", {0}}, {"off", {0}}, {"nt", {2}}});
      !R.ok())
    return R.takeError();
  Result<std::unique_ptr<sa::Template>> Driver =
      buildSchedDriverTask(NB.globalDecls());
  if (!Driver.ok())
    return Driver.takeError();
  for (int64_t G = 0; G < 2; ++G)
    if (auto R = NB.addInstance(
            **Driver, formatString("drv%lld", static_cast<long long>(G)),
            {{"g", {G}}, {"p", {0}}, {"myprio", {G + 1}}});
        !R.ok())
      return R.takeError();
  Result<std::unique_ptr<sa::Template>> Window =
      buildWindowDriver(NB.globalDecls());
  if (!Window.ok())
    return Window.takeError();
  if (auto R = NB.addInstance(**Window, "win", {{"p", {0}}}); !R.ok())
    return R.takeError();
  Result<std::unique_ptr<sa::Template>> Ticker =
      buildTicker(NB.globalDecls());
  if (!Ticker.ok())
    return Ticker.takeError();
  if (auto R = NB.addInstance(**Ticker, "ticker",
                              {{"hticks", {Ticks}}});
      !R.ok())
    return R.takeError();
  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  if (!Net.ok())
    return Net.takeError();
  int RunBase = (*Net)->slotOf("running");
  return runHarness(
      Net.takeValue(), Ticks,
      [RunBase](const nsa::Exec &, const nsa::State &S) {
        return S.Store[static_cast<size_t>(RunBase)] +
                   S.Store[static_cast<size_t>(RunBase) + 1] >=
               2;
      });
}

Result<HarnessRun> swa::verify::verifyTaskWcet(int64_t Wcet,
                                               int64_t Deadline,
                                               int Ticks) {
  Result<TaskHarness> H =
      buildTaskHarness(Wcet, Deadline, Ticks, /*WithInputLink=*/false);
  if (!H.ok())
    return H.takeError();
  int Obs = H->ObserverIndex;
  auto Bad = [Obs](const nsa::Exec &, const nsa::State &S) {
    return S.Locs[static_cast<size_t>(Obs)] == 1; // "Bad" location.
  };
  return runHarness(std::move(H->Net), Ticks, Bad);
}

Result<HarnessRun>
swa::verify::verifyTaskNoLateExecution(int64_t Wcet, int64_t Deadline,
                                       int Ticks) {
  Result<TaskHarness> H =
      buildTaskHarness(Wcet, Deadline, Ticks, /*WithInputLink=*/false);
  if (!H.ok())
    return H.takeError();
  int Late = H->LateClock;
  auto Bad = [Late](const nsa::Exec &, const nsa::State &S) {
    return S.clock(static_cast<size_t>(Late)) > 0;
  };
  return runHarness(std::move(H->Net), Ticks, Bad);
}

Result<HarnessRun>
swa::verify::verifyTaskSendsAfterCompletion(int64_t Wcet, int64_t Deadline,
                                            int Ticks) {
  // Covered by the observer's send-while-ready edge: same Bad location.
  return verifyTaskWcet(Wcet, Deadline, Ticks);
}

Result<HarnessRun> swa::verify::verifyTaskWaitsForData(int64_t Wcet,
                                                       int64_t Deadline,
                                                       int Ticks) {
  Result<TaskHarness> H =
      buildTaskHarness(Wcet, Deadline, Ticks, /*WithInputLink=*/true);
  if (!H.ok())
    return H.takeError();
  int ReadySlot = H->Net->slotOf("is_ready");
  int DataSlot = H->Net->slotOf("is_data_ready");
  auto Bad = [ReadySlot, DataSlot](const nsa::Exec &,
                                   const nsa::State &S) {
    return S.Store[static_cast<size_t>(ReadySlot)] == 1 &&
           S.Store[static_cast<size_t>(DataSlot)] < 1;
  };
  return runHarness(std::move(H->Net), Ticks, Bad);
}

Result<HarnessRun> swa::verify::verifyLinkExactDelay(int64_t Delay,
                                                     int Ticks) {
  Result<std::unique_ptr<HarnessContext>> Ctx = makeContext(1, 1, 1);
  if (!Ctx.ok())
    return Ctx.takeError();
  sa::NetworkBuilder &NB = (*Ctx)->NB;

  if (auto R = NB.addInstance(
          (*Ctx)->Lib->virtualLink(), "link",
          {{"link", {0}}, {"src", {0}}, {"delay", {Delay}}});
      !R.ok())
    return R.takeError();

  // Sender driver: broadcast send[0]! at nondeterministic ticks, one
  // message in flight at a time so the observer's send/deliver pairing is
  // unambiguous (queueing behavior is covered by unit tests).
  TemplateBuilder SB("DriverSender", NB.globalDecls());
  SB.location("Idle").committed("Choose").initial("Idle");
  SB.edge("Idle", "Choose", {.Sync = "tick?"});
  SB.edge("Choose", "Idle", {});
  SB.edge("Choose", "Idle", {.Guard = "inflight == 0", .Sync = "send[0]!",
                             .Update = "inflight = 1"});
  Result<std::unique_ptr<sa::Template>> Sender = SB.build();
  if (!Sender.ok())
    return Sender.takeError();
  if (auto R = NB.addInstance(**Sender, "sender", {}); !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Template>> Obs =
      buildLinkObserver(NB.globalDecls());
  if (!Obs.ok())
    return Obs.takeError();
  Result<sa::Automaton *> ObsInst = NB.addInstance(
      **Obs, "observer",
      {{"src", {0}}, {"link", {0}}, {"delay", {Delay}}});
  if (!ObsInst.ok())
    return ObsInst.takeError();

  Result<std::unique_ptr<sa::Template>> Ticker =
      buildTicker(NB.globalDecls());
  if (!Ticker.ok())
    return Ticker.takeError();
  if (auto R = NB.addInstance(**Ticker, "ticker",
                              {{"hticks", {Ticks}}});
      !R.ok())
    return R.takeError();

  Result<std::unique_ptr<sa::Network>> Net = NB.finish();
  if (!Net.ok())
    return Net.takeError();

  int Obs2 = -1;
  for (size_t A = 0; A < (*Net)->Automata.size(); ++A)
    if ((*Net)->Automata[A]->Name == "observer")
      Obs2 = static_cast<int>(A);
  auto Bad = [Obs2](const nsa::Exec &, const nsa::State &S) {
    return S.Locs[static_cast<size_t>(Obs2)] == 2; // "Bad" location.
  };
  return runHarness(Net.takeValue(), Ticks + Delay + 2, Bad);
}

Result<std::vector<VerificationOutcome>>
swa::verify::verifyComponentLibrary(int Ticks) {
  std::vector<VerificationOutcome> Out;
  auto Add = [&Out](const std::string &Id, const std::string &Desc,
                    Result<HarnessRun> Run) -> Error {
    if (!Run.ok())
      return Run.takeError().withContext(Id);
    Out.push_back({Id, Desc, Run->Holds, Run->Mc.StatesExplored,
                   Run->Mc.TransitionsExplored});
    return Error::success();
  };

  for (cfg::SchedulerKind K :
       {cfg::SchedulerKind::FPPS, cfg::SchedulerKind::FPNPS,
        cfg::SchedulerKind::EDF}) {
    std::string Name = cfg::schedulerKindName(K);
    if (Error E = Add("R1/" + Name,
                      "at most one executing job per partition",
                      verifyTsSingleExecution(K, Ticks)))
      return E;
    if (Error E = Add("R6/" + Name, "execution confined to windows",
                      verifyTsWindowConfinement(K, Ticks)))
      return E;
  }
  for (int64_t Wcet : {1, 2, 3}) {
    int64_t Deadline = Wcet + 3;
    std::string Suffix = formatString("/C%lld", static_cast<long long>(Wcet));
    if (Error E = Add("R2" + Suffix, "completion after exactly WCET",
                      verifyTaskWcet(Wcet, Deadline, Ticks)))
      return E;
    if (Error E = Add("R7" + Suffix, "no execution after the deadline",
                      verifyTaskNoLateExecution(Wcet, Deadline, Ticks)))
      return E;
  }
  if (Error E = Add("R3", "data sent only after completion",
                    verifyTaskSendsAfterCompletion(2, 5, Ticks)))
    return E;
  if (Error E = Add("R5", "no readiness before input data",
                    verifyTaskWaitsForData(2, 5, Ticks)))
    return E;
  for (int64_t Delay : {0, 1, 3}) {
    if (Error E = Add(formatString("R4/d%lld",
                                   static_cast<long long>(Delay)),
                      "delivery exactly at the worst-case delay",
                      verifyLinkExactDelay(Delay, 5)))
      return E;
  }
  return Out;
}
