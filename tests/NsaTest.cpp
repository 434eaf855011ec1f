//===- tests/NsaTest.cpp - NSA engine unit tests ---------------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "nsa/Simulator.h"
#include "sa/NetworkBuilder.h"
#include "sa/Template.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::sa;
using namespace swa::nsa;

namespace {

Result<std::unique_ptr<Network>>
buildTicker(int64_t Period, int64_t Horizon) {
  NetworkBuilder NB;
  Error E = NB.addGlobals("int count = 0; broadcast chan tick;");
  if (E)
    return E;
  TemplateBuilder TB("Ticker", NB.globalDecls());
  TB.params("int period")
      .decls("clock x;")
      .location("Wait", "x <= period")
      .initial("Wait")
      .edge("Wait", "Wait",
            {.Guard = "x >= period", .Sync = "tick!",
             .Update = "count = count + 1, x = 0"});
  auto T = TB.build();
  if (!T.ok())
    return T.takeError();
  auto A = NB.addInstance(**T, "ticker", {{"period", {Period}}});
  if (!A.ok())
    return A.takeError();
  auto Net = NB.finish();
  if (!Net.ok())
    return Net;
  (*Net)->Meta["horizon"] = Horizon;
  return Net;
}

} // namespace

TEST(Simulator, PeriodicTicker) {
  auto Net = buildTicker(10, 100);
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.HorizonReached);
  // Ticks at t = 10, 20, ..., 100: the horizon instant itself still fires
  // (deadline events at the hyperperiod boundary belong to the window).
  ASSERT_EQ(R.Events.size(), 10u);
  EXPECT_EQ(R.Events.front().Time, 10);
  EXPECT_EQ(R.Events.back().Time, 100);
  int Slot = (*Net)->slotOf("count");
  ASSERT_GE(Slot, 0);
  EXPECT_EQ(R.Final.Store[static_cast<size_t>(Slot)], 10);
  EXPECT_EQ(R.Final.Now, 100);
}

TEST(Simulator, BinaryRendezvousTransfersData) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int sent = 0; int got = 0; chan handoff;")
                   .isFailure());

  TemplateBuilder PB("Producer", NB.globalDecls());
  PB.decls("clock x;")
      .location("Idle", "x <= 5")
      .location("Done")
      .initial("Idle")
      .edge("Idle", "Done",
            {.Guard = "x >= 5", .Sync = "handoff!", .Update = "sent = 42"});
  auto Prod = PB.build();
  ASSERT_TRUE(Prod.ok()) << Prod.error().message();

  TemplateBuilder CB("Consumer", NB.globalDecls());
  CB.location("Wait").location("Got").initial("Wait").edge(
      "Wait", "Got", {.Sync = "handoff?", .Update = "got = sent + 1"});
  auto Cons = CB.build();
  ASSERT_TRUE(Cons.ok()) << Cons.error().message();

  ASSERT_TRUE(NB.addInstance(**Prod, "p", {}).ok());
  ASSERT_TRUE(NB.addInstance(**Cons, "c", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 100;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Events.size(), 1u);
  EXPECT_EQ(R.Events[0].Time, 5);
  ASSERT_EQ(R.Events[0].Receivers.size(), 1u);
  // Sender update runs before receiver update.
  EXPECT_EQ(R.Final.Store[static_cast<size_t>((*Net)->slotOf("got"))], 43);
}

TEST(Simulator, BinarySendBlocksWithoutPartner) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("chan never;").isFailure());
  TemplateBuilder TB("Lonely", NB.globalDecls());
  TB.location("A").location("B").initial("A").edge("A", "B",
                                                   {.Sync = "never!"});
  auto T = TB.build();
  ASSERT_TRUE(T.ok()) << T.error().message();
  ASSERT_TRUE(NB.addInstance(**T, "l", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 10;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Events.empty());
  EXPECT_EQ(R.Final.Locs[0], 0); // Still in A.
}

TEST(Simulator, BroadcastReachesAllEnabledReceivers) {
  NetworkBuilder NB;
  ASSERT_FALSE(
      NB.addGlobals("int hits = 0; broadcast chan flash;").isFailure());

  TemplateBuilder SB("Source", NB.globalDecls());
  SB.decls("clock x;")
      .location("S", "x <= 3")
      .location("T")
      .initial("S")
      .edge("S", "T", {.Guard = "x >= 3", .Sync = "flash!"});
  auto Src = SB.build();
  ASSERT_TRUE(Src.ok()) << Src.error().message();

  TemplateBuilder RB("Sink", NB.globalDecls());
  RB.params("int armed")
      .location("W")
      .location("H")
      .initial("W")
      .edge("W", "H",
            {.Guard = "armed == 1", .Sync = "flash?",
             .Update = "hits = hits + 1"});
  auto Sink = RB.build();
  ASSERT_TRUE(Sink.ok()) << Sink.error().message();

  ASSERT_TRUE(NB.addInstance(**Src, "src", {}).ok());
  ASSERT_TRUE(NB.addInstance(**Sink, "s1", {{"armed", {1}}}).ok());
  ASSERT_TRUE(NB.addInstance(**Sink, "s2", {{"armed", {0}}}).ok());
  ASSERT_TRUE(NB.addInstance(**Sink, "s3", {{"armed", {1}}}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 10;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Events.size(), 1u);
  EXPECT_EQ(R.Events[0].Receivers.size(), 2u); // s2 is not armed.
  EXPECT_EQ(R.Final.Store[static_cast<size_t>((*Net)->slotOf("hits"))], 2);
}

TEST(Simulator, StopwatchAccumulatesOnlyWhileRunning) {
  // A "job" runs 3 ticks, is preempted for 4 ticks, then runs 2 more; its
  // execution stopwatch must read 5 at completion time 9.
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int running = 1; int done_at = -1;"
                             "int exec_val = -1;")
                   .isFailure());

  TemplateBuilder JB("Job", NB.globalDecls());
  JB.decls("clock e; clock t;")
      .location("Run", "e <= 5 && e' == running")
      .location("Done")
      .initial("Run")
      .edge("Run", "Done",
            {.Guard = "e >= 5", .Update = "done_at = 1"});
  auto Job = JB.build();
  ASSERT_TRUE(Job.ok()) << Job.error().message();

  // A controller automaton toggles `running` off at t=3 and on at t=7.
  TemplateBuilder CB("Ctl", NB.globalDecls());
  CB.decls("clock c;")
      .location("Phase1", "c <= 3")
      .location("Phase2", "c <= 7")
      .location("End")
      .initial("Phase1")
      .edge("Phase1", "Phase2", {.Guard = "c >= 3", .Update = "running = 0"})
      .edge("Phase2", "End", {.Guard = "c >= 7", .Update = "running = 1"});
  auto Ctl = CB.build();
  ASSERT_TRUE(Ctl.ok()) << Ctl.error().message();

  ASSERT_TRUE(NB.addInstance(**Job, "job", {}).ok());
  ASSERT_TRUE(NB.addInstance(**Ctl, "ctl", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 50;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  // e runs in [0,3] (3 ticks), stops in [3,7], runs in [7,9] (2 ticks).
  // The job completes when e reaches 5, i.e. at model time 9.
  int DoneSlot = (*Net)->slotOf("done_at");
  EXPECT_EQ(R.Final.Store[static_cast<size_t>(DoneSlot)], 1);
  // Clock t ran unrestricted since 0; at completion the state kept
  // evolving until the horizon, so check via the final clock delta:
  // e stopped counting after Done (no rate condition there, it runs), so
  // instead verify through location history: job must be in Done.
  EXPECT_EQ(R.Final.Locs[0], 1);
}

TEST(Simulator, CommittedLocationsRunFirstAndSuppressDelay) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int order[4]; int n = 0;").isFailure());

  // An initializer chain through two committed locations must complete at
  // time 0 before the clock-driven automaton can act.
  TemplateBuilder IB("Init", NB.globalDecls());
  IB.committed("C0")
      .committed("C1")
      .location("Rest")
      .initial("C0")
      .edge("C0", "C1", {.Update = "order[n] = 1, n = n + 1"})
      .edge("C1", "Rest", {.Update = "order[n] = 2, n = n + 1"});
  auto Init = IB.build();
  ASSERT_TRUE(Init.ok()) << Init.error().message();

  TemplateBuilder WB("Worker", NB.globalDecls());
  WB.decls("clock x;")
      .location("W") // No invariant: can idle forever.
      .location("D")
      .initial("W")
      .edge("W", "D", {.Guard = "x >= 0", .Update = "order[n] = 3, n = n + 1"});
  auto Work = WB.build();
  ASSERT_TRUE(Work.ok()) << Work.error().message();

  // Add the worker FIRST so naive index order would run it before the
  // committed chain; committed semantics must win.
  ASSERT_TRUE(NB.addInstance(**Work, "w", {}).ok());
  ASSERT_TRUE(NB.addInstance(**Init, "i", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 5;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  int Base = (*Net)->slotOf("order");
  EXPECT_EQ(R.Final.Store[static_cast<size_t>(Base) + 0], 1);
  EXPECT_EQ(R.Final.Store[static_cast<size_t>(Base) + 1], 2);
  EXPECT_EQ(R.Final.Store[static_cast<size_t>(Base) + 2], 3);
}

TEST(Simulator, SelectChoosesLowestDeterministically) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int picked = -1;").isFailure());
  TemplateBuilder TB("Picker", NB.globalDecls());
  TB.location("A").location("B").initial("A").edge(
      "A", "B", {.Select = "i : int[2, 9]", .Guard = "i % 3 == 0",
                 .Update = "picked = i"});
  auto T = TB.build();
  ASSERT_TRUE(T.ok()) << T.error().message();
  ASSERT_TRUE(NB.addInstance(**T, "p", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 1;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Final.Store[static_cast<size_t>((*Net)->slotOf("picked"))],
            3);
}

TEST(Simulator, QuiescentNetworkTerminates) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int x;").isFailure());
  TemplateBuilder TB("Still", NB.globalDecls());
  TB.location("Only").initial("Only");
  auto T = TB.build();
  ASSERT_TRUE(T.ok());
  ASSERT_TRUE(NB.addInstance(**T, "s", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  // No horizon: the network has no pending clock bound, so the run reports
  // quiescence rather than spinning.
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Quiescent);
}

TEST(Simulator, VariableWatcherWakesBlockedAutomaton) {
  // B waits on a data guard that only A's update can satisfy; no channels
  // involved, so the wake must come from the store watch list.
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int gate = 0; int seen_at = -1;")
                   .isFailure());

  TemplateBuilder AB("Opener", NB.globalDecls());
  AB.decls("clock x;")
      .location("Wait", "x <= 7")
      .location("Done")
      .initial("Wait")
      .edge("Wait", "Done", {.Guard = "x >= 7", .Update = "gate = 1"});
  auto A = AB.build();
  ASSERT_TRUE(A.ok()) << A.error().message();

  TemplateBuilder BB("Watcher", NB.globalDecls());
  BB.decls("clock y;")
      .location("Blocked")
      .location("Through")
      .initial("Blocked")
      .edge("Blocked", "Through",
            {.Guard = "gate == 1", .Update = "seen_at = 1"});
  auto B = BB.build();
  ASSERT_TRUE(B.ok()) << B.error().message();

  ASSERT_TRUE(NB.addInstance(**B, "b", {}).ok());
  ASSERT_TRUE(NB.addInstance(**A, "a", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok());
  (*Net)->Meta["horizon"] = 20;

  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Final.Locs[0], 1); // b reached Through.
  EXPECT_EQ(
      R.Final.Store[static_cast<size_t>((*Net)->slotOf("seen_at"))], 1);
}

TEST(Simulator, RandomizedOrderYieldsEquivalentTraces) {
  // Several independent tickers firing at the same instants: any
  // interleaving must produce the same set of synchronization events.
  auto Build = []() {
    NetworkBuilder NB;
    EXPECT_FALSE(
        NB.addGlobals("int c0; int c1; int c2; broadcast chan t0;"
                      "broadcast chan t1; broadcast chan t2;")
            .isFailure());
    for (int I = 0; I < 3; ++I) {
      TemplateBuilder TB("Tk" + std::to_string(I), NB.globalDecls());
      std::string Chan = "t" + std::to_string(I);
      std::string Cnt = "c" + std::to_string(I);
      TB.params("int period")
          .decls("clock x;")
          .location("W", "x <= period")
          .initial("W")
          .edge("W", "W",
                {.Guard = "x >= period", .Sync = Chan + "!",
                 .Update = Cnt + " = " + Cnt + " + 1, x = 0"});
      auto T = TB.build();
      EXPECT_TRUE(T.ok()) << T.error().message();
      EXPECT_TRUE(
          NB.addInstance(**T, "tk" + std::to_string(I), {{"period", {4}}})
              .ok());
    }
    auto Net = NB.finish();
    EXPECT_TRUE(Net.ok());
    (*Net)->Meta["horizon"] = 40;
    return Net.takeValue();
  };

  auto Reference = Build();
  Simulator RefSim(*Reference);
  SimResult RefRun = RefSim.run();
  ASSERT_TRUE(RefRun.ok()) << RefRun.Error;
  ASSERT_FALSE(RefRun.Events.empty());

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto Net = Build();
    Simulator Sim(*Net);
    Rng R(Seed);
    SimOptions Opts;
    Opts.RandomOrder = &R;
    SimResult Run = Sim.run(Opts);
    ASSERT_TRUE(Run.ok()) << Run.Error;
    EXPECT_TRUE(syncTracesEqual(RefRun.Events, Run.Events))
        << "seed " << Seed;
  }
}

TEST(Simulator, ResetRerunIsByteIdentical) {
  // One Simulator, run repeatedly: every rerun must reproduce the first
  // run exactly — same events field by field, same counters, same final
  // state. This is what lets the config search reuse a simulator (and its
  // allocations) across candidate evaluations.
  auto Net = buildTicker(7, 70);
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  Simulator Sim(**Net);
  SimResult First = Sim.run();
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_FALSE(First.Events.empty());

  for (int Rerun = 0; Rerun < 3; ++Rerun) {
    SimResult Again = Sim.run();
    ASSERT_TRUE(Again.ok()) << Again.Error;
    EXPECT_EQ(Again.ActionCount, First.ActionCount);
    EXPECT_EQ(Again.DelayCount, First.DelayCount);
    EXPECT_EQ(Again.HorizonReached, First.HorizonReached);
    EXPECT_EQ(Again.Quiescent, First.Quiescent);
    ASSERT_EQ(Again.Events.size(), First.Events.size());
    for (size_t I = 0; I < First.Events.size(); ++I) {
      const Event &A = First.Events[I];
      const Event &B = Again.Events[I];
      EXPECT_EQ(A.Time, B.Time) << "event " << I;
      EXPECT_EQ(A.Channel, B.Channel) << "event " << I;
      EXPECT_EQ(A.Initiator.Automaton, B.Initiator.Automaton);
      EXPECT_EQ(A.Initiator.Edge, B.Initiator.Edge);
      ASSERT_EQ(A.Receivers.size(), B.Receivers.size());
      for (size_t RI = 0; RI < A.Receivers.size(); ++RI) {
        EXPECT_EQ(A.Receivers[RI].Automaton, B.Receivers[RI].Automaton);
        EXPECT_EQ(A.Receivers[RI].Edge, B.Receivers[RI].Edge);
      }
    }
    EXPECT_EQ(Again.Final.Now, First.Final.Now);
    EXPECT_EQ(Again.Final.Locs, First.Final.Locs);
    EXPECT_EQ(Again.Final.Clocks, First.Final.Clocks);
    EXPECT_EQ(Again.Final.Store, First.Final.Store);
  }
}

TEST(Simulator, RecordTraceOffSkipsEventsOnly) {
  // Turning trace recording off must change nothing but Events: same
  // action/delay counts and the same final state.
  auto Net = buildTicker(7, 70);
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  Simulator Sim(**Net);
  SimResult Full = Sim.run();
  ASSERT_TRUE(Full.ok()) << Full.Error;

  SimOptions NoTrace;
  NoTrace.RecordTrace = false;
  SimResult Bare = Sim.run(NoTrace);
  ASSERT_TRUE(Bare.ok()) << Bare.Error;
  EXPECT_TRUE(Bare.Events.empty());
  EXPECT_EQ(Bare.ActionCount, Full.ActionCount);
  EXPECT_EQ(Bare.DelayCount, Full.DelayCount);
  EXPECT_EQ(Bare.Final.Now, Full.Final.Now);
  EXPECT_EQ(Bare.Final.Locs, Full.Final.Locs);
  EXPECT_EQ(Bare.Final.Clocks, Full.Final.Clocks);
  EXPECT_EQ(Bare.Final.Store, Full.Final.Store);
}

//===----------------------------------------------------------------------===//
// Stopwatch encoding
//===----------------------------------------------------------------------===//

TEST(StopwatchEncoding, EqualValuesCompareAndHashEqual) {
  // Clock 0 reads 6 in both states: A stores the origin of a running
  // clock, B the value of a stopped one.
  State A;
  A.Now = 10;
  A.Locs = {0};
  A.Clocks = {4, 2};
  A.Running = {1, 0};
  A.Store = {7};
  State B = A;
  B.Clocks = {6, 2};
  B.Running = {0, 0};
  EXPECT_EQ(A.clock(0), 6);
  EXPECT_EQ(B.clock(0), 6);
  EXPECT_TRUE(A == B);
  EXPECT_EQ(StateHash()(A), StateHash()(B));

  B.Clocks[0] = 5; // Now the values differ.
  EXPECT_FALSE(A == B);
  EXPECT_NE(StateHash()(A), StateHash()(B));
}

TEST(StopwatchEncoding, StopRestartResetReadsRightValues) {
  // One automaton moves by hand between a location where its clock runs,
  // one where it stands, and one where a variable decides.
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int on = 0;").isFailure());
  TemplateBuilder TB("W", NB.globalDecls());
  TB.decls("clock e;")
      .location("Run")
      .location("Stop", "e' == 0")
      .location("Dyn", "e' == on")
      .initial("Run")
      .edge("Run", "Stop", {})                     // Edge 0.
      .edge("Stop", "Run", {})                     // Edge 1.
      .edge("Run", "Run", {.Update = "e = 0"})     // Edge 2.
      .edge("Run", "Dyn", {})                      // Edge 3.
      .edge("Stop", "Stop", {.Update = "e = 0"}); // Edge 4.
  auto T = TB.build();
  ASSERT_TRUE(T.ok()) << T.error().message();
  ASSERT_TRUE(NB.addInstance(**T, "w", {}).ok());
  auto Net = NB.finish();
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  const size_t On = static_cast<size_t>((*Net)->slotOf("on"));

  Exec Ex(**Net);
  State S;
  Ex.initState(S);
  auto Take = [&](int Edge) {
    Step St;
    St.InitiatorAut = 0;
    St.Initiator.Edge = Edge;
    ASSERT_TRUE(Ex.applyStep(S, St));
  };

  Ex.advanceTime(S, 3);
  EXPECT_EQ(S.clock(0), 3); // Ran [0,3).
  Take(0);
  Ex.advanceTime(S, 4);
  EXPECT_EQ(S.clock(0), 3); // Stood still [3,7).
  Take(1);
  Ex.advanceTime(S, 2);
  EXPECT_EQ(S.clock(0), 5); // Ran again [7,9).
  Take(2);
  EXPECT_EQ(S.clock(0), 0); // Reset while running.
  Ex.advanceTime(S, 1);
  EXPECT_EQ(S.clock(0), 1);
  Take(0);
  Take(4);
  Ex.advanceTime(S, 5);
  EXPECT_EQ(S.clock(0), 0); // Reset while stopped: stays 0.
  Take(1);
  Take(3);
  Ex.advanceTime(S, 2);
  EXPECT_EQ(S.clock(0), 0); // Dyn with on == 0: stopped.
  S.Store[On] = 1;          // No location move: the next delay re-syncs.
  Ex.advanceTime(S, 3);
  EXPECT_EQ(S.clock(0), 3);
  S.Store[On] = 0;
  Ex.advanceTime(S, 4);
  EXPECT_EQ(S.clock(0), 3);
  EXPECT_EQ(S.Now, 24);
}

TEST(StopwatchEncoding, GlobalClockRateIsABindError) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("clock g;").isFailure());
  TemplateBuilder TB("Holder", NB.globalDecls());
  TB.location("Hold", "g' == 0").initial("Hold");
  auto T = TB.build();
  ASSERT_TRUE(T.ok()) << T.error().message();
  auto A = NB.addInstance(**T, "h", {});
  ASSERT_FALSE(A.ok());
  EXPECT_EQ(A.error().code(), ErrorCode::UnsupportedRate);
  const std::string &M = A.error().message();
  EXPECT_NE(M.find("'Holder'"), std::string::npos) << M;
  EXPECT_NE(M.find("location Hold"), std::string::npos) << M;
  EXPECT_NE(M.find("'g'"), std::string::npos) << M;
}

TEST(StopwatchEncoding, TwoRatesOnOneClockAreABindError) {
  NetworkBuilder NB;
  ASSERT_FALSE(NB.addGlobals("int on = 1;").isFailure());
  TemplateBuilder TB("Twice", NB.globalDecls());
  TB.decls("clock e;").location("L", "e' == 0 && e' == on").initial("L");
  auto T = TB.build();
  ASSERT_TRUE(T.ok()) << T.error().message();
  auto A = NB.addInstance(**T, "t", {});
  ASSERT_FALSE(A.ok());
  EXPECT_EQ(A.error().code(), ErrorCode::UnsupportedRate);
  const std::string &M = A.error().message();
  EXPECT_NE(M.find("'Twice'"), std::string::npos) << M;
  EXPECT_NE(M.find("location L"), std::string::npos) << M;
  EXPECT_NE(M.find("'e'"), std::string::npos) << M;
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
