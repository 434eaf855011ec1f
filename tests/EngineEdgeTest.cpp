//===- tests/EngineEdgeTest.cpp - Engine error paths and edge cases ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "nsa/Simulator.h"
#include "sa/Compile.h"
#include "sa/NetworkBuilder.h"
#include "sa/Template.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::sa;
using namespace swa::nsa;

namespace {

/// Builds a single-instance network from one template spec.
Result<std::unique_ptr<Network>>
single(const std::string &Globals,
       const std::function<void(TemplateBuilder &)> &Define,
       bool Compile = true) {
  NetworkBuilder NB;
  if (Error E = NB.addGlobals(Globals))
    return E;
  TemplateBuilder TB("T", NB.globalDecls());
  Define(TB);
  Result<std::unique_ptr<Template>> T = TB.build();
  if (!T.ok())
    return T.takeError();
  if (auto R = NB.addInstance(**T, "t", {}); !R.ok())
    return R.takeError();
  Result<std::unique_ptr<Network>> Net = NB.finish();
  if (Net.ok() && Compile)
    if (Error E = compileNetwork(**Net))
      return E;
  return Net;
}

} // namespace

TEST(SimulatorEdge, TimeLockIsReportedWithLocation) {
  // Invariant forces action at t == 3 but no edge exists.
  auto Net = single("int x;", [](TemplateBuilder &TB) {
    TB.decls("clock c;").location("Stuck", "c <= 3").initial("Stuck");
  });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 100;
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("time-lock"), std::string::npos);
  EXPECT_NE(R.Error.find("t at Stuck"), std::string::npos);
  EXPECT_NE(R.Error.find("t=3"), std::string::npos);
}

TEST(SimulatorEdge, CommittedDeadlockIsReported) {
  // A committed location whose only exit needs a partner that never
  // exists (binary send with no receiver).
  auto Net = single("chan nobody;", [](TemplateBuilder &TB) {
    TB.committed("C").location("D").initial("C").edge(
        "C", "D", {.Sync = "nobody!"});
  });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 10;
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("committed"), std::string::npos);
}

TEST(SimulatorEdge, ActionBudgetStopsLivelocks) {
  // A committed self-loop spins forever at t = 0.
  auto Net = single("int n;", [](TemplateBuilder &TB) {
    TB.committed("Spin").initial("Spin").edge("Spin", "Spin",
                                              {.Update = "n = n + 1"});
  });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 10;
  Simulator Sim(**Net);
  SimOptions Opts;
  Opts.MaxActions = 1000;
  SimResult R = Sim.run(Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(SimulatorEdge, RuntimeModelErrorsAbort) {
  // Division by zero inside a guard function is a fatal model error.
  auto Net = single("int z = 0;"
                    "int boom() { return 1 / z; }",
                    [](TemplateBuilder &TB) {
                      TB.location("A").location("B").initial("A").edge(
                          "A", "B", {.Guard = "boom() > 0"});
                    });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 5;
  EXPECT_DEATH(
      {
        Simulator Sim(**Net);
        (void)Sim.run();
      },
      "division by zero");
}

TEST(SimulatorEdge, RunawayLoopHitsStepBudget) {
  auto Net = single("int n;"
                    "void forever() { while (true) { n = n + 1; } }",
                    [](TemplateBuilder &TB) {
                      TB.location("A").location("B").initial("A").edge(
                          "A", "B", {.Update = "forever()"});
                    });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 5;
  EXPECT_DEATH(
      {
        Simulator Sim(**Net);
        (void)Sim.run();
      },
      "step budget");
}

TEST(SimulatorEdge, OutOfRangeChannelIndexDisablesTheEdge) {
  // A sync index outside the channel array silently disables the edge
  // instead of corrupting the channel table.
  auto Net = single("chan go[2]; int sel = 7;",
                    [](TemplateBuilder &TB) {
                      TB.location("A").location("B").initial("A").edge(
                          "A", "B", {.Sync = "go[sel]!"});
                    });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 5;
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Final.Locs[0], 0); // Never moved.
}

TEST(SimulatorEdge, StopwatchNeverRunsBackwards) {
  // Rates flip with a variable across phases; the accumulated value must
  // count exactly the running intervals.
  auto Net = single(
      "int on = 1;",
      [](TemplateBuilder &TB) {
        TB.decls("clock w; clock t;")
            .location("P1", "t <= 2 && w' == on")
            .location("P2", "t <= 5 && w' == on")
            .location("P3", "t <= 10 && w' == on")
            .location("End")
            .initial("P1")
            .edge("P1", "P2", {.Guard = "t >= 2", .Update = "on = 0"})
            .edge("P2", "P3", {.Guard = "t >= 5", .Update = "on = 1"})
            .edge("P3", "End", {.Guard = "t >= 10"});
      });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 20;
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  // w ran during [0,2) and [5,10): 7 ticks. In End no rate condition
  // applies, so both clocks advance freely until the horizon.
  EXPECT_EQ(R.Final.Locs[0], 3);
  EXPECT_EQ(R.Final.clock(0) - (R.Final.Now - 10), 7);
}

TEST(SimulatorEdge, MultipleIndependentClocksPerAutomaton) {
  auto Net = single("int fired = 0;", [](TemplateBuilder &TB) {
    TB.decls("clock a; clock b;")
        .location("W", "a <= 4 && b <= 9")
        .location("Mid", "b <= 9")
        .location("End")
        .initial("W")
        .edge("W", "Mid", {.Guard = "a >= 4", .Update = "fired = 1"})
        .edge("Mid", "End", {.Guard = "b >= 9", .Update = "fired = 2"});
  });
  ASSERT_TRUE(Net.ok()) << Net.error().message();
  (*Net)->Meta["horizon"] = 20;
  Simulator Sim(**Net);
  SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Final.Locs[0], 2);
  EXPECT_EQ(R.Final.Store[static_cast<size_t>((*Net)->slotOf("fired"))],
            2);
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
