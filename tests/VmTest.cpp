//===- tests/VmTest.cpp - Bytecode compiler/VM differential tests ----------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The VM must agree with the tree-walking interpreter on every program:
// hand-written cases for each construct, randomized expression fuzzing,
// and whole-simulation equivalence on a real configuration.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "gen/Workload.h"
#include "sa/Compile.h"
#include "support/Rng.h"
#include "usl/Binder.h"
#include "usl/Compiler.h"
#include "usl/Interp.h"
#include "usl/Parser.h"
#include "usl/Vm.h"

#include <gtest/gtest.h>

using namespace swa;
using namespace swa::usl;

namespace {

/// Parses declarations + one int expression, binds them, and evaluates
/// through both engines.
class Differ {
public:
  explicit Differ(const std::string &DeclSrc) : B(Target) {
    Error E = parseDeclarations(DeclSrc, D, false);
    EXPECT_FALSE(E) << E.message();
    for (const Declarations::VarInit &VI : D.Vars) {
      int Base = static_cast<int>(Store.size());
      int Size = VI.Sym->Ty.isArray() ? VI.Sym->Ty.Size : 1;
      for (int I = 0; I < Size; ++I) {
        int64_t Init = 0;
        if (static_cast<size_t>(I) < VI.Init.size())
          Init = *foldConst(*VI.Init[static_cast<size_t>(I)]);
        Store.push_back(Init);
      }
      B.mapStore(VI.Sym, Base);
    }
  }

  /// Evaluates \p ExprSrc with both engines and checks agreement,
  /// including the final store contents.
  int64_t both(const std::string &ExprSrc) {
    auto E = parseIntExpr(ExprSrc, D);
    EXPECT_TRUE(E.ok()) << ExprSrc << ": " << E.error().message();
    auto Bound = B.bindExpr(**E);
    EXPECT_TRUE(Bound.ok()) << Bound.error().message();

    // Compile the functions once.
    if (FuncCode.size() != Target.FuncTable.size()) {
      FuncCode.clear();
      for (const FuncDecl *F : Target.FuncTable) {
        auto C = compileFunction(*F);
        EXPECT_TRUE(C.ok()) << C.error().message();
        FuncCode.push_back(C.takeValue());
      }
    }
    auto Compiled = compileExpr(**Bound);
    EXPECT_TRUE(Compiled.ok()) << Compiled.error().message();

    std::vector<int64_t> StoreA = Store;
    std::vector<int64_t> StoreB = Store;

    EvalContext CtxA;
    CtxA.Store = &StoreA;
    CtxA.ConstArrays = &Target.ConstArrays;
    CtxA.FuncTable = &Target.FuncTable;
    CtxA.StepBudget = DefaultStepBudget;
    int64_t RA = evalExpr(**Bound, CtxA, 0);

    EvalContext CtxB;
    CtxB.Store = &StoreB;
    CtxB.ConstArrays = &Target.ConstArrays;
    CtxB.FuncTable = &Target.FuncTable;
    CtxB.StepBudget = DefaultStepBudget;
    int64_t RB = runCode(*Compiled, FuncCode, CtxB, 0);

    EXPECT_EQ(RA, RB) << ExprSrc;
    EXPECT_EQ(StoreA, StoreB) << ExprSrc << " (store divergence)";
    Store = StoreA; // Carry effects forward for sequences.
    return RA;
  }

  Declarations D;
  BindTarget Target;
  Binder B;
  std::vector<Code> FuncCode;
  std::vector<int64_t> Store;
};

} // namespace

TEST(Vm, ArithmeticAndComparisons) {
  Differ F("");
  EXPECT_EQ(F.both("2 + 3 * 4 - 6 / 2"), 11);
  EXPECT_EQ(F.both("17 % 5"), 2);
  EXPECT_EQ(F.both("-(3 - 8)"), 5);
  EXPECT_EQ(F.both("(3 < 4 ? 10 : 20) + (4 <= 4 ? 1 : 2)"), 11);
  EXPECT_EQ(F.both("(5 > 4 && 3 != 2) ? 1 : 0"), 1);
  EXPECT_EQ(F.both("(5 == 4 || 2 >= 3) ? 1 : 0"), 0);
}

TEST(Vm, ShortCircuitSkipsSideConditions) {
  Differ F("int x = 0;");
  EXPECT_EQ(F.both("(x == 0 || 1 / x > 0) ? 7 : 8"), 7);
  EXPECT_EQ(F.both("(x != 0 && 1 / x > 0) ? 7 : 8"), 8);
}

TEST(Vm, StoreAndArrays) {
  Differ F("int a[4] = {5, 6, 7, 8}; int k = 2;");
  EXPECT_EQ(F.both("a[0] + a[k] + a[k + 1]"), 20);
}

TEST(Vm, FunctionsLoopsRecursion) {
  Differ F("int fib(int n) { if (n < 2) return n;"
           "  return fib(n - 1) + fib(n - 2); }"
           "int sum(int n) { int s = 0;"
           "  for (int i = 1; i <= n; i++) s += i; return s; }"
           "int collatz(int n) { int c = 0;"
           "  while (n > 1) { if (n % 2 == 0) n = n / 2;"
           "                  else n = 3 * n + 1; c++; } return c; }");
  EXPECT_EQ(F.both("fib(12)"), 144);
  EXPECT_EQ(F.both("sum(10) + collatz(27)"), 55 + 111);
}

TEST(Vm, GlobalMutationThroughFunctions) {
  Differ F("int total = 0; int hist[3];"
           "void tally(int v) { total += v; hist[v % 3] += 1; }"
           "int run() { for (int i = 0; i < 7; i++) tally(i); "
           "return total; }");
  EXPECT_EQ(F.both("run()"), 21);
  EXPECT_EQ(F.both("hist[0] * 100 + hist[1] * 10 + hist[2]"), 322);
}

TEST(Vm, FrameArrayLocals) {
  Differ F("int rot(int a, int b, int c) { int buf[3];"
           "  buf[0] = a; buf[1] = b; buf[2] = c;"
           "  int t = buf[0]; buf[0] = buf[2]; buf[2] = t;"
           "  return buf[0] * 100 + buf[1] * 10 + buf[2]; }");
  EXPECT_EQ(F.both("rot(1, 2, 3)"), 321);
}

TEST(Vm, RandomizedExpressionFuzz) {
  // Generate random expression strings from a small grammar and compare
  // engines; all operands are kept positive and divisors nonzero.
  Rng R(99);
  Differ F("int v[8] = {3, 1, 4, 1, 5, 9, 2, 6};"
           "int f(int a, int b) { return (a + 1) * (b + 2) % 97; }");
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string E = "1";
    int Terms = static_cast<int>(R.uniformInt(1, 6));
    for (int T = 0; T < Terms; ++T) {
      const char *Ops[] = {" + ", " * ", " - ", " % "};
      std::string Op = Ops[R.index(3)];
      switch (R.index(4)) {
      case 0:
        E = "(" + E + Op +
            std::to_string(R.uniformInt(1, 9)) + ")";
        break;
      case 1:
        E = "(" + E + Op + "v[" +
            std::to_string(R.uniformInt(0, 7)) + "])";
        break;
      case 2:
        E = "f(" + E + ", " + std::to_string(R.uniformInt(0, 5)) + ")";
        break;
      case 3:
        E = "(" + E + " < " + std::to_string(R.uniformInt(0, 20)) +
            " ? " + E + " : " + std::to_string(R.uniformInt(0, 9)) + ")";
        break;
      }
    }
    F.both(E);
  }
}

TEST(Vm, WriteLogsMatchInterpreter) {
  Differ F("int a[4]; int n;"
           "void fill() { for (int i = 0; i < 4; i++) a[i] = i; n = 4; }");
  // Run through both engines with write logs and compare the logged slots
  // (the grammar has no comma operator; call fill via a wrapper).
  Error DeclErr = parseDeclarations("int wrap() { fill(); return n; }",
                                    F.D, false);
  ASSERT_FALSE(DeclErr) << DeclErr.message();
  auto E2 = parseIntExpr("wrap()", F.D);
  ASSERT_TRUE(E2.ok());
  auto Bound = F.B.bindExpr(**E2);
  ASSERT_TRUE(Bound.ok()) << Bound.error().message();

  std::vector<Code> FuncCode;
  for (const FuncDecl *Fn : F.Target.FuncTable) {
    auto C = compileFunction(*Fn);
    ASSERT_TRUE(C.ok());
    FuncCode.push_back(C.takeValue());
  }
  auto Compiled = compileExpr(**Bound);
  ASSERT_TRUE(Compiled.ok());

  std::vector<int64_t> StoreA = F.Store, StoreB = F.Store;
  std::vector<int32_t> LogA, LogB;
  EvalContext CA;
  CA.Store = &StoreA;
  CA.ConstArrays = &F.Target.ConstArrays;
  CA.FuncTable = &F.Target.FuncTable;
  CA.WriteLog = &LogA;
  CA.StepBudget = DefaultStepBudget;
  EXPECT_EQ(evalExpr(**Bound, CA, 0), 4);
  EvalContext CB;
  CB.Store = &StoreB;
  CB.ConstArrays = &F.Target.ConstArrays;
  CB.FuncTable = &F.Target.FuncTable;
  CB.WriteLog = &LogB;
  CB.StepBudget = DefaultStepBudget;
  EXPECT_EQ(runCode(*Compiled, FuncCode, CB, 0), 4);
  EXPECT_EQ(LogA, LogB);
}

TEST(Vm, WholeSimulationMatchesInterpreter) {
  // The decisive test: simulate the same configuration with per-site
  // bytecode and with the codes stripped (pure interpreter) and compare
  // the job-level traces.
  cfg::Config C = gen::industrialConfig({.Modules = 2,
                                         .PartitionsPerCore = 2,
                                         .Seed = 17});
  auto Compiled = analysis::analyzeConfiguration(C);
  ASSERT_TRUE(Compiled.ok()) << Compiled.error().message();

  auto Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok());
  // Strip all bytecode: the engines must fall back to the interpreter.
  Model->Net->FuncCode.clear();
  for (auto &A : Model->Net->Automata) {
    for (auto &L : A->Locations) {
      L.DataInvariantCode.clear();
      for (auto &U : L.Uppers)
        U.BoundCode.clear();
      for (auto &Rt : L.Rates)
        Rt.RateCode.clear();
    }
    for (auto &E : A->Edges) {
      E.DataGuardCode.clear();
      E.UpdateCode.clear();
      for (auto &CG : E.ClockGuards)
        CG.BoundCode.clear();
      if (E.Sync)
        E.Sync->IndexCode.clear();
    }
  }
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  auto Trace = core::mapTrace(*Model, R.Events);
  auto Analysis = analysis::analyzeTrace(C, Trace);
  EXPECT_TRUE(
      analysis::jobTracesEquivalent(Compiled->Analysis, Analysis));
  EXPECT_EQ(Compiled->Analysis.Schedulable, Analysis.Schedulable);
}

TEST(Vm, CompileErrorsNameTheirSite) {
  // compileNetwork names a site it cannot compile by its automaton and
  // kind, and stops at the first such site in walk order (invariants
  // before guards).
  cfg::Config C = gen::industrialConfig({.Modules = 1,
                                         .PartitionsPerCore = 1,
                                         .Seed = 17});
  auto Model = core::buildModel(C);
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  sa::Automaton &A = *Model->Net->Automata.front();
  ASSERT_FALSE(A.Locations.empty());
  ASSERT_FALSE(A.Edges.empty());
  auto Unbound = [] {
    auto E = std::make_unique<Expr>();
    E->Kind = ExprKind::VarRef;
    return E;
  };

  A.Edges.front().DataGuard = Unbound();
  Error Guard = sa::compileNetwork(*Model->Net);
  ASSERT_TRUE(Guard);
  EXPECT_EQ(Guard.message().rfind("compiling " + A.Name + " guard: ", 0), 0u)
      << Guard.message();

  A.Locations.front().DataInvariant = Unbound();
  Error Invariant = sa::compileNetwork(*Model->Net);
  ASSERT_TRUE(Invariant);
  EXPECT_EQ(
      Invariant.message().rfind("compiling " + A.Name + " invariant: ", 0),
      0u)
      << Invariant.message();
}

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
