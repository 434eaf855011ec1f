//===- sa/Compile.cpp - Compile a network's USL code to bytecode ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "sa/Compile.h"

#include "obs/Timer.h"
#include "usl/Compiler.h"

using namespace swa;
using namespace swa::sa;

Error swa::sa::compileNetwork(Network &Net) {
  obs::ScopedTimer Timer("compile");
  Net.FuncCode.clear();
  Net.FuncCode.reserve(Net.Bind.FuncTable.size());
  for (const usl::FuncDecl *F : Net.Bind.FuncTable) {
    Result<usl::Code> C = usl::compileFunction(*F);
    if (!C.ok())
      return C.takeError().withContext("compiling function '" +
                                       (F->Sym ? F->Sym->Name : "?") + "'");
    Net.FuncCode.push_back(C.takeValue());
  }

  for (std::unique_ptr<Automaton> &A : Net.Automata) {
    auto Context = [&](const char *What) {
      return "compiling " + A->Name + " " + What;
    };
    for (Location &L : A->Locations) {
      if (L.DataInvariant) {
        Result<usl::Code> C = usl::compileExpr(*L.DataInvariant);
        if (!C.ok())
          return C.takeError().withContext(Context("invariant"));
        L.DataInvariantCode = C.takeValue();
      }
      for (ClockUpper &U : L.Uppers) {
        Result<usl::Code> C = usl::compileExpr(*U.Bound);
        if (!C.ok())
          return C.takeError().withContext(Context("invariant bound"));
        U.BoundCode = C.takeValue();
      }
      for (RateCond &R : L.Rates) {
        Result<usl::Code> C = usl::compileExpr(*R.Rate);
        if (!C.ok())
          return C.takeError().withContext(Context("rate condition"));
        R.RateCode = C.takeValue();
      }
    }
    for (Edge &E : A->Edges) {
      if (E.DataGuard) {
        Result<usl::Code> C = usl::compileExpr(*E.DataGuard);
        if (!C.ok())
          return C.takeError().withContext(Context("guard"));
        E.DataGuardCode = C.takeValue();
      }
      for (ClockGuard &CG : E.ClockGuards) {
        Result<usl::Code> C = usl::compileExpr(*CG.Bound);
        if (!C.ok())
          return C.takeError().withContext(Context("clock guard bound"));
        CG.BoundCode = C.takeValue();
      }
      if (E.Sync && E.Sync->Index) {
        Result<usl::Code> C = usl::compileExpr(*E.Sync->Index);
        if (!C.ok())
          return C.takeError().withContext(Context("sync index"));
        E.Sync->IndexCode = C.takeValue();
      }
      if (!E.Update.empty()) {
        Result<usl::Code> C = usl::compileStmts(E.Update);
        if (!C.ok())
          return C.takeError().withContext(Context("update"));
        E.UpdateCode = C.takeValue();
      }
    }
  }
  return Error::success();
}

void swa::sa::forEachCodeSite(Network &Net,
                              const std::function<void(usl::Code &)> &Fn) {
  for (usl::Code &C : Net.FuncCode)
    Fn(C);
  for (std::unique_ptr<Automaton> &A : Net.Automata) {
    for (Location &L : A->Locations) {
      if (L.DataInvariant)
        Fn(L.DataInvariantCode);
      for (ClockUpper &U : L.Uppers)
        Fn(U.BoundCode);
      for (RateCond &R : L.Rates)
        Fn(R.RateCode);
    }
    for (Edge &E : A->Edges) {
      if (E.DataGuard)
        Fn(E.DataGuardCode);
      for (ClockGuard &CG : E.ClockGuards)
        Fn(CG.BoundCode);
      if (E.Sync && E.Sync->Index)
        Fn(E.Sync->IndexCode);
      if (!E.Update.empty())
        Fn(E.UpdateCode);
    }
  }
}

void swa::sa::stripBytecode(Network &Net) {
  forEachCodeSite(Net, [](usl::Code &C) { C.clear(); });
  Net.FuncCode.clear();
}
