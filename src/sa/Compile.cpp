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

std::string CodeSite::label() const {
  return Func ? "function '" + Owner + "'" : Owner + " " + What;
}

Error swa::sa::compileNetwork(Network &Net) {
  obs::ScopedTimer Timer("compile");
  Net.FuncCode.assign(Net.Bind.FuncTable.size(), usl::Code());
  Error Err = Error::success();
  forEachCodeSite(Net, [&](const CodeSite &S) {
    if (Err)
      return;
    Result<usl::Code> C = S.Func   ? usl::compileFunction(*S.Func)
                          : S.Expr ? usl::compileExpr(*S.Expr)
                                   : usl::compileStmts(*S.Stmts);
    if (C.ok())
      S.Code = C.takeValue();
    else
      Err = C.takeError().withContext("compiling " + S.label());
  });
  return Err;
}

void swa::sa::forEachCodeSite(
    Network &Net, const std::function<void(const CodeSite &)> &Fn) {
  static const std::string Unnamed = "?";
  for (size_t I = 0; I < Net.FuncCode.size(); ++I) {
    const usl::FuncDecl *F = Net.Bind.FuncTable[I];
    Fn({Net.FuncCode[I], F, nullptr, nullptr,
        F->Sym ? F->Sym->Name : Unnamed, "function"});
  }
  for (std::unique_ptr<Automaton> &A : Net.Automata) {
    auto Expr = [&](usl::Code &C, const usl::Expr &E, const char *What) {
      Fn({C, nullptr, &E, nullptr, A->Name, What});
    };
    for (Location &L : A->Locations) {
      if (L.DataInvariant)
        Expr(L.DataInvariantCode, *L.DataInvariant, "invariant");
      for (ClockUpper &U : L.Uppers)
        Expr(U.BoundCode, *U.Bound, "invariant bound");
      for (RateCond &R : L.Rates)
        Expr(R.RateCode, *R.Rate, "rate condition");
    }
    for (Edge &E : A->Edges) {
      if (E.DataGuard)
        Expr(E.DataGuardCode, *E.DataGuard, "guard");
      for (ClockGuard &CG : E.ClockGuards)
        Expr(CG.BoundCode, *CG.Bound, "clock guard bound");
      if (E.Sync && E.Sync->Index)
        Expr(E.Sync->IndexCode, *E.Sync->Index, "sync index");
      if (!E.Update.empty())
        Fn({E.UpdateCode, nullptr, nullptr, &E.Update, A->Name, "update"});
    }
  }
}

void swa::sa::forEachCodeSite(Network &Net,
                              const std::function<void(usl::Code &)> &Fn) {
  forEachCodeSite(Net, [&](const CodeSite &S) { Fn(S.Code); });
}

void swa::sa::stripBytecode(Network &Net) {
  forEachCodeSite(Net, [](usl::Code &C) { C.clear(); });
  Net.FuncCode.clear();
}
