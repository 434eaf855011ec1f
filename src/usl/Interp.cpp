//===- usl/Interp.cpp - Evaluation of bound USL trees ----------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Interp.h"

#include "support/StringUtils.h"
#include "usl/Parser.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace swa;
using namespace swa::usl;

namespace {

[[noreturn]] void fatalEval(const Expr *E, const char *Msg) {
  if (E)
    std::fprintf(stderr, "swa-sched: fatal model evaluation error at %d:%d: "
                         "%s\n",
                 E->Loc.Line, E->Loc.Col, Msg);
  else
    std::fprintf(stderr, "swa-sched: fatal model evaluation error: %s\n",
                 Msg);
  std::abort();
}

void chargeStep(EvalContext &Ctx, const Expr *E) {
  if (--Ctx.StepBudget < 0)
    fatalEval(E, "evaluation step budget exhausted (runaway loop or "
                 "recursion in a model function?)");
}

int64_t callFunction(const Expr &CallE, EvalContext &Ctx, size_t FrameBase);

/// Result of executing one statement.
struct ExecResult {
  bool Returned = false;
  int64_t Value = 0;
};

ExecResult execStmt(const Stmt &S, EvalContext &Ctx, size_t FrameBase);

void storeWrite(EvalContext &Ctx, int Slot, int64_t V, const Expr *Site) {
  if (Slot < 0 || static_cast<size_t>(Slot) >= Ctx.Store->size())
    fatalEval(Site, "store slot out of range");
  (*Ctx.Store)[static_cast<size_t>(Slot)] = V;
  if (Ctx.WriteLog)
    Ctx.WriteLog->push_back(Slot);
}

/// Resolves an lvalue (VarRef or Index over Store/Frame) to a writable
/// location; returns true for store locations, false for frame ones, and
/// places the final slot in \p Slot.
bool resolveLValue(const Expr &Target, EvalContext &Ctx, size_t FrameBase,
                   int &Slot) {
  int Index = 0;
  if (Target.Kind == ExprKind::Index) {
    int64_t Idx = evalExpr(*Target.Children[0], Ctx, FrameBase);
    if (Idx < 0 || Idx >= Target.ArraySize)
      fatalEval(&Target, "array index out of bounds in assignment");
    Index = static_cast<int>(Idx);
  } else {
    assert(Target.Kind == ExprKind::VarRef && "bad lvalue kind");
  }
  switch (Target.Ref) {
  case RefKind::Store:
    Slot = Target.Slot + Index;
    return true;
  case RefKind::Frame:
    Slot = static_cast<int>(FrameBase) + Target.Slot + Index;
    return false;
  default:
    fatalEval(&Target, "assignment to a non-writable reference");
  }
}

ExecResult execStmt(const Stmt &S, EvalContext &Ctx, size_t FrameBase) {
  switch (S.Kind) {
  case StmtKind::Block: {
    for (const StmtPtr &B : S.Body) {
      ExecResult R = execStmt(*B, Ctx, FrameBase);
      if (R.Returned)
        return R;
    }
    return {};
  }
  case StmtKind::LocalDecl: {
    // Frame slots are zero-initialized at call entry; run the initializer.
    assert(S.DeclFrameSlot >= 0 && "executing an unbound local decl");
    if (S.Value) {
      int64_t V = evalExpr(*S.Value, Ctx, FrameBase);
      Ctx.FrameStack[FrameBase + static_cast<size_t>(S.DeclFrameSlot)] = V;
    } else {
      for (int I = 0; I < S.DeclFrameCount; ++I)
        Ctx.FrameStack[FrameBase + static_cast<size_t>(S.DeclFrameSlot) +
                       static_cast<size_t>(I)] = 0;
    }
    return {};
  }
  case StmtKind::Assign: {
    int64_t V = evalExpr(*S.Value, Ctx, FrameBase);
    int Slot = 0;
    bool IsStore = resolveLValue(*S.Target, Ctx, FrameBase, Slot);
    int64_t Current = 0;
    if (S.AOp != AssignOp::Set)
      Current = IsStore ? (*Ctx.Store)[static_cast<size_t>(Slot)]
                        : Ctx.FrameStack[static_cast<size_t>(Slot)];
    int64_t Next = S.AOp == AssignOp::Set   ? V
                   : S.AOp == AssignOp::Add ? Current + V
                                            : Current - V;
    if (IsStore)
      storeWrite(Ctx, Slot, Next, S.Target.get());
    else
      Ctx.FrameStack[static_cast<size_t>(Slot)] = Next;
    return {};
  }
  case StmtKind::If: {
    chargeStep(Ctx, S.Cond.get());
    if (evalExpr(*S.Cond, Ctx, FrameBase) != 0)
      return execStmt(*S.Then, Ctx, FrameBase);
    if (S.Else)
      return execStmt(*S.Else, Ctx, FrameBase);
    return {};
  }
  case StmtKind::While: {
    for (;;) {
      chargeStep(Ctx, S.Cond.get());
      if (evalExpr(*S.Cond, Ctx, FrameBase) == 0)
        return {};
      ExecResult R = execStmt(*S.Then, Ctx, FrameBase);
      if (R.Returned)
        return R;
    }
  }
  case StmtKind::For: {
    ExecResult R = execStmt(*S.Body[0], Ctx, FrameBase);
    if (R.Returned)
      return R;
    for (;;) {
      chargeStep(Ctx, S.Cond.get());
      if (evalExpr(*S.Cond, Ctx, FrameBase) == 0)
        return {};
      R = execStmt(*S.Then, Ctx, FrameBase);
      if (R.Returned)
        return R;
      R = execStmt(*S.Body[1], Ctx, FrameBase);
      if (R.Returned)
        return R;
    }
  }
  case StmtKind::Return: {
    ExecResult R;
    R.Returned = true;
    if (S.Value)
      R.Value = evalExpr(*S.Value, Ctx, FrameBase);
    return R;
  }
  case StmtKind::ExprStmt:
    evalExpr(*S.Value, Ctx, FrameBase);
    return {};
  }
  fatalEval(nullptr, "unknown statement kind");
}

int64_t callFunction(const Expr &CallE, EvalContext &Ctx, size_t FrameBase) {
  assert(Ctx.FuncTable && "call without a function table");
  if (CallE.FuncIndex < 0 ||
      static_cast<size_t>(CallE.FuncIndex) >= Ctx.FuncTable->size())
    fatalEval(&CallE, "call to an unbound function");
  const FuncDecl *F = (*Ctx.FuncTable)[static_cast<size_t>(CallE.FuncIndex)];
  if (++Ctx.CallDepth > MaxCallDepth)
    fatalEval(&CallE, "call depth limit exceeded");

  // Evaluate arguments in the caller frame, then switch frames.
  size_t CalleeBase = Ctx.FrameStack.size();
  // Evaluate args into a small staging buffer first: growing FrameStack
  // while the caller frame is still live is fine because frames are
  // addressed by index, but arguments must see the caller frame.
  int64_t ArgVals[16];
  size_t ArgCount = CallE.Children.size();
  if (ArgCount > 16)
    fatalEval(&CallE, "too many call arguments");
  for (size_t I = 0; I < ArgCount; ++I)
    ArgVals[I] = evalExpr(*CallE.Children[I], Ctx, FrameBase);

  Ctx.FrameStack.resize(CalleeBase + static_cast<size_t>(F->FrameSize), 0);
  for (size_t I = 0; I < ArgCount; ++I)
    Ctx.FrameStack[CalleeBase + I] = ArgVals[I];
  // Zero the non-argument part (resize zeroed new elements, but the buffer
  // may be reused after shrinking; be explicit).
  for (size_t I = ArgCount; I < static_cast<size_t>(F->FrameSize); ++I)
    Ctx.FrameStack[CalleeBase + I] = 0;

  ExecResult R = execStmt(*F->Body, Ctx, CalleeBase);
  Ctx.FrameStack.resize(CalleeBase);
  --Ctx.CallDepth;
  if (F->RetTy.Kind != TypeKind::Void && !R.Returned)
    fatalEval(&CallE, "non-void model function fell off the end");
  return R.Value;
}

} // namespace

int64_t swa::usl::evalExpr(const Expr &E, EvalContext &Ctx,
                           size_t FrameBase) {
  chargeStep(Ctx, &E);
  switch (E.Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
    return E.Literal;
  case ExprKind::VarRef:
    switch (E.Ref) {
    case RefKind::Const:
      return E.ConstValue;
    case RefKind::Store:
      return (*Ctx.Store)[static_cast<size_t>(E.Slot)];
    case RefKind::Frame:
      return Ctx.FrameStack[FrameBase + static_cast<size_t>(E.Slot)];
    default:
      fatalEval(&E, "evaluation of an unbound reference");
    }
  case ExprKind::Index: {
    int64_t Idx = evalExpr(*E.Children[0], Ctx, FrameBase);
    if (Idx < 0 || Idx >= E.ArraySize)
      fatalEval(&E, "array index out of bounds");
    switch (E.Ref) {
    case RefKind::ConstArray:
      return (*Ctx.ConstArrays)[static_cast<size_t>(E.Slot)]
                               [static_cast<size_t>(Idx)];
    case RefKind::Store:
      return (*Ctx.Store)[static_cast<size_t>(E.Slot + Idx)];
    case RefKind::Frame:
      return Ctx.FrameStack[FrameBase + static_cast<size_t>(E.Slot + Idx)];
    default:
      fatalEval(&E, "evaluation of an unbound array reference");
    }
  }
  case ExprKind::Call:
    return callFunction(E, Ctx, FrameBase);
  case ExprKind::Unary: {
    int64_t V = evalExpr(*E.Children[0], Ctx, FrameBase);
    return E.UOp == UnaryOp::Neg ? -V : (V == 0 ? 1 : 0);
  }
  case ExprKind::Binary: {
    // Short-circuit forms first.
    if (E.BOp == BinaryOp::And) {
      if (evalExpr(*E.Children[0], Ctx, FrameBase) == 0)
        return 0;
      return evalExpr(*E.Children[1], Ctx, FrameBase) != 0;
    }
    if (E.BOp == BinaryOp::Or) {
      if (evalExpr(*E.Children[0], Ctx, FrameBase) != 0)
        return 1;
      return evalExpr(*E.Children[1], Ctx, FrameBase) != 0;
    }
    int64_t L = evalExpr(*E.Children[0], Ctx, FrameBase);
    int64_t R = evalExpr(*E.Children[1], Ctx, FrameBase);
    switch (E.BOp) {
    case BinaryOp::Add:
      return L + R;
    case BinaryOp::Sub:
      return L - R;
    case BinaryOp::Mul:
      return L * R;
    case BinaryOp::Div:
      if (R == 0)
        fatalEval(&E, "division by zero");
      return L / R;
    case BinaryOp::Rem:
      if (R == 0)
        fatalEval(&E, "remainder by zero");
      return L % R;
    case BinaryOp::Lt:
      return L < R;
    case BinaryOp::Le:
      return L <= R;
    case BinaryOp::Gt:
      return L > R;
    case BinaryOp::Ge:
      return L >= R;
    case BinaryOp::Eq:
      return L == R;
    case BinaryOp::Ne:
      return L != R;
    case BinaryOp::Min:
      return L < R ? L : R;
    case BinaryOp::Max:
      return L > R ? L : R;
    case BinaryOp::And:
    case BinaryOp::Or:
      break; // Handled above.
    }
    fatalEval(&E, "unknown binary operator");
  }
  case ExprKind::Ternary: {
    int64_t C = evalExpr(*E.Children[0], Ctx, FrameBase);
    return evalExpr(C != 0 ? *E.Children[1] : *E.Children[2], Ctx,
                    FrameBase);
  }
  }
  fatalEval(&E, "unknown expression kind");
}

void swa::usl::execStmts(const std::vector<StmtPtr> &Stmts, EvalContext &Ctx,
                         size_t FrameBase) {
  for (const StmtPtr &S : Stmts)
    (void)execStmt(*S, Ctx, FrameBase);
}

//===----------------------------------------------------------------------===//
// ReadSet / ReadSetCollector
//===----------------------------------------------------------------------===//

void ReadSet::append(const ReadSet &Other) {
  Slots.insert(Slots.end(), Other.Slots.begin(), Other.Slots.end());
  Arrays.insert(Arrays.end(), Other.Arrays.begin(), Other.Arrays.end());
}

void ReadSet::dropArray(int32_t Base, int32_t Size) {
  std::erase_if(Arrays, [&](const ArrayRead &A) { return A.Base == Base; });
  std::erase_if(Slots,
                [&](int32_t S) { return S >= Base && S < Base + Size; });
}

void ReadSet::normalize() {
  std::sort(Slots.begin(), Slots.end());
  Slots.erase(std::unique(Slots.begin(), Slots.end()), Slots.end());
  std::sort(Arrays.begin(), Arrays.end());
  Arrays.erase(std::unique(Arrays.begin(), Arrays.end()), Arrays.end());
}

std::vector<int32_t> ReadSet::expand() const {
  ReadSet Unique = *this;
  Unique.normalize();
  std::vector<int32_t> Out = std::move(Unique.Slots);
  for (const ArrayRead &A : Unique.Arrays)
    for (int32_t I = 0; I < A.Size; ++I)
      Out.push_back(A.Base + I);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

ReadSetCollector::ReadSetCollector(
    const std::vector<const FuncDecl *> &FuncTable)
    : FuncTable(FuncTable) {
  refresh();
}

void ReadSetCollector::refresh() {
  size_t Done = FuncReads.size();
  if (Done == FuncTable.size())
    return;
  FuncReads.resize(FuncTable.size());
  // Fixpoint over the newly added suffix only (earlier functions are
  // final; new functions can call them and each other, incl. recursion).
  bool Changed = true;
  int Guard = 0;
  while (Changed && ++Guard < 64) {
    Changed = false;
    for (size_t I = Done; I < FuncTable.size(); ++I) {
      ReadSet Reads;
      if (FuncTable[I]->Body)
        collect(*FuncTable[I]->Body, Reads);
      Reads.normalize();
      if (Reads != FuncReads[I]) {
        FuncReads[I] = std::move(Reads);
        Changed = true;
      }
    }
  }
}

void ReadSetCollector::collect(const Expr &E, ReadSet &Reads) const {
  switch (E.Kind) {
  case ExprKind::VarRef:
    if (E.Ref == RefKind::Store)
      Reads.Slots.push_back(E.Slot);
    break;
  case ExprKind::Index:
    if (E.Ref == RefKind::Store) {
      // Constant indices contribute one slot; dynamic indices may read any
      // element (templates can tighten this via read hints).
      Result<int64_t> Idx = foldConst(*E.Children[0]);
      if (Idx.ok() && *Idx >= 0 && *Idx < E.ArraySize)
        Reads.Slots.push_back(E.Slot + static_cast<int32_t>(*Idx));
      else
        Reads.Arrays.push_back({E.Slot, E.ArraySize});
    }
    break;
  case ExprKind::Call:
    if (E.FuncIndex >= 0 &&
        static_cast<size_t>(E.FuncIndex) < FuncReads.size())
      Reads.append(FuncReads[static_cast<size_t>(E.FuncIndex)]);
    break;
  default:
    break;
  }
  for (const ExprPtr &C : E.Children)
    collect(*C, Reads);
}

void ReadSetCollector::collect(const Stmt &S, ReadSet &Reads) const {
  if (S.Target)
    collect(*S.Target, Reads);
  if (S.Value)
    collect(*S.Value, Reads);
  if (S.Cond)
    collect(*S.Cond, Reads);
  if (S.Then)
    collect(*S.Then, Reads);
  if (S.Else)
    collect(*S.Else, Reads);
  for (const StmtPtr &B : S.Body)
    collect(*B, Reads);
}
