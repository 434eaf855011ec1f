//===- usl/Binder.cpp - Template instantiation binding ---------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Binder.h"

#include "support/StringUtils.h"
#include "usl/Parser.h"

using namespace swa;
using namespace swa::usl;

int Binder::internConstArray(const std::vector<int64_t> &Values) {
  Target.ConstArrays.push_back(Values);
  return static_cast<int>(Target.ConstArrays.size() - 1);
}

Result<int> Binder::clockIndex(const Symbol *Sym) const {
  auto It = ClockMap.find(Sym);
  if (It == ClockMap.end())
    return Error::failure("unbound clock '" + Sym->Name + "'");
  return It->second;
}

Result<int> Binder::bindFunc(const FuncDecl *F) {
  auto It = FuncMap.find(F);
  if (It != FuncMap.end())
    return It->second;
  // Reserve the slot before binding the body so direct recursion resolves.
  auto Bound = std::make_unique<FuncDecl>();
  Bound->Sym = F->Sym;
  Bound->RetTy = F->RetTy;
  Bound->Params = F->Params;
  Bound->FrameSize = F->FrameSize;
  Bound->WritesState = F->WritesState;
  FuncDecl *BoundRaw = Bound.get();
  Target.OwnedFuncs.push_back(std::move(Bound));
  Target.FuncTable.push_back(BoundRaw);
  int Index = static_cast<int>(Target.FuncTable.size() - 1);
  FuncMap[F] = Index;

  assert(F->Body && "binding a function without a body");
  Result<StmtPtr> Body = bindStmt(*F->Body);
  if (!Body.ok())
    return Body.takeError().withContext("in function '" + F->Sym->Name +
                                        "'");
  BoundRaw->Body = Body.takeValue();
  return Index;
}

Result<ExprPtr> Binder::bindExpr(const Expr &E) {
  // Bind bottom-up: each source node is copied once, into a node whose
  // children are the already-bound copies of its own.
  ExprPtr Out = copyExprNode(E);
  Out->Children.reserve(E.Children.size());
  for (const ExprPtr &C : E.Children) {
    Result<ExprPtr> B = bindExpr(*C);
    if (!B.ok())
      return B;
    Out->Children.push_back(B.takeValue());
  }

  auto ErrAt = [&](const std::string &Msg) {
    return Error::failure(formatString("%d:%d: %s", E.Loc.Line, E.Loc.Col,
                                       Msg.c_str()));
  };

  switch (Out->Kind) {
  case ExprKind::VarRef: {
    const Symbol *S = Out->Sym;
    assert(S && "unresolved VarRef at bind time");
    switch (S->Kind) {
    case SymbolKind::GlobalVar:
    case SymbolKind::TemplateVar: {
      auto It = StoreMap.find(S);
      if (It == StoreMap.end())
        return ErrAt("unbound variable '" + S->Name + "'");
      Out->Ref = RefKind::Store;
      Out->Slot = It->second;
      Out->ArraySize = S->Ty.isArray() ? S->Ty.Size : 1;
      break;
    }
    case SymbolKind::TemplateParam: {
      auto It = ParamMap.find(S);
      if (It == ParamMap.end())
        return ErrAt("unbound template parameter '" + S->Name + "'");
      if (S->Ty.isArray()) {
        auto CIt = ConstArrayMap.find(S);
        int CA;
        if (CIt == ConstArrayMap.end()) {
          CA = internConstArray(It->second);
          ConstArrayMap[S] = CA;
        } else {
          CA = CIt->second;
        }
        Out->Ref = RefKind::ConstArray;
        Out->Slot = CA;
        Out->ArraySize = static_cast<int>(It->second.size());
      } else {
        if (It->second.size() != 1)
          return ErrAt("scalar parameter '" + S->Name +
                       "' bound to an array value");
        // Fold to a literal.
        if (S->Ty.isBool())
          return Expr::makeBool(It->second[0] != 0, Out->Loc);
        return Expr::makeInt(It->second[0], Out->Loc);
      }
      break;
    }
    case SymbolKind::GlobalConst: {
      // Scalar consts are folded by the parser; arrays flow through Index.
      if (!S->Ty.isArray())
        return Expr::makeInt(S->ConstValues[0], Out->Loc);
      auto CIt = ConstArrayMap.find(S);
      int CA;
      if (CIt == ConstArrayMap.end()) {
        CA = internConstArray(S->ConstValues);
        ConstArrayMap[S] = CA;
      } else {
        CA = CIt->second;
      }
      Out->Ref = RefKind::ConstArray;
      Out->Slot = CA;
      Out->ArraySize = static_cast<int>(S->ConstValues.size());
      break;
    }
    case SymbolKind::FuncParam:
    case SymbolKind::FuncLocal:
    case SymbolKind::SelectVar:
      Out->Ref = RefKind::Frame;
      Out->Slot = S->Index;
      Out->ArraySize = S->Ty.isArray() ? S->Ty.Size : 1;
      break;
    case SymbolKind::GlobalClock:
    case SymbolKind::TemplateClock: {
      Result<int> CI = clockIndex(S);
      if (!CI.ok())
        return CI.takeError();
      Out->Ref = RefKind::ClockRef;
      Out->Slot = *CI;
      break;
    }
    case SymbolKind::Channel:
    case SymbolKind::Function:
      return ErrAt("'" + S->Name + "' cannot be used as a value");
    }
    break;
  }
  case ExprKind::Index: {
    const Symbol *S = Out->Sym;
    assert(S && "unresolved Index at bind time");
    // Resolve the base exactly like a VarRef would.
    Expr BaseRef;
    BaseRef.Kind = ExprKind::VarRef;
    BaseRef.Sym = Out->Sym;
    BaseRef.Ty = S->Ty;
    BaseRef.Loc = Out->Loc;
    Result<ExprPtr> Base = bindExpr(BaseRef);
    if (!Base.ok())
      return Base;
    Out->Ref = (*Base)->Ref;
    Out->Slot = (*Base)->Slot;
    Out->ArraySize = (*Base)->ArraySize;
    if (Out->Ref != RefKind::Store && Out->Ref != RefKind::ConstArray &&
        Out->Ref != RefKind::Frame)
      return ErrAt("cannot index '" + S->Name + "'");
    // Fold constant indexing of constant arrays.
    if (Out->Ref == RefKind::ConstArray) {
      Result<int64_t> Idx = foldConst(*Out->Children[0]);
      if (Idx.ok()) {
        if (*Idx < 0 || *Idx >= Out->ArraySize)
          return ErrAt(formatString("constant index %lld out of bounds "
                                    "(array size %d)",
                                    static_cast<long long>(*Idx),
                                    Out->ArraySize));
        const std::vector<int64_t> &Values =
            Target.ConstArrays[static_cast<size_t>(Out->Slot)];
        return Expr::makeInt(Values[static_cast<size_t>(*Idx)], Out->Loc);
      }
    }
    break;
  }
  case ExprKind::Call: {
    assert(Out->Sym && Out->Sym->Func && "unresolved call at bind time");
    Result<int> FI = bindFunc(Out->Sym->Func);
    if (!FI.ok())
      return FI.takeError();
    Out->FuncIndex = *FI;
    break;
  }
  default:
    break;
  }

  // Post-bind folding of pure arithmetic.
  if (!Out->HasClockAtom && Out->Kind != ExprKind::Call &&
      Out->Kind != ExprKind::VarRef) {
    Result<int64_t> V = foldConst(*Out);
    if (V.ok()) {
      if (Out->Ty.isBool())
        return Expr::makeBool(*V != 0, Out->Loc);
      if (Out->Ty.isInt())
        return Expr::makeInt(*V, Out->Loc);
    }
  }
  return Out;
}

Result<StmtPtr> Binder::bindStmt(const Stmt &S) {
  StmtPtr Out = copyStmtNode(S);
  if (Out->Kind == StmtKind::LocalDecl) {
    // Copy the frame extent out of the Symbol: bound trees must be usable
    // after the template's declarations are gone.
    Out->DeclFrameSlot = S.DeclSym->Index;
    Out->DeclFrameCount =
        S.DeclSym->Ty.isArray() ? S.DeclSym->Ty.Size : 1;
    Out->DeclSym = nullptr;
  }
  if (S.Target) {
    Result<ExprPtr> B = bindExpr(*S.Target);
    if (!B.ok())
      return B.takeError();
    Out->Target = B.takeValue();
  }
  if (S.Value) {
    Result<ExprPtr> B = bindExpr(*S.Value);
    if (!B.ok())
      return B.takeError();
    Out->Value = B.takeValue();
  }
  if (S.Cond) {
    Result<ExprPtr> B = bindExpr(*S.Cond);
    if (!B.ok())
      return B.takeError();
    Out->Cond = B.takeValue();
  }
  if (S.Then) {
    Result<StmtPtr> B = bindStmt(*S.Then);
    if (!B.ok())
      return B;
    Out->Then = B.takeValue();
  }
  if (S.Else) {
    Result<StmtPtr> B = bindStmt(*S.Else);
    if (!B.ok())
      return B;
    Out->Else = B.takeValue();
  }
  Out->Body.reserve(S.Body.size());
  for (const StmtPtr &B : S.Body) {
    Result<StmtPtr> R = bindStmt(*B);
    if (!R.ok())
      return R;
    Out->Body.push_back(R.takeValue());
  }
  return Out;
}

Result<int64_t> Binder::bindAndFold(const Expr &E) {
  Result<ExprPtr> B = bindExpr(E);
  if (!B.ok())
    return B.takeError();
  return foldConst(**B);
}
