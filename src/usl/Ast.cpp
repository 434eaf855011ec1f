//===- usl/Ast.cpp - USL AST node copies ----------------------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "usl/Ast.h"

using namespace swa;
using namespace swa::usl;

ExprPtr swa::usl::copyExprNode(const Expr &E) {
  auto Out = std::make_unique<Expr>();
  Out->Kind = E.Kind;
  Out->Ty = E.Ty;
  Out->Loc = E.Loc;
  Out->Literal = E.Literal;
  Out->Sym = E.Sym;
  Out->Ref = E.Ref;
  Out->ConstValue = E.ConstValue;
  Out->Slot = E.Slot;
  Out->ArraySize = E.ArraySize;
  Out->FuncIndex = E.FuncIndex;
  Out->UOp = E.UOp;
  Out->BOp = E.BOp;
  Out->ClockAtom = E.ClockAtom;
  Out->HasClockAtom = E.HasClockAtom;
  return Out;
}

StmtPtr swa::usl::copyStmtNode(const Stmt &S) {
  auto Out = std::make_unique<Stmt>();
  Out->Kind = S.Kind;
  Out->Loc = S.Loc;
  Out->DeclSym = S.DeclSym;
  Out->DeclFrameSlot = S.DeclFrameSlot;
  Out->DeclFrameCount = S.DeclFrameCount;
  Out->AOp = S.AOp;
  return Out;
}
