//===- usl/Ast.h - USL abstract syntax tree ---------------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The USL AST: expressions, statements, and declarations. Nodes carry a
/// Kind tag for switch-based dispatch (no RTTI, per the coding standards).
///
/// The same AST serves two phases:
///   * after parsing + sema, references point to Symbol objects and carry
///     types;
///   * after binding (template instantiation), a *cloned* tree additionally
///     carries concrete resolutions: absolute store slots for shared
///     variables, folded constants for template parameters, frame slots for
///     function locals, and function-table indices for calls.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_USL_AST_H
#define SWA_USL_AST_H

#include "usl/Token.h"
#include "usl/Type.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace swa {
namespace usl {

struct FuncDecl;

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

enum class SymbolKind {
  GlobalConst,   ///< Global constant (scalar or array); values folded.
  GlobalVar,     ///< Shared state variable in the network store.
  GlobalClock,   ///< Clock declared in network declarations.
  Channel,       ///< Channel or channel array.
  Function,      ///< Global or template-local function.
  TemplateParam, ///< Formal parameter of a template (int / int array / chan).
  TemplateVar,   ///< Template-local state variable (one copy per instance).
  TemplateClock, ///< Template-local clock (one copy per instance).
  FuncParam,     ///< Function formal parameter (frame slot).
  FuncLocal,     ///< Function local variable (frame slot).
  SelectVar,     ///< Edge select binding (frame slot).
};

/// A named entity. Symbols are owned by the Declarations (or Template) that
/// introduced them and referenced by pointer from AST nodes.
struct Symbol {
  SymbolKind Kind;
  std::string Name;
  Type Ty;
  /// Category-relative index: declaration order for vars/clocks/channels,
  /// frame slot for FuncParam/FuncLocal/SelectVar.
  int Index = -1;
  /// Folded values for GlobalConst (size 1 for scalars).
  std::vector<int64_t> ConstValues;
  /// Broadcast flag for channels.
  bool Broadcast = false;
  /// Body for Function symbols.
  FuncDecl *Func = nullptr;
  /// Optional declared value range for int variables (int[lo,hi] x).
  bool HasRange = false;
  int64_t RangeLo = 0;
  int64_t RangeHi = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  IntLit,
  BoolLit,
  VarRef,
  Index,
  Call,
  Unary,
  Binary,
  Ternary,
};

enum class UnaryOp { Neg, Not };

/// Marks boolean nodes that involve clocks. Such atoms may appear only as
/// top-level conjuncts of guards/invariants; the parser's entry points split
/// them out of the expression tree.
enum class ClockAtomKind {
  None,
  Rel,  ///< `clock <op> int-expr` (guards and invariant upper bounds).
  Rate, ///< `clock' == int-expr` (stopwatch rate condition in invariants).
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  Min, // Internal: used by folded library helpers.
  Max,
};

/// How a (cloned, bound) reference resolves at run time.
enum class RefKind {
  Unresolved, ///< Pre-bind state.
  Const,      ///< Folded constant scalar (in ConstValue).
  ConstArray, ///< Folded constant array (index into instance const table).
  Store,      ///< Absolute slot(s) in the network variable store.
  Frame,      ///< Slot in the current evaluation frame.
  ClockRef,   ///< Absolute clock index (only in clock contexts).
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind Kind;
  Type Ty;
  SourceLoc Loc;

  // IntLit / BoolLit.
  int64_t Literal = 0;

  // VarRef / Index / Call: the referenced symbol (null after folding).
  Symbol *Sym = nullptr;

  // Post-bind resolution for VarRef / Index.
  RefKind Ref = RefKind::Unresolved;
  int64_t ConstValue = 0; ///< RefKind::Const.
  int Slot = -1;          ///< Store slot / frame slot / clock index /
                          ///< const-table index (ConstArray) / array base.
  int ArraySize = 0;      ///< Bound size for array references.

  // Index: Children[0] = index expression.
  // Call:  Children = arguments. Post-bind, FuncIndex selects the resolved
  //        function in the instance function table.
  int FuncIndex = -1;

  // Unary/Binary/Ternary operands live in Children:
  //   Unary:   [operand]
  //   Binary:  [lhs, rhs]
  //   Ternary: [cond, then, else]
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;

  /// Clock involvement marker; see ClockAtomKind. For an atom node, Sym is
  /// the clock symbol, BOp the relation, Children[0] the integer bound.
  /// HasClockAtom propagates up through `&&` nodes.
  ClockAtomKind ClockAtom = ClockAtomKind::None;
  bool HasClockAtom = false;

  std::vector<ExprPtr> Children;

  static ExprPtr makeInt(int64_t V, SourceLoc Loc = {}) {
    auto E = std::make_unique<Expr>();
    E->Kind = ExprKind::IntLit;
    E->Ty = Type::makeInt();
    E->Literal = V;
    E->Loc = Loc;
    return E;
  }
  static ExprPtr makeBool(bool V, SourceLoc Loc = {}) {
    auto E = std::make_unique<Expr>();
    E->Kind = ExprKind::BoolLit;
    E->Ty = Type::makeBool();
    E->Literal = V ? 1 : 0;
    E->Loc = Loc;
    return E;
  }
};

/// Copy of one expression node, resolutions included, without its
/// children (the Binder fills those in bottom-up).
ExprPtr copyExprNode(const Expr &E);

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Block,
  LocalDecl,
  Assign,
  If,
  While,
  For,
  Return,
  ExprStmt,
};

enum class AssignOp { Set, Add, Sub };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind Kind;
  SourceLoc Loc;

  // Block: Body. For: Body[0]=init stmt, Body[1]=step stmt, then Cond and
  // LoopBody. While: Cond + LoopBody. If: Cond, Then, Else(optional).
  std::vector<StmtPtr> Body;

  // LocalDecl: declared symbol + optional Value (init). After binding the
  // frame slot/extent are copied here so that evaluation never touches the
  // Symbol (whose owning Declarations may not outlive the bound network).
  Symbol *DeclSym = nullptr;
  int DeclFrameSlot = -1;
  int DeclFrameCount = 1;

  // Assign: Target (VarRef or Index lvalue) + Value.
  AssignOp AOp = AssignOp::Set;
  ExprPtr Target;

  // Assign init / Return value / ExprStmt expression / LocalDecl init.
  ExprPtr Value;

  // If / While / For condition.
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else;
};

/// Copy of one statement node without its sub-expressions and
/// sub-statements (the Binder fills those in bottom-up).
StmtPtr copyStmtNode(const Stmt &S);

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

/// A USL function definition.
struct FuncDecl {
  Symbol *Sym = nullptr;
  Type RetTy;
  std::vector<Symbol *> Params; ///< Frame slots 0..N-1.
  int FrameSize = 0;            ///< Params + all locals.
  StmtPtr Body;
  /// True if the function (transitively) writes shared state; such
  /// functions may not be called from guards or invariants.
  bool WritesState = false;
};

} // namespace usl
} // namespace swa

#endif // SWA_USL_AST_H
