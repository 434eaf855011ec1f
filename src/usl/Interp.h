//===- usl/Interp.h - Evaluation of bound USL trees -------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree-walking evaluator for *bound* USL expressions and statements (see
/// Binder.h). Evaluation reads/writes the network's flat variable store;
/// writes are appended to an optional write log that the simulator uses for
/// dependency-based dirty tracking.
///
/// Runtime errors (out-of-bounds indices, division by zero, runaway
/// recursion or loops) are programming errors in a model; they print a
/// message and abort. Models from this repository's library are verified
/// never to trigger them.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_USL_INTERP_H
#define SWA_USL_INTERP_H

#include "usl/Ast.h"

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace swa {
namespace usl {

/// Shared evaluation state: the variable store, instance constant arrays,
/// the resolved function table, and the reusable frame stack.
struct EvalContext {
  std::vector<int64_t> *Store = nullptr;
  const std::vector<std::vector<int64_t>> *ConstArrays = nullptr;
  const std::vector<const FuncDecl *> *FuncTable = nullptr;
  /// When non-null, every written store slot is appended here.
  std::vector<int32_t> *WriteLog = nullptr;

  /// Frame stack shared by nested calls; FrameBase offsets index into it.
  std::vector<int64_t> FrameStack;
  int CallDepth = 0;
  /// Remaining statement/expression step budget for one top-level
  /// evaluation; reset by the engine before each guard/update.
  int64_t StepBudget = 0;
};

/// Default per-evaluation step budget.
inline constexpr int64_t DefaultStepBudget = 1 << 22;

/// Maximum call nesting depth.
inline constexpr int MaxCallDepth = 64;

/// Evaluates a bound expression. \p FrameBase is the offset of the current
/// frame within Ctx.FrameStack (select values for edge expressions, the
/// callee frame inside function bodies).
int64_t evalExpr(const Expr &E, EvalContext &Ctx, size_t FrameBase);

/// Executes a bound statement sequence (an update label or function body
/// fragment).
void execStmts(const std::vector<StmtPtr> &Stmts, EvalContext &Ctx,
               size_t FrameBase);

/// The store slots a piece of code may read. Constant-index and scalar
/// reads are single slots; a dynamically indexed store array stays
/// symbolic as one (base, size) entry, so a read set costs what the code
/// costs, not what the array costs. Consumers narrow the array entries
/// (templates' read hints drop them) before expanding the rest.
struct ReadSet {
  struct ArrayRead {
    int32_t Base = 0;
    int32_t Size = 0;
    auto operator<=>(const ArrayRead &) const = default;
  };
  std::vector<int32_t> Slots;
  std::vector<ArrayRead> Arrays;

  bool operator==(const ReadSet &) const = default;

  void append(const ReadSet &Other);
  /// Forgets every read of the store array at [Base, Base + Size): its
  /// whole-array entries, unexpanded, and its single slots. Store
  /// variables never overlap, so an entry at Base is that array.
  void dropArray(int32_t Base, int32_t Size);
  /// Sorts and deduplicates both lists.
  void normalize();
  /// Every slot of the set, array entries expanded: sorted, unique.
  std::vector<int32_t> expand() const;
};

/// Computes, per function of a (growing) function table, the set of store
/// slots it may transitively read. Used to build the simulator's variable
/// watch lists. Array accesses with constant indices contribute a single
/// slot; dynamic indices contribute a whole-array ReadSet entry, which a
/// call site propagates as is.
///
/// The collector is incremental: refresh() processes only functions added
/// to the table since the last call (running the recursion fixpoint over
/// that suffix), so per-instance cost during network construction stays
/// proportional to the instance's own functions.
class ReadSetCollector {
public:
  explicit ReadSetCollector(const std::vector<const FuncDecl *> &FuncTable);

  /// Processes newly appended functions.
  void refresh();

  /// Adds everything \p E may read to \p Reads (entries may repeat;
  /// ReadSet::normalize or expand deduplicates).
  void collect(const Expr &E, ReadSet &Reads) const;
  void collect(const Stmt &S, ReadSet &Reads) const;

private:
  const std::vector<const FuncDecl *> &FuncTable;
  std::vector<ReadSet> FuncReads;
};

} // namespace usl
} // namespace swa

#endif // SWA_USL_INTERP_H
