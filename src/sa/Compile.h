//===- sa/Compile.h - Compile a network's USL code to bytecode --*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles every guard, update, invariant bound, rate condition, sync
/// index and function of a bound network to bytecode (see usl/Bytecode.h).
/// The simulator and model checker then execute the VM code instead of
/// walking trees; networks that skip this pass still run (the engines
/// fall back to the interpreter per site), which is what the
/// interpreter-vs-VM ablation in bench_engine exploits.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SA_COMPILE_H
#define SWA_SA_COMPILE_H

#include "sa/Network.h"

#include <functional>
#include <string>
#include <vector>

namespace swa {
namespace sa {

/// Compiles all USL code of \p Net in place.
Error compileNetwork(Network &Net);

/// Strips all bytecode from \p Net so the engines fall back to the
/// tree-walking interpreter per site. The inverse ablation of
/// compileNetwork: used by the interpreter-vs-VM benchmarks and by the
/// differential harness's VM-vs-interpreter oracle pair.
void stripBytecode(Network &Net);

/// One bytecode site of a network: the slot its code lives in, the source
/// it compiles from (exactly one of Func, Expr and Stmts is set), and the
/// names that label it in compile errors.
struct CodeSite {
  usl::Code &Code;
  const usl::FuncDecl *Func;
  const usl::Expr *Expr;
  const std::vector<usl::StmtPtr> *Stmts;
  /// The function's or the automaton's name.
  const std::string &Owner;
  /// The site's kind: "function", "invariant", "guard", "update", ...
  const char *What;

  /// "function 'f'" or "<automaton> <kind>".
  std::string label() const;
};

/// Visits every bytecode site of \p Net in one fixed order: functions, then
/// per automaton its location invariants, bounds and rates, then its edge
/// guards, bounds, sync indices and updates. Only sites that have source
/// code are visited, and functions only as far as Net.FuncCode holds slots
/// for them (compileNetwork sizes it to Bind.FuncTable first).
/// compileNetwork fills and stripBytecode clears through this walk, so it
/// is the one definition of which sites exist.
void forEachCodeSite(Network &Net,
                     const std::function<void(const CodeSite &)> &Fn);

/// The same walk, visiting each site's code slot only.
void forEachCodeSite(Network &Net, const std::function<void(usl::Code &)> &Fn);

} // namespace sa
} // namespace swa

#endif // SWA_SA_COMPILE_H
