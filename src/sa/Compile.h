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

namespace swa {
namespace sa {

/// Compiles all USL code of \p Net in place.
Error compileNetwork(Network &Net);

/// Strips all bytecode from \p Net so the engines fall back to the
/// tree-walking interpreter per site. The inverse ablation of
/// compileNetwork: used by the interpreter-vs-VM benchmarks and by the
/// differential harness's VM-vs-interpreter oracle pair.
void stripBytecode(Network &Net);

/// Visits every bytecode site of \p Net in the order compileNetwork fills
/// them: functions, then per automaton its location invariants, bounds and
/// rates, then its edge guards, bounds, sync indices and updates. Only
/// sites that have source code are visited. stripBytecode clears through
/// this walk, so it is the one definition of which sites exist.
void forEachCodeSite(Network &Net, const std::function<void(usl::Code &)> &Fn);

} // namespace sa
} // namespace swa

#endif // SWA_SA_COMPILE_H
