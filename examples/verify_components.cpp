//===- examples/verify_components.cpp - Observer verification demo ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Runs the §3 observer suite over the component library: every
// ARINC-653-derived requirement is checked by exhaustively exploring the
// component against a nondeterministic driver environment; the table shows
// the verdicts and state-space sizes. Also demonstrates that the observers
// have teeth by running the deliberately broken scheduler.
//
//   $ ./verify_components [ticks]
//
// ticks is the harness horizon, 1..20 (default 5); a malformed or
// out-of-range value, or a second argument, prints the usage and exits 1.
//
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"
#include "support/StringUtils.h"
#include "verify/Observers.h"

#include <cstdio>

using namespace swa;

namespace {
/// The state spaces grow steeply with the horizon: 20 ticks already take
/// about 25 s in an unoptimized build on a 4-core x86 VM.
constexpr uint64_t MaxTicks = 20;
} // namespace

int main(int argc, char **argv) {
  uint64_t Arg = 5;
  if (argc > 2 || (argc == 2 && (!parseDecimal(argv[1], Arg) || Arg < 1 ||
                                 Arg > MaxTicks))) {
    std::fprintf(stderr, "usage: verify_components [ticks]\n"
                         "  ticks  harness horizon, 1..%llu (default 5)\n",
                 static_cast<unsigned long long>(MaxTicks));
    return 1;
  }
  int Ticks = static_cast<int>(Arg);

  Result<std::vector<verify::VerificationOutcome>> Suite =
      verify::verifyComponentLibrary(Ticks);
  if (!Suite.ok()) {
    std::fprintf(stderr, "error: %s\n", Suite.error().message().c_str());
    return 1;
  }

  std::printf("%-10s %-45s %-8s %12s %14s\n", "req", "description",
              "verdict", "states", "transitions");
  bool AllHold = true;
  for (const verify::VerificationOutcome &O : *Suite) {
    std::printf("%-10s %-45s %-8s %12llu %14llu\n", O.Id.c_str(),
                O.Description.c_str(), O.Holds ? "HOLDS" : "VIOLATED",
                static_cast<unsigned long long>(O.States),
                static_cast<unsigned long long>(O.Transitions));
    AllHold = AllHold && O.Holds;
  }

  // Negative control: a scheduler that dispatches without preempting must
  // be caught by the single-execution observer.
  Result<verify::HarnessRun> Broken = verify::verifyBrokenTsIsCaught(Ticks);
  if (!Broken.ok()) {
    std::fprintf(stderr, "error: %s\n", Broken.error().message().c_str());
    return 1;
  }
  std::printf("\nnegative control (broken FPPS): %s after %llu states\n",
              Broken->Holds ? "NOT caught (problem!)" : "caught",
              static_cast<unsigned long long>(Broken->Mc.StatesExplored));
  if (!Broken->Holds && !Broken->Mc.Witness.empty()) {
    std::printf("counterexample (%zu steps):\n",
                Broken->Mc.Witness.size());
    for (const mc::WitnessStep &W : Broken->Mc.Witness)
      std::printf("  t=%-3lld %s\n", static_cast<long long>(W.Time),
                  W.Action.c_str());
  }

  return AllHold && !Broken->Holds ? 0 : 2;
}
