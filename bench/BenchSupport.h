//===- bench/BenchSupport.h - Shared bench main with --metrics --*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench binary uses SWA_BENCH_MAIN() instead of BENCHMARK_MAIN():
/// it accepts a `--metrics` flag (stripped before google-benchmark sees
/// the arguments) that turns the observability layer on for the whole
/// process. Simulation-driving benchmarks then call exportObsCounters()
/// after their measurement loop so the engine counter totals land in the
/// per-benchmark user counters — and therefore in the JSON emitted via
/// `--benchmark_out=FILE.json`, giving each wall-time point its
/// event-count context. A full text report also goes to stderr at exit.
/// A run in which no benchmark matched the filter exits non-zero, so a
/// stale --benchmark_filter fails loudly instead of passing vacuously.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_BENCH_BENCHSUPPORT_H
#define SWA_BENCH_BENCHSUPPORT_H

#include "obs/Metrics.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <string_view>

namespace swa {
namespace benchsupport {

/// Strips every `--metrics` occurrence from argv; returns true when one
/// was present.
inline bool consumeMetricsFlag(int &Argc, char **Argv) {
  bool Found = false;
  int W = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::string_view(Argv[I]) == "--metrics") {
      Found = true;
      continue;
    }
    Argv[W++] = Argv[I];
  }
  Argc = W;
  return Found;
}

/// Copies every obs registry counter into the benchmark's user counters
/// (prefixed "obs."), then resets the registry so the next benchmark
/// reports only its own events. No-op when metrics are off.
inline void exportObsCounters(benchmark::State &State) {
  if (!obs::enabled())
    return;
  for (const auto &[Name, Value] : obs::Registry::global().counterValues())
    State.counters["obs." + Name] =
        benchmark::Counter(static_cast<double>(Value));
  obs::Registry::global().reset();
}

} // namespace benchsupport
} // namespace swa

/// How THIS binary (and the swa libraries it statically links) was
/// compiled. Google benchmark's own "library_build_type" context key
/// describes the prebuilt libbenchmark — on Debian that library is built
/// without NDEBUG and self-reports "debug" even when every measured
/// instruction is from a Release build — so a script that keeps a
/// benchmark's JSON should check this key instead.
#ifdef NDEBUG
#define SWA_BENCH_BUILD_TYPE "release"
#else
#define SWA_BENCH_BUILD_TYPE "debug"
#endif

#define SWA_BENCH_MAIN()                                                    \
  int main(int argc, char **argv) {                                         \
    char arg0_default[] = "benchmark";                                      \
    char *args_default = arg0_default;                                      \
    if (!argv) {                                                            \
      argc = 1;                                                             \
      argv = &args_default;                                                 \
    }                                                                       \
    if (swa::benchsupport::consumeMetricsFlag(argc, argv))                  \
      swa::obs::setEnabled(true);                                           \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))               \
      return 1;                                                             \
    ::benchmark::AddCustomContext("swa_build_type", SWA_BENCH_BUILD_TYPE);  \
    size_t Ran = ::benchmark::RunSpecifiedBenchmarks();                     \
    ::benchmark::Shutdown();                                                \
    if (swa::obs::enabled()) {                                              \
      std::cerr << "--- observability report (--metrics) ---\n";            \
      swa::obs::report(std::cerr);                                          \
    }                                                                       \
    if (Ran == 0) {                                                         \
      std::cerr << "error: no benchmark matched the filter\n";              \
      return 1;                                                             \
    }                                                                       \
    return 0;                                                               \
  }                                                                         \
  int main(int, char **)

#endif // SWA_BENCH_BENCHSUPPORT_H
