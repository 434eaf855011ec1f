//===- perfbench/swabench.cpp - End-to-end benchmark harness --------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// One process per run. Sets the workload up several times (inputs from the
// seed, serialization, goldens, one warm-up answer), then answers for the
// given number of seconds in a closed loop on one client, checking every
// answer against its golden. Prints one JSON result line last:
//
//   swabench --workload verdict-e2 --seed 1 --seconds 10 --trace 0
//            --goldens perfbench/goldens --scratch DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from alternating untraced and traced cycles of the inputs). --smoke
// answers once untraced and once traced and reports both sets.
// --record-goldens FILE answers pool keys 1, 2, ... with Workers=1 and
// writes the first poolSize() admissible ones as the golden pool.
// --stamp prints how this binary was compiled.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace swabench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

#ifdef NDEBUG
constexpr bool Assertions = false;
#else
constexpr bool Assertions = true;
#endif

uint64_t cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(T.tv_nsec);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool Stamp = false;
  std::string Goldens = "perfbench/goldens";
  std::string Scratch = ".";
  std::string RecordTo;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--stamp") {
      O.Stamp = true;
    } else if (!(V = Next())) {
      std::fprintf(stderr, "error: %s needs a value\n", A.c_str());
      return false;
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--goldens") {
      O.Goldens = V;
    } else if (A == "--scratch") {
      O.Scratch = V;
    } else if (A == "--record-goldens") {
      O.RecordTo = V;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", A.c_str());
      return false;
    }
  }
  return true;
}

void printStamp() {
  std::string Workers;
  for (const std::string &Name : workloadNames())
    Workers += (Workers.empty() ? "\"" : ", \"") + Name + "\": " +
               std::to_string(makeWorkload(Name, ".")->workers());
  std::printf("{\"compiler\": \"%s\", \"cmake_build_type\": \"%s\", "
              "\"swa_build_type\": \"%s\", \"sanitized\": %s, "
              "\"workers\": {%s}}\n",
              SWABENCH_COMPILER, SWABENCH_BUILD_TYPE,
              Assertions ? "debug" : "release", Sanitized ? "true" : "false",
              Workers.c_str());
}

/// Golden pool of one workload: pool key -> digest of the canonical answer.
struct Golden {
  uint64_t Key = 0;
  uint64_t Digest = 0;
};

bool loadGoldens(const std::string &Path, std::vector<Golden> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  Out.clear();
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    Golden G;
    std::string Hex;
    if (!(LS >> G.Key >> Hex))
      return false;
    G.Digest = std::strtoull(Hex.c_str(), nullptr, 16);
    Out.push_back(G);
  }
  return !Out.empty();
}

int recordGoldens(Workload &W, const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 1;
  }
  Out << "# Golden answers of " << W.name()
      << ", recorded with Workers=1 by `python3 perfbench/run.py "
         "record-goldens`.\n# pool-key digest summary\n";
  int Kept = 0;
  for (uint64_t Key = 1; Kept < W.poolSize() && Key <= 1000; ++Key) {
    W.clear();
    std::string Err;
    if (!W.prepare(Key, W.makeInput(Key), Err)) {
      std::fprintf(stderr, "key %llu: %s\n",
                   static_cast<unsigned long long>(Key), Err.c_str());
      continue;
    }
    Answer A = W.answer(0, 1);
    if (!A.Ok || !A.Poolable) {
      std::fprintf(stderr, "key %llu: not pooled (%s)\n",
                   static_cast<unsigned long long>(Key),
                   A.Ok ? A.Summary.c_str() : A.Error.c_str());
      continue;
    }
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(digest(A.Golden)));
    Out << Key << ' ' << Hex << ' ' << A.Summary << '\n';
    std::fprintf(stderr, "key %llu: %s (%.1f ms)\n",
                 static_cast<unsigned long long>(Key), A.Summary.c_str(),
                 static_cast<double>(A.WallNs) / 1e6);
    ++Kept;
  }
  return Kept == W.poolSize() ? 0 : 1;
}

/// Answer tallies of one run.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

class Runner {
public:
  Runner(Workload &W, const Options &O) : W(W), O(O) {}

  /// Generates the ring's inputs, serializes and prepares them, loads the
  /// goldens and answers the pool's first entry once, untimed; that
  /// warm-up input does not depend on the seed, so neither does the
  /// set-up's cost. Returns seconds taken, or a negative value when the
  /// set-up itself failed.
  double setUp() {
    uint64_t T0 = nowNs();
    W.clear();
    Ring.clear();
    std::vector<Golden> Pool;
    std::string Path = O.Goldens + "/" + W.name() + ".txt";
    if (!loadGoldens(Path, Pool)) {
      std::fprintf(stderr, "error: no goldens at %s\n", Path.c_str());
      return -1;
    }
    Golden WarmUp = Pool.front();
    // The seed picks and orders the ring from the golden pool.
    swa::Rng R(O.Seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995ULL);
    for (size_t I = Pool.size(); I > 1; --I)
      std::swap(Pool[I - 1], Pool[R.next() % I]);
    Pool.resize(std::min<size_t>(Pool.size(), W.ringSize()));
    Pool.push_back(WarmUp);
    for (const Golden &G : Pool) {
      std::string Err;
      if (!W.prepare(G.Key, W.makeInput(G.Key), Err)) {
        std::fprintf(stderr, "error: input %llu: %s\n",
                     static_cast<unsigned long long>(G.Key), Err.c_str());
        return -1;
      }
    }
    Ring.assign(Pool.begin(), Pool.end() - 1);
    check(WarmUp, W.answer(static_cast<int>(Ring.size()), W.workers()));
    return static_cast<double>(nowNs() - T0) / 1e9;
  }

  /// Answers whole cycles of the ring for at least \p Seconds, so every
  /// run weighs the ring's inputs equally. With \p Trace, cycles alternate
  /// untraced and traced, in pairs, so both see the same host conditions.
  /// Smoke runs answer once each way instead.
  void run(double Seconds, bool Trace) {
    uint64_t Cpu0 = cpuNs();
    uint64_t T0 = nowNs();
    uint64_t Budget = static_cast<uint64_t>(Seconds * 1e9);
    if (O.Smoke) {
      answer(0, false);
      if (Trace)
        answer(Ring.size() - 1, true);
    }
    for (int C = 0; !O.Smoke; ++C) {
      bool PairOpen = Trace && C % 2 == 1;
      if (C > 0 && !PairOpen && nowNs() - T0 >= Budget)
        break;
      for (size_t Slot = 0; Slot < Ring.size(); ++Slot)
        answer(Slot, PairOpen);
    }
    LoopNs = nowNs() - T0;
    LoopCpuNs = cpuNs() - Cpu0;
    logSpread("untraced", AnswerMs);
    logSpread("traced", TracedMs);
  }

  void endToEnd(std::vector<std::string> &Out, double SetupS) const {
    double N = static_cast<double>(AnswerMs.size());
    rusage RU{};
    getrusage(RUSAGE_SELF, &RU);
    Out.push_back(metric("answer_ms_p50", median(AnswerMs), "ms"));
    Out.push_back(metric("answers_per_s",
                         N / (static_cast<double>(LoopNs) / 1e9), "1/s"));
    Out.push_back(metric("cpu_ms_per_answer",
                         static_cast<double>(LoopCpuNs) / 1e6 / N, "ms"));
    Out.push_back(metric("peak_rss_mb",
                         static_cast<double>(RU.ru_maxrss) / 1024.0, "MB"));
    Out.push_back(metric("setup_s", SetupS, "s"));
  }

  void perLayer(std::vector<std::string> &Out) const {
    double N = static_cast<double>(TracedMs.size());
    for (const auto &[Name, Unit] : layerMetrics()) {
      double V = 0.0;
      if (Name == "failed_share")
        V = Counts.Attempted ? static_cast<double>(Counts.Failed) /
                                   static_cast<double>(Counts.Attempted)
                             : 0.0;
      else if (Name == "unattributed_share")
        // The answer's thread capacity (wall x Workers) that no layer
        // accounts for: on one thread, the gaps between the layers; with
        // more, also the pool's idle time.
        V = TracedWallNs ? 1.0 - static_cast<double>(TracedCoveredNs) /
                                     (static_cast<double>(TracedWallNs) *
                                      W.workers())
                         : 0.0;
      else if (Name == "trace_overhead_share")
        V = median(AnswerMs) > 0 ? median(TracedMs) / median(AnswerMs) - 1.0
                                 : 0.0;
      else if (auto It = LayerSums.find(Name);
               It != LayerSums.end() && N > 0)
        V = It->second / N;
      Out.push_back(metric(Name, V, Unit));
    }
  }

  const Tally &tally() const { return Counts; }

private:
  void answer(size_t Slot, bool Traced) {
    int I = static_cast<int>(Slot);
    if (!Traced) {
      Answer A = W.answer(I, W.workers());
      check(Ring[Slot], A);
      AnswerMs.push_back(static_cast<double>(A.WallNs) / 1e6);
      return;
    }
    LayerSample S;
    Answer A = W.answerTraced(I, W.workers(), S);
    check(Ring[Slot], A);
    if (!A.Ok)
      return;
    TracedMs.push_back(static_cast<double>(A.WallNs) / 1e6);
    TracedWallNs += A.WallNs;
    TracedCoveredNs += S.CoveredNs;
    for (auto &[Name, V] : S.Values)
      LayerSums[Name] += V;
  }

  /// Per-answer times on stderr: a diagnostic for noisy hosts.
  void logSpread(const char *Kind, std::vector<double> Ms) const {
    if (Ms.empty())
      return;
    std::sort(Ms.begin(), Ms.end());
    auto At = [&](double Q) {
      return Ms[static_cast<size_t>(Q * static_cast<double>(Ms.size() - 1))];
    };
    std::fprintf(stderr,
                 "%s %s: %zu answers, ms min %.1f q1 %.1f median %.1f q3 "
                 "%.1f max %.1f\n",
                 W.name(), Kind, Ms.size(), Ms.front(), At(0.25), median(Ms),
                 At(0.75), Ms.back());
  }

  void check(const Golden &G, const Answer &A) {
    ++Counts.Attempted;
    if (!A.Ok) {
      ++Counts.Failed;
      std::fprintf(stderr, "FAIL %s key %llu: %s\n", W.name(),
                   static_cast<unsigned long long>(G.Key), A.Error.c_str());
    } else if (digest(A.Golden) != G.Digest) {
      ++Counts.Failed;
      std::fprintf(stderr, "FAIL %s key %llu: golden mismatch: %s\n",
                   W.name(), static_cast<unsigned long long>(G.Key),
                   A.Summary.c_str());
    }
  }

  static std::string metric(const std::string &Name, double V,
                            const std::string &Unit) {
    if (!std::isfinite(V))
      V = 0.0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
           "\"}";
  }

  Workload &W;
  const Options &O;
  std::vector<Golden> Ring;
  Tally Counts;
  std::vector<double> AnswerMs;
  uint64_t LoopNs = 0;
  uint64_t LoopCpuNs = 0;
  std::vector<double> TracedMs;
  uint64_t TracedWallNs = 0;
  uint64_t TracedCoveredNs = 0;
  std::map<std::string, double> LayerSums;
};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (O.Stamp) {
    printStamp();
    return 0;
  }
  if (Assertions || Sanitized) {
    std::fprintf(stderr, "error: refusing to measure a binary built with %s\n",
                 Assertions ? "assertions (no NDEBUG)" : "sanitizers");
    return 3;
  }
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Scratch);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (!O.RecordTo.empty())
    return recordGoldens(*W, O.RecordTo);

  Runner R(*W, O);
  std::vector<double> Setups;
  for (int I = 0; I < (O.Smoke ? 1 : 3); ++I) {
    double S = R.setUp();
    if (S < 0)
      return 1;
    Setups.push_back(S);
  }

  std::vector<std::string> Metrics;
  R.run(O.Seconds, O.Trace || O.Smoke);
  if (!O.Trace || O.Smoke)
    R.endToEnd(Metrics, median(Setups));
  if (O.Trace || O.Smoke)
    R.perLayer(Metrics);

  const Tally &T = R.tally();
  std::string Joined;
  for (const std::string &M : Metrics)
    Joined += (Joined.empty() ? "" : ", ") + M;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed), Joined.c_str());
  return 0;
}
