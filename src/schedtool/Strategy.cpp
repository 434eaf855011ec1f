//===- schedtool/Strategy.cpp - Pluggable search metaheuristics -------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/Strategy.h"

#include "schedtool/ConfigSearch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace swa;
using namespace swa::schedtool;

namespace {
/// Window over-provisioning range the search explores.
constexpr double MinBoost = 1.1;
constexpr double MaxBoost = 2.5;
} // namespace

Strategy::~Strategy() = default;

void Strategy::adaptAllInvalid(Rng &R, const SearchProblem &P,
                               std::vector<double> &Boost) {
  for (double &B : Boost)
    B = MinBoost + R.uniformDouble() * (MaxBoost - MinBoost);
}

void Strategy::saveState(std::string &Out) const { (void)Out; }

bool Strategy::loadState(const char *Data, size_t Len) {
  (void)Data;
  return Len == 0;
}

namespace {

// Tiny little-endian state codec (strategy state is opaque to the
// snapshot layer, which stores it as one string; see Snapshot.cpp for
// the framing that CRC-guards it).
void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}
void putI64(std::string &Out, int64_t V) {
  putU64(Out, static_cast<uint64_t>(V));
}
void putF64(std::string &Out, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

struct StateReader {
  const unsigned char *P;
  size_t Left;
  bool Ok = true;
  StateReader(const char *Data, size_t Len)
      : P(reinterpret_cast<const unsigned char *>(Data)), Left(Len) {}
  uint32_t u32() {
    if (Left < 4) {
      Ok = false;
      return 0;
    }
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(P[static_cast<size_t>(I)]) << (8 * I);
    P += 4;
    Left -= 4;
    return V;
  }
  uint64_t u64() {
    if (Left < 8) {
      Ok = false;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(P[static_cast<size_t>(I)]) << (8 * I);
    P += 8;
    Left -= 8;
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool done() const { return Ok && Left == 0; }
};

/// The historical adaptive move, shared by every strategy: grow the
/// windows of the partitions whose tasks miss at the first-miss instant
/// (the only failure set every evaluation mode computes identically) and
/// occasionally rebind the worst partition to the least-loaded core.
/// Draw-for-draw identical to the pre-Strategy loop.
void boostFailingAndMaybeRebind(Rng &R, const SearchProblem &P,
                                const analysis::VerdictOutcome &V,
                                cfg::Config &Current,
                                std::vector<double> &Boost) {
  std::vector<int64_t> FailedPerPartition(Current.Partitions.size(), 0);
  for (int32_t G : V.FirstMissTasks)
    if (G >= 0 && G < Current.numTasks())
      ++FailedPerPartition[static_cast<size_t>(
          Current.taskRefOf(G).Partition)];

  int Worst = -1;
  for (size_t Part = 0; Part < FailedPerPartition.size(); ++Part) {
    if (FailedPerPartition[Part] == 0)
      continue;
    Boost[Part] = std::min(MaxBoost, Boost[Part] * 1.25);
    if (Worst < 0 || FailedPerPartition[Part] >
                         FailedPerPartition[static_cast<size_t>(Worst)])
      Worst = static_cast<int>(Part);
  }
  if (Worst >= 0 && R.chance(0.3)) {
    // Rebind the worst partition to the core with the lowest load.
    std::vector<double> Load(Current.Cores.size(), 0.0);
    for (size_t Part = 0; Part < Current.Partitions.size(); ++Part)
      if (Current.Partitions[Part].Core >= 0)
        Load[static_cast<size_t>(Current.Partitions[Part].Core)] +=
            Current.partitionUtilization(static_cast<int>(Part));
    int Lightest = 0;
    for (size_t C = 1; C < Load.size(); ++C)
      if (Load[C] < Load[static_cast<size_t>(Lightest)])
        Lightest = static_cast<int>(C);
    Current.Partitions[static_cast<size_t>(Worst)].Core = Lightest;
  }
}

/// The historical perturbation, shared as the base move: resample each
/// boost with probability 0.4, then rebind a random partition to a
/// random core with probability 0.3.
void perturbLocal(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
                  std::vector<double> &Boost, Mutation &M) {
  for (size_t Part = 0; Part < Boost.size(); ++Part)
    if (PJ.chance(0.4)) {
      Boost[Part] =
          MinBoost + PJ.uniformDouble() * (MaxBoost - MinBoost);
      M.BoostChanged.push_back(static_cast<int32_t>(Part));
    }
  if (!Config.Partitions.empty() && !Config.Cores.empty() &&
      PJ.chance(0.3)) {
    size_t Part = PJ.index(Config.Partitions.size());
    int NewCore = static_cast<int>(PJ.index(Config.Cores.size()));
    int OldCore = Config.Partitions[Part].Core;
    Config.Partitions[Part].Core = NewCore;
    if (NewCore != OldCore) {
      M.RebindPart = static_cast<int32_t>(Part);
      M.OldCore = OldCore;
      M.NewCore = NewCore;
    }
  }
}

/// The classic greedy local search: take the round's best candidate as
/// the next incumbent unconditionally. Stateless.
class LocalSearch final : public Strategy {
public:
  const char *name() const override { return "local"; }

  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    perturbLocal(PJ, P, Config, Boost, M);
  }

  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    Current = *Best.Config;
    Boost = *Best.Boost;
    boostFailingAndMaybeRebind(R, P, *Best.Verdict, Current, Boost);
  }
};

/// Simulated annealing on the round-best badness: an improving round is
/// always adopted; a worsening one with probability exp(-relative
/// regression / T), T cooling geometrically per round. Rejected rounds
/// keep the incumbent, so the walk can escape the greedy basin early and
/// turns greedy as T drops. State: the accepted badness and the round
/// count (the temperature ladder position).
class Annealing final : public Strategy {
public:
  const char *name() const override { return "annealing"; }

  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    perturbLocal(PJ, P, Config, Boost, M);
  }

  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    ++Rounds;
    bool Accept = true;
    if (AcceptedBadness >= 0 && Best.Badness > AcceptedBadness) {
      double T = kT0 * std::pow(kAlpha, static_cast<double>(Rounds));
      double Rel =
          static_cast<double>(Best.Badness - AcceptedBadness) /
          static_cast<double>(std::max<int64_t>(1, AcceptedBadness));
      Accept = R.uniformDouble() < std::exp(-Rel / std::max(1e-9, T));
    }
    if (Accept) {
      Current = *Best.Config;
      Boost = *Best.Boost;
      AcceptedBadness = Best.Badness;
    }
    boostFailingAndMaybeRebind(R, P, *Best.Verdict, Current, Boost);
  }

  void saveState(std::string &Out) const override {
    putU32(Out, static_cast<uint32_t>(Rounds));
    putI64(Out, AcceptedBadness);
  }

  bool loadState(const char *Data, size_t Len) override {
    StateReader In(Data, Len);
    uint32_t R = In.u32();
    int64_t B = In.i64();
    if (!In.done())
      return false;
    Rounds = static_cast<int>(R);
    AcceptedBadness = B;
    return true;
  }

private:
  static constexpr double kT0 = 0.5;
  static constexpr double kAlpha = 0.9;
  int Rounds = 0;
  int64_t AcceptedBadness = -1;
};

/// A small genetic search over boost vectors: the population holds the
/// best boost vectors seen (the binding still evolves through perturb's
/// rebind move); candidates are tournament-selected uniform crossovers
/// with per-gene mutation. State: the population with its badness.
class Genetic final : public Strategy {
public:
  const char *name() const override { return "genetic"; }

  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    if (Pop.size() < 2) {
      perturbLocal(PJ, P, Config, Boost, M);
      return;
    }
    const Member &A = Pop[tournament(PJ)];
    const Member &B = Pop[tournament(PJ)];
    for (size_t G = 0; G < Boost.size(); ++G) {
      double Old = Boost[G];
      double V = Old;
      const std::vector<double> &Src = PJ.chance(0.5) ? A.Boost : B.Boost;
      if (G < Src.size())
        V = Src[G];
      if (PJ.chance(0.15))
        V = MinBoost + PJ.uniformDouble() * (MaxBoost - MinBoost);
      if (V != Old) {
        Boost[G] = V;
        M.BoostChanged.push_back(static_cast<int32_t>(G));
      }
    }
    if (!Config.Partitions.empty() && !Config.Cores.empty() &&
        PJ.chance(0.3)) {
      size_t Part = PJ.index(Config.Partitions.size());
      int NewCore = static_cast<int>(PJ.index(Config.Cores.size()));
      int OldCore = Config.Partitions[Part].Core;
      Config.Partitions[Part].Core = NewCore;
      if (NewCore != OldCore) {
        M.RebindPart = static_cast<int32_t>(Part);
        M.OldCore = OldCore;
        M.NewCore = NewCore;
      }
    }
  }

  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    Current = *Best.Config;
    Boost = *Best.Boost;
    Pop.push_back({*Best.Boost, Best.Badness});
    std::stable_sort(Pop.begin(), Pop.end(),
                     [](const Member &A, const Member &B) {
                       return A.Badness < B.Badness;
                     });
    if (Pop.size() > kPopCap)
      Pop.resize(kPopCap);
    boostFailingAndMaybeRebind(R, P, *Best.Verdict, Current, Boost);
  }

  void saveState(std::string &Out) const override {
    putU32(Out, static_cast<uint32_t>(Pop.size()));
    for (const Member &M : Pop) {
      putU32(Out, static_cast<uint32_t>(M.Boost.size()));
      for (double B : M.Boost)
        putF64(Out, B);
      putI64(Out, M.Badness);
    }
  }

  bool loadState(const char *Data, size_t Len) override {
    StateReader In(Data, Len);
    uint32_t N = In.u32();
    if (!In.Ok || N > 1024)
      return false;
    std::vector<Member> NewPop;
    NewPop.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      Member M;
      uint32_t NG = In.u32();
      if (!In.Ok || NG > 65536)
        return false;
      M.Boost.resize(NG);
      for (uint32_t G = 0; G < NG; ++G)
        M.Boost[G] = In.f64();
      M.Badness = In.i64();
      NewPop.push_back(std::move(M));
    }
    if (!In.done())
      return false;
    Pop = std::move(NewPop);
    return true;
  }

private:
  struct Member {
    std::vector<double> Boost;
    int64_t Badness = 0;
  };
  static constexpr size_t kPopCap = 8;

  size_t tournament(Rng &R) const {
    size_t A = R.index(Pop.size());
    size_t B = R.index(Pop.size());
    return Pop[A].Badness <= Pop[B].Badness ? A : B;
  }

  std::vector<Member> Pop;
};

} // namespace

std::unique_ptr<Strategy>
swa::schedtool::makeStrategy(const std::string &Name) {
  if (Name.empty() || Name == "local")
    return std::make_unique<LocalSearch>();
  if (Name == "annealing")
    return std::make_unique<Annealing>();
  if (Name == "genetic")
    return std::make_unique<Genetic>();
  return nullptr;
}
