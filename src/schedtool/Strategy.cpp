//===- schedtool/Strategy.cpp - Pluggable search strategy -----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "schedtool/Strategy.h"

#include "schedtool/ConfigSearch.h"

#include <algorithm>

using namespace swa;
using namespace swa::schedtool;

namespace {
/// Window over-provisioning range the search explores.
constexpr double MinBoost = 1.1;
constexpr double MaxBoost = 2.5;

/// The classic greedy local search, the historical loop draw for draw.
/// Stateless.
class LocalSearch final : public Strategy {
public:
  const char *name() const override { return "local"; }

  /// Resamples each boost with probability 0.4, then rebinds a random
  /// partition to a random core with probability 0.3.
  void perturb(Rng &PJ, const SearchProblem &P, cfg::Config &Config,
               std::vector<double> &Boost, Mutation &M) override {
    for (size_t Part = 0; Part < Boost.size(); ++Part)
      if (PJ.chance(0.4)) {
        Boost[Part] = MinBoost + PJ.uniformDouble() * (MaxBoost - MinBoost);
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

  /// Takes the round's best candidate as the next incumbent
  /// unconditionally, then grows the windows of the partitions whose
  /// tasks miss at the first-miss instant (the only failure set every
  /// evaluation mode computes identically) and occasionally rebinds the
  /// worst partition to the least-loaded core.
  void adapt(Rng &R, const SearchProblem &P, const RoundBest &Best,
             cfg::Config &Current, std::vector<double> &Boost) override {
    Current = *Best.Config;
    Boost = *Best.Boost;
    std::vector<int64_t> FailedPerPartition(Current.Partitions.size(), 0);
    for (int32_t G : Best.Verdict->FirstMissTasks)
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
};

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

std::unique_ptr<Strategy>
swa::schedtool::makeStrategy(const std::string &Name) {
  if (Name == "local")
    return std::make_unique<LocalSearch>();
  return nullptr;
}
