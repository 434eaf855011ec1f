//===- bench/bench_schedtool.cpp - E6: scheduling-tool integration ---------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// The §4 integration experiment: the configuration search evaluates
// candidates through the model. Measures candidate-evaluation throughput
// and the search success rate as the target core utilization rises (the
// knee where schedulable layouts stop existing).
//
//===----------------------------------------------------------------------===//

#include "gen/Workload.h"
#include "schedtool/ConfigSearch.h"
#include "schedtool/Snapshot.h"

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace swa;

static void BM_SearchAtUtilization(benchmark::State &State) {
  double Utilization = static_cast<double>(State.range(0)) / 100.0;
  int Workers = static_cast<int>(State.range(1));
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = Utilization;
  Params.Seed = 3;
  cfg::Config Base = gen::industrialConfig(Params);
  for (cfg::Partition &P : Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }

  int Evaluated = 0;
  int64_t TotalEvaluated = 0;
  int Found = 0;
  for (auto _ : State) {
    schedtool::SearchProblem Problem;
    Problem.Base = Base;
    Problem.Seed = 11;
    Problem.MaxIterations = 25;
    Problem.Workers = Workers;
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    Evaluated = Res->ConfigurationsEvaluated;
    TotalEvaluated += Res->ConfigurationsEvaluated;
    Found += Res->Found ? 1 : 0;
  }
  State.counters["evaluated"] = Evaluated;
  State.counters["found"] = Found;
  State.counters["utilization"] = Utilization;
  State.counters["workers"] = Workers;
  // Candidate-evaluation throughput: the metric the worker count scales.
  State.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalEvaluated), benchmark::Counter::kIsRate);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_SearchAtUtilization)
    ->ArgsProduct({{30, 45, 60, 75, 90}, {1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// Worker-scaling axis at the utilization knee (the search iterates there,
// so batches are full). Throughput should scale with physical cores; on a
// single-core host the 2/4-worker rows only confirm that threading adds
// no more than scheduling overhead.
BENCHMARK(BM_SearchAtUtilization)
    ->ArgsProduct({{75}, {2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The early-exit headline: an unschedulable-heavy, message-free
// workload (every candidate decomposes per core group; every candidate
// fails, and fails early). Construction: four "big" partitions need 11
// window ticks per 20-tick frame (a cost-10 period-20 task plus a
// cost-1 period-40 task), two "small" ones need 10, and two "light"
// ones need 9 and carry a cost-1 period-20000 task that stretches the
// hyperperiod to 20000. Every 2-partition core pairing that includes a
// big partition needs >= 21 of the frame's 20 ticks, and there are more
// bigs than cores can avoid — so every reachable binding is
// unschedulable with its first deadline miss at t <= 40, a factor 500
// before the hyperperiod. That is the regime the search's evaluation
// path targets: early exit stops every component at its miss, and
// revisited layouts hit the verdict cache. Arg 0 is the worker count;
// both rows execute the identical candidate sequence, so
// candidates_per_sec is a like-for-like throughput comparison.
static cfg::Config packedUnschedulableConfig() {
  cfg::Config Base;
  Base.Name = "packed-unschedulable";
  Base.NumCoreTypes = 1;
  for (int M = 0; M < 2; ++M)
    for (int K = 0; K < 2; ++K)
      Base.Cores.push_back(
          {"m" + std::to_string(M) + "c" + std::to_string(K), M, 0});
  for (int P = 0; P < 8; ++P) {
    cfg::Partition Part;
    Part.Name = "p" + std::to_string(P);
    Part.Scheduler = cfg::SchedulerKind::FPPS;
    Part.Core = -1;
    cfg::TimeValue Hi = P < 4 ? 10 : (P < 6 ? 9 : 8);
    Part.Tasks.push_back({Part.Name + "_hi", 100, {Hi}, 20, 20});
    Part.Tasks.push_back({Part.Name + "_mid", 50, {1}, 40, 40});
    if (P >= 6)
      Part.Tasks.push_back({Part.Name + "_lo", 1, {1}, 20000, 20000});
    Base.Partitions.push_back(std::move(Part));
  }
  return Base;
}

static void BM_SearchUnschedulable(benchmark::State &State) {
  int Workers = static_cast<int>(State.range(0));
  cfg::Config Base = packedUnschedulableConfig();

  int64_t TotalEvaluated = 0;
  int64_t Hits = 0, Misses = 0, Dups = 0, Decomposed = 0;
  for (auto _ : State) {
    schedtool::SearchProblem Problem;
    Problem.Base = Base;
    Problem.Seed = 29;
    Problem.MaxIterations = 60;
    Problem.Workers = Workers;
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    TotalEvaluated += Res->ConfigurationsEvaluated;
    Hits += Res->CacheHits;
    Misses += Res->CacheMisses;
    Dups += Res->DuplicateCandidates;
    Decomposed += Res->DecomposedCandidates;
  }
  State.counters["workers"] = Workers;
  State.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalEvaluated), benchmark::Counter::kIsRate);
  State.counters["cache_hit_rate"] =
      TotalEvaluated > 0
          ? static_cast<double>(Hits + Dups) /
                static_cast<double>(TotalEvaluated)
          : 0.0;
  State.counters["decomposed"] = static_cast<double>(Decomposed);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_SearchUnschedulable)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The incremental headline: a neighborhood search where candidates are
// small mutations of a shared base, every candidate decomposes per core
// (message-free), and the deadline misses land at the *tail* of the
// horizon — so the early exit barely helps and the old layers pay a
// near-full-horizon simulation per component per candidate. The
// workload is a generated industrial config (4 cores, 8 partitions,
// heterogeneous periods) pushed to utilization 0.80: proportional
// window shares misalign with the longer-period tasks' release times,
// so no boost assignment the search reaches is schedulable — seed 27
// runs all 120 rounds without a find, with first misses at t = L/2 or
// t = L. A boost resample dirties one core's component and leaves the
// other three byte-identical to the round base, so most components
// replay from the verdict cache (the hit rate climbs toward ~50% as the
// neighborhood revisits window splits) and the rest rebind an arena
// instance instead of rebuilding. Arg 0 is the worker count: identical
// candidate sequence, like-for-like candidates_per_sec.
static cfg::Config neighborhoodConfig() {
  gen::IndustrialParams Params;
  Params.Modules = 2;
  Params.CoresPerModule = 2;
  Params.PartitionsPerCore = 2;
  Params.CoreUtilization = 0.8;
  Params.MessageProbability = 0.0;
  Params.Seed = 27;
  cfg::Config Base = gen::industrialConfig(Params);
  for (cfg::Partition &P : Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  return Base;
}

static void BM_SearchNeighborhood(benchmark::State &State) {
  int Workers = static_cast<int>(State.range(0));
  cfg::Config Base = neighborhoodConfig();

  int64_t TotalEvaluated = 0;
  int64_t CompHits = 0, CompMisses = 0, Dirty = 0, Clean = 0, Sims = 0;
  for (auto _ : State) {
    schedtool::SearchProblem Problem;
    Problem.Base = Base;
    Problem.Seed = 41;
    Problem.MaxIterations = 120;
    Problem.Workers = Workers;
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    TotalEvaluated += Res->ConfigurationsEvaluated;
    CompHits += Res->ComponentCacheHits;
    CompMisses += Res->ComponentCacheMisses;
    Dirty += Res->DirtyComponents;
    Clean += Res->CleanComponentsReused;
    Sims += Res->ComponentsSimulated;
  }
  State.counters["workers"] = Workers;
  State.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalEvaluated), benchmark::Counter::kIsRate);
  State.counters["components_simulated"] = static_cast<double>(Sims);
  State.counters["component_hit_rate"] =
      CompHits + CompMisses > 0
          ? static_cast<double>(CompHits) /
                static_cast<double>(CompHits + CompMisses)
          : 0.0;
  State.counters["dirty_components_per_candidate"] =
      TotalEvaluated > 0 ? static_cast<double>(Dirty) /
                               static_cast<double>(TotalEvaluated)
                         : 0.0;
  State.counters["clean_components_reused"] = static_cast<double>(Clean);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_SearchNeighborhood)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The durable-search axis: what checkpointing costs and what resuming
// buys. Three rows over the same neighborhood workload (identical
// candidate sequence and verdict stream in all three — durability never
// changes the result):
//   mode 0  cold search, no checkpointing — the baseline.
//   mode 1  cold search checkpointing every round boundary — the
//           overhead row: serialization + CRC + atomic-rename traffic
//           per round, the worst cadence a user can configure.
//   mode 2  warm start from the terminal snapshot of a prior identical
//           run (cache-only seed, per-iteration load included) — the
//           resume row: every verdict replays from the warm cache, so
//           candidates_per_sec is the snapshot-hit fast path.
static void BM_SearchDurable(benchmark::State &State) {
  int Mode = static_cast<int>(State.range(0));
  cfg::Config Base = neighborhoodConfig();
  std::string Path = "swa_bench_durable.ckpt";

  auto MakeProblem = [&Base] {
    schedtool::SearchProblem Problem;
    Problem.Base = Base;
    Problem.Seed = 41;
    Problem.MaxIterations = 60;
    return Problem;
  };

  // The warm row resumes from a finished run's snapshot; write it once.
  if (Mode == 2) {
    schedtool::SearchProblem Prep = MakeProblem();
    Prep.CheckpointPath = Path;
    Result<schedtool::SearchResult> R = schedtool::searchConfiguration(Prep);
    if (!R.ok()) {
      State.SkipWithError(R.error().message().c_str());
      return;
    }
  }

  int64_t TotalEvaluated = 0;
  schedtool::SnapshotStats Stats;
  for (auto _ : State) {
    schedtool::SearchProblem Problem = MakeProblem();
    Problem.CkptStats = &Stats;
    schedtool::Snapshot Warm;
    if (Mode == 1)
      Problem.CheckpointPath = Path;
    if (Mode == 2) {
      Result<schedtool::Snapshot> L = schedtool::loadSnapshot(Path, &Stats);
      if (!L.ok()) {
        State.SkipWithError(L.error().message().c_str());
        return;
      }
      Warm = L.takeValue();
      Warm.HasSearchState = false; // cache-only seed: the search re-runs
      Problem.Resume = &Warm;
    }
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    if (!Res.ok()) {
      State.SkipWithError(Res.error().message().c_str());
      return;
    }
    TotalEvaluated += Res->ConfigurationsEvaluated;
  }
  std::remove(Path.c_str());
  State.counters["mode"] = Mode;
  State.counters["candidates_per_sec"] = benchmark::Counter(
      static_cast<double>(TotalEvaluated), benchmark::Counter::kIsRate);
  State.counters["snapshots_written"] =
      static_cast<double>(Stats.SnapshotsWritten);
  State.counters["snapshot_bytes_written"] =
      static_cast<double>(Stats.BytesWritten);
  State.counters["snapshot_warm_hits"] =
      static_cast<double>(Stats.SnapshotHits);
  swa::benchsupport::exportObsCounters(State);
}
BENCHMARK(BM_SearchDurable)
    ->ArgsProduct({{0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

SWA_BENCH_MAIN();
