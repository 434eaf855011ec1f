//===- tests/ObsTest.cpp - Observability layer tests -----------------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
//
// Covers the src/obs layer (thread-sharded counters/histograms/registry,
// per-thread phase trees with deterministic merge, span ring buffers with
// Chrome trace export, run reports, JSONL sink) and its engine
// integration: the overhead guard proving that attaching metrics and a
// JSONL sink never perturbs the deterministic run, the full-observability
// worker-count determinism guard, the enriched action-budget diagnostics,
// and the config-search best-so-far trajectory.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "core/InstanceBuilder.h"
#include "nsa/JsonlSink.h"
#include "nsa/Simulator.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "obs/Timer.h"
#include "schedtool/ConfigSearch.h"
#include "support/Crc32.h"
#include "tests/TestConfigs.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <thread>

using namespace swa;

namespace {

/// Enables the observability layer for one test and restores a clean
/// global state (flags, registry values in every shard, phase trees, span
/// rings) afterwards.
struct ObsScope {
  explicit ObsScope(bool On = true, bool Spans = false) {
    obs::Registry::global().reset();
    obs::PhaseTree::resetAll();
    obs::resetSpans();
    obs::setEnabled(On);
    obs::setSpansEnabled(Spans);
  }
  ~ObsScope() {
    obs::setEnabled(false);
    obs::setSpansEnabled(false);
    obs::Registry::global().reset();
    obs::PhaseTree::resetAll();
    obs::resetSpans();
  }
};

//===----------------------------------------------------------------------===//
// Counters and histograms
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CounterArithmetic) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(ObsMetrics, HistogramBucketsAndMoments) {
  obs::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);

  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 4ull, 1024ull})
    H.record(V);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 1034u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1024u);
  EXPECT_NEAR(H.mean(), 1034.0 / 6.0, 1e-9);

  // Bucket layout: floor(log2(V)) with 0 in bucket 0.
  EXPECT_EQ(obs::Histogram::bucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::bucketOf(1), 0);
  EXPECT_EQ(obs::Histogram::bucketOf(2), 1);
  EXPECT_EQ(obs::Histogram::bucketOf(3), 1);
  EXPECT_EQ(obs::Histogram::bucketOf(4), 2);
  EXPECT_EQ(obs::Histogram::bucketOf(1024), 10);
  EXPECT_EQ(H.bucketCount(0), 2u); // 0 and 1.
  EXPECT_EQ(H.bucketCount(1), 2u); // 2 and 3.
  EXPECT_EQ(H.bucketCount(2), 1u); // 4.
  EXPECT_EQ(H.bucketCount(10), 1u); // 1024.

  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
}

TEST(ObsMetrics, RegistryStableAddressesAndReset) {
  ObsScope Scope;
  obs::Registry &Reg = obs::Registry::global();
  obs::Counter &A = Reg.counter("test.a");
  A.add(7);
  // Same name -> same instrument.
  EXPECT_EQ(&Reg.counter("test.a"), &A);
  EXPECT_EQ(Reg.counter("test.a").value(), 7u);

  obs::Histogram &H = Reg.histogram("test.h");
  H.record(5);
  EXPECT_EQ(&Reg.histogram("test.h"), &H);

  // Reset zeroes values but keeps registrations (cached pointers stay
  // valid between runs).
  Reg.reset();
  EXPECT_EQ(A.value(), 0u);
  EXPECT_EQ(H.count(), 0u);
  bool FoundA = false;
  for (const auto &[Name, Value] : Reg.counterValues())
    if (Name == "test.a") {
      FoundA = true;
      EXPECT_EQ(Value, 0u);
    }
  EXPECT_TRUE(FoundA);
  A.add(3);
  EXPECT_EQ(Reg.counter("test.a").value(), 3u);
}

//===----------------------------------------------------------------------===//
// Phase tree
//===----------------------------------------------------------------------===//

TEST(ObsTimer, PhaseTreeNesting) {
  ObsScope Scope;
  {
    obs::ScopedTimer Outer("outer");
    {
      obs::ScopedTimer Inner("inner");
    }
    {
      obs::ScopedTimer Inner("inner"); // Same name accumulates.
    }
    {
      obs::ScopedTimer Other("other");
    }
  }
  {
    obs::ScopedTimer Outer("outer"); // Re-entering accumulates too.
  }

  const obs::PhaseTree::Node &Root = obs::PhaseTree::current().root();
  ASSERT_EQ(Root.Children.size(), 1u);
  const obs::PhaseTree::Node *Outer = Root.child("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Count, 2u);
  ASSERT_EQ(Outer->Children.size(), 2u);
  const obs::PhaseTree::Node *Inner = Outer->child("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Count, 2u);
  EXPECT_NE(Outer->child("other"), nullptr);
  EXPECT_EQ(Outer->child("missing"), nullptr);

  // Total is the sum over top-level phases only.
  EXPECT_EQ(obs::PhaseTree::totalNanos(Root), Outer->Nanos);

  // The merged view folds the (single) shard by name.
  obs::PhaseTree::Node Merged = obs::PhaseTree::mergedRoot();
  const obs::PhaseTree::Node *MergedOuter = Merged.child("outer");
  ASSERT_NE(MergedOuter, nullptr);
  EXPECT_EQ(MergedOuter->Count, 2u);
  EXPECT_EQ(MergedOuter->Nanos, Outer->Nanos);

  std::ostringstream OS;
  obs::PhaseTree::render(OS, Root);
  EXPECT_NE(OS.str().find("outer"), std::string::npos);
  EXPECT_NE(OS.str().find("inner"), std::string::npos);
}

TEST(ObsTimer, DisabledTimersRecordNothing) {
  ObsScope Scope(/*On=*/false);
  {
    obs::ScopedTimer T("should-not-appear");
  }
  EXPECT_TRUE(obs::PhaseTree::current().root().Children.empty());
}

//===----------------------------------------------------------------------===//
// JSONL sink
//===----------------------------------------------------------------------===//

TEST(ObsTraceSink, JsonEscaping) {
  EXPECT_EQ(obs::jsonEscape("plain"), "plain");
  EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::jsonEscape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

/// A minimal JSON syntax checker: accepts objects/arrays/strings/numbers/
/// true/false/null; rejects trailing garbage. Enough to prove each JSONL
/// line is well-formed without a JSON library.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == S.size();
  }

private:
  const std::string &S;
  size_t P = 0;

  void skipWs() {
    while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
      ++P;
  }
  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(P, N, L) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\') {
        ++P;
        if (P >= S.size())
          return false;
        if (S[P] == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++P >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[P])))
              return false;
        }
      }
      ++P;
    }
    if (P >= S.size())
      return false;
    ++P; // Closing quote.
    return true;
  }
  bool digits() {
    size_t Start = P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    return P > Start;
  }
  bool number() {
    if (P < S.size() && S[P] == '-')
      ++P;
    if (!digits())
      return false;
    if (P < S.size() && S[P] == '.') {
      ++P;
      if (!digits())
        return false;
    }
    if (P < S.size() && (S[P] == 'e' || S[P] == 'E')) {
      ++P;
      if (P < S.size() && (S[P] == '+' || S[P] == '-'))
        ++P;
      if (!digits())
        return false;
    }
    return true;
  }
  bool value() {
    skipWs();
    if (P >= S.size())
      return false;
    switch (S[P]) {
    case '{': {
      ++P;
      skipWs();
      if (P < S.size() && S[P] == '}') {
        ++P;
        return true;
      }
      for (;;) {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (P >= S.size() || S[P] != ':')
          return false;
        ++P;
        if (!value())
          return false;
        skipWs();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        break;
      }
      if (P >= S.size() || S[P] != '}')
        return false;
      ++P;
      return true;
    }
    case '[': {
      ++P;
      skipWs();
      if (P < S.size() && S[P] == ']') {
        ++P;
        return true;
      }
      for (;;) {
        if (!value())
          return false;
        skipWs();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        break;
      }
      if (P >= S.size() || S[P] != ']')
        return false;
      ++P;
      return true;
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

TEST(ObsTraceSink, JsonlLinesAreWellFormed) {
  auto Model = core::buildModel(testcfg::producerConsumer());
  ASSERT_TRUE(Model.ok()) << Model.error().message();

  std::ostringstream OS;
  nsa::JsonlSink Sink(OS);
  nsa::SimOptions Opt;
  Opt.Observer = &Sink;
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run(Opt);
  ASSERT_TRUE(R.ok()) << R.Error;

  std::istringstream In(OS.str());
  std::string Line;
  size_t Lines = 0;
  size_t Actions = 0, Delays = 0, Writes = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(JsonChecker(Line).valid()) << "bad JSONL line: " << Line;
    if (Line.find("\"k\":\"action\"") != std::string::npos)
      ++Actions;
    else if (Line.find("\"k\":\"delay\"") != std::string::npos)
      ++Delays;
    else if (Line.find("\"k\":\"write\"") != std::string::npos)
      ++Writes;
  }
  EXPECT_EQ(Lines, Sink.linesWritten());
  EXPECT_GT(Lines, 0u);
  // Every applied action step is streamed (internal ones included), so the
  // sink must have seen at least the recorded sync events and every delay.
  EXPECT_GE(Actions, R.Events.size());
  EXPECT_EQ(Delays, R.DelayCount);
  EXPECT_GT(Writes, 0u);
}

/// CRC-32 and length of the full JSONL stream of one run of \p Config.
std::pair<uint32_t, size_t> jsonlDigest(const cfg::Config &Config) {
  auto Model = core::buildModel(Config);
  EXPECT_TRUE(Model.ok()) << Model.error().message();
  std::ostringstream OS;
  nsa::JsonlSink Sink(OS);
  nsa::SimOptions Opt;
  Opt.Observer = &Sink;
  nsa::Simulator Sim(*Model->Net);
  Sim.run(Opt);
  std::string S = OS.str();
  return {support::crc32(S.data(), S.size()), S.size()};
}

TEST(ObsTraceSink, JsonlStreamIsPinned) {
  // Digests of the whole stream (actions, delays, writes, end record),
  // pinned so any change to the writer or to the engine's notification
  // order shows up as a byte difference.
  EXPECT_EQ(jsonlDigest(testcfg::producerConsumer()),
            std::make_pair(uint32_t{1877860358}, size_t{4143}));
  EXPECT_EQ(jsonlDigest(testcfg::preemptionShowcase()),
            std::make_pair(uint32_t{189275136}, size_t{4396}));
}

//===----------------------------------------------------------------------===//
// Engine integration
//===----------------------------------------------------------------------===//

/// Byte-exact rendering of a trace (and the run totals) for the overhead
/// guard: two runs are equivalent iff these strings match exactly.
std::string renderRun(const nsa::SimResult &R) {
  std::ostringstream OS;
  OS << "actions=" << R.ActionCount << " delays=" << R.DelayCount
     << " quiescent=" << R.Quiescent << " horizon=" << R.HorizonReached
     << " now=" << R.Final.Now << "\n";
  for (const nsa::Event &E : R.Events) {
    OS << E.Time << " ch" << E.Channel << " i" << E.Initiator.Automaton
       << ":" << E.Initiator.Edge;
    for (const nsa::EventParticipant &P : E.Receivers)
      OS << " r" << P.Automaton << ":" << P.Edge;
    OS << "\n";
  }
  return OS.str();
}

TEST(ObsOverheadGuard, MetricsAndSinkNeverPerturbTheRun) {
  for (const cfg::Config &Config :
       {testcfg::twoTasksOneCore(), testcfg::preemptionShowcase(),
        testcfg::twoPartitionsWindows(), testcfg::producerConsumer()}) {
    auto Model = core::buildModel(Config);
    ASSERT_TRUE(Model.ok()) << Model.error().message();

    // Plain run: observability fully off.
    nsa::Simulator Plain(*Model->Net);
    nsa::SimResult Base = Plain.run();
    ASSERT_TRUE(Base.ok()) << Base.Error;

    // Observed run: metrics on, JSONL sink attached.
    ObsScope Scope;
    std::ostringstream OS;
    nsa::JsonlSink Sink(OS);
    nsa::SimOptions Opt;
    Opt.Observer = &Sink;
    nsa::Simulator Observed(*Model->Net);
    nsa::SimResult WithObs = Observed.run(Opt);
    ASSERT_TRUE(WithObs.ok()) << WithObs.Error;

    EXPECT_EQ(renderRun(Base), renderRun(WithObs)) << Config.Name;
    EXPECT_EQ(Base.ActionCount, WithObs.ActionCount) << Config.Name;
    EXPECT_TRUE(nsa::syncTracesEqual(Base.Events, WithObs.Events))
        << Config.Name;
    EXPECT_GT(Sink.linesWritten(), 0u) << Config.Name;
  }
}

TEST(ObsEngine, SimulatorPublishesCounters) {
  ObsScope Scope;
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;

  obs::Registry &Reg = obs::Registry::global();
  EXPECT_EQ(Reg.counter("nsa.steps.action").value(), R.ActionCount);
  EXPECT_EQ(Reg.counter("nsa.steps.delay").value(), R.DelayCount);
  EXPECT_EQ(Reg.counter("nsa.events.recorded").value(), R.Events.size());
  EXPECT_GT(Reg.counter("nsa.refresh.automaton").value(), 0u);
  EXPECT_GT(Reg.counter("nsa.enabled.examined").value(), 0u);
  EXPECT_GT(Reg.counter("nsa.heap.pushes").value(), 0u);
  EXPECT_EQ(Reg.counter("nsa.runs").value(), 1u);
  // One per-automaton sample per automaton of the network.
  EXPECT_EQ(Reg.histogram("nsa.steps.per_automaton").count(),
            Model->Net->Automata.size());
  // Build-side counters.
  EXPECT_EQ(Reg.counter("core.models.built").value(), 1u);
  EXPECT_EQ(Reg.counter("core.automata.instantiated").value(),
            Model->Net->Automata.size());
}

TEST(ObsEngine, PhaseTreeCoversPipeline) {
  ObsScope Scope;
  Result<analysis::AnalyzeOutcome> Out =
      analysis::analyzeConfiguration(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Out.ok()) << Out.error().message();

  const obs::PhaseTree::Node &Root = obs::PhaseTree::current().root();
  const obs::PhaseTree::Node *Build = Root.child("build");
  ASSERT_NE(Build, nullptr);
  // Algorithm 1's steps: template library, instance loop, structural
  // check, bytecode compile.
  for (const char *Step : {"library", "instantiate", "check", "compile"})
    EXPECT_NE(Build->child(Step), nullptr) << Step;
  EXPECT_NE(Root.child("simulate"), nullptr);
  const obs::PhaseTree::Node *Analyze = Root.child("analyze");
  ASSERT_NE(Analyze, nullptr);
  EXPECT_NE(Analyze->child("map_trace"), nullptr);
  EXPECT_NE(Analyze->child("criterion"), nullptr);
  EXPECT_GT(obs::PhaseTree::totalNanos(Root), 0u);
}

TEST(ObsEngine, ActionBudgetExhaustionIsDiagnosable) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::SimOptions Opt;
  Opt.MaxActions = 5;
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run(Opt);
  ASSERT_FALSE(R.ok());
  // The message names the budget, the model time, the applied-action count
  // and the last automaton stepped.
  EXPECT_NE(R.Error.find("action budget of 5"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("t="), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("5 actions applied"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("last automaton stepped"), std::string::npos)
      << R.Error;
  // Summary surfaces the error uniformly.
  EXPECT_NE(R.summary().find("error:"), std::string::npos);
}

TEST(ObsEngine, SummaryDescribesOutcome) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok()) << Model.error().message();
  nsa::Simulator Sim(*Model->Net);
  nsa::SimResult R = Sim.run();
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string S = R.summary();
  // The two-task config runs to its 20-tick hyperperiod horizon.
  EXPECT_NE(S.find("horizon reached"), std::string::npos) << S;
  EXPECT_NE(S.find("t=20"), std::string::npos) << S;
  EXPECT_NE(S.find("actions"), std::string::npos) << S;
}

TEST(ObsEngine, SearchRecordsBestTrajectory) {
  ObsScope Scope;
  schedtool::SearchProblem Problem;
  Problem.Base = testcfg::twoTasksOneCore();
  // Let the search choose binding and windows.
  for (cfg::Partition &P : Problem.Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  Problem.MaxIterations = 10;
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  ASSERT_FALSE(Res->BestTrajectory.empty());
  // Strictly improving, iterations increasing; ends at 0 when Found.
  for (size_t I = 1; I < Res->BestTrajectory.size(); ++I) {
    EXPECT_LT(Res->BestTrajectory[I].second,
              Res->BestTrajectory[I - 1].second);
    EXPECT_GT(Res->BestTrajectory[I].first,
              Res->BestTrajectory[I - 1].first);
  }
  if (Res->Found) {
    EXPECT_EQ(Res->BestTrajectory.back().second, 0);
  }
  EXPECT_EQ(obs::Registry::global()
                .counter("schedtool.candidates.evaluated")
                .value(),
            static_cast<uint64_t>(Res->ConfigurationsEvaluated));
}

TEST(ObsEngine, SearchCountersMatchResultStatsOnFoundRun) {
  // Regression for the BENCH_PR9 report skew: a run that *finds* a
  // configuration returns from the middle of a round, and that early
  // return used to skip the round-end counter flush — the report's
  // stats.* numbers (from SearchResult) were nonzero while every
  // matching schedtool.* obs counter read 0. The contract pinned here:
  // on a fresh run, each schedtool.* counter equals the SearchResult
  // field the report is filled from, Found or not.
  ObsScope Scope;
  schedtool::SearchProblem Problem;
  Problem.Base = testcfg::twoTasksOneCore();
  for (cfg::Partition &P : Problem.Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  Problem.MaxIterations = 40;
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  // The skew only bit on the Found path; make sure this run takes it.
  ASSERT_TRUE(Res->Found);
  ASSERT_GT(Res->ConfigurationsEvaluated, 0);

  obs::Registry &Reg = obs::Registry::global();
  auto Counter = [&Reg](const char *Name) {
    return Reg.counter(Name).value();
  };
  auto U64 = [](int V) { return static_cast<uint64_t>(V); };
  EXPECT_EQ(Counter("schedtool.candidates.evaluated"),
            U64(Res->ConfigurationsEvaluated));
  EXPECT_EQ(Counter("schedtool.simulations.run"), U64(Res->SimulationsRun));
  EXPECT_EQ(Counter("schedtool.schedulable.seen"), U64(Res->SchedulableSeen));
  EXPECT_EQ(Counter("schedtool.cache.hits"), U64(Res->CacheHits));
  EXPECT_EQ(Counter("schedtool.cache.misses"), U64(Res->CacheMisses));
  EXPECT_EQ(Counter("schedtool.cache.folds"), U64(Res->SymmetryFolds));
  EXPECT_EQ(Counter("schedtool.decomposed.candidates"),
            U64(Res->DecomposedCandidates));
  EXPECT_EQ(Counter("schedtool.components.simulated"),
            U64(Res->ComponentsSimulated));
  EXPECT_EQ(Counter("schedtool.component_cache.hits"),
            U64(Res->ComponentCacheHits));
  EXPECT_EQ(Counter("schedtool.component_cache.misses"),
            U64(Res->ComponentCacheMisses));
  EXPECT_EQ(Counter("schedtool.components.dirty"), U64(Res->DirtyComponents));
  EXPECT_EQ(Counter("schedtool.components.clean_reused"),
            U64(Res->CleanComponentsReused));
}

TEST(ObsReport, TextForm) {
  ObsScope Scope;
  obs::Registry::global().counter("report.test").add(3);
  obs::Registry::global().histogram("report.hist").record(8);
  {
    obs::ScopedTimer T("report-phase");
  }

  std::ostringstream Text;
  obs::report(Text);
  EXPECT_NE(Text.str().find("report.test"), std::string::npos);
  EXPECT_NE(Text.str().find("report-phase"), std::string::npos);
  EXPECT_NE(Text.str().find("report.hist"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Thread-sharded registry
//===----------------------------------------------------------------------===//

TEST(ObsSharded, CountersAndHistogramsMergeAcrossThreads) {
  ObsScope Scope;
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("shard.test").add(5);
  std::thread T1([&] {
    Reg.counter("shard.test").add(7);
    Reg.histogram("shard.hist").record(4);
  });
  T1.join();
  std::thread T2([&] {
    Reg.counter("shard.test").add(1);
    Reg.counter("shard.other").add(2);
    Reg.histogram("shard.hist").record(64);
  });
  T2.join();

  uint64_t Test = 0, Other = 0;
  for (const auto &[Name, Value] : Reg.counterValues()) {
    if (Name == "shard.test")
      Test = Value;
    if (Name == "shard.other")
      Other = Value;
  }
  EXPECT_EQ(Test, 13u);
  EXPECT_EQ(Other, 2u);
  for (const auto &[Name, H] : Reg.histograms()) {
    if (Name != "shard.hist")
      continue;
    EXPECT_EQ(H.count(), 2u);
    EXPECT_EQ(H.sum(), 68u);
    EXPECT_EQ(H.min(), 4u);
    EXPECT_EQ(H.max(), 64u);
  }
  EXPECT_GE(Reg.shardCount(), 2u);

  // reset() reaches every shard, including the retired ones of the two
  // exited threads.
  Reg.reset();
  for (const auto &[Name, Value] : Reg.counterValues())
    EXPECT_EQ(Value, 0u) << Name;
}

//===----------------------------------------------------------------------===//
// Spans and the Chrome trace exporter
//===----------------------------------------------------------------------===//

TEST(ObsSpan, RecordsAndExportsChromeTrace) {
  ObsScope Scope(/*On=*/true, /*Spans=*/true);
  {
    obs::Span S("unit-span", "test");
    S.arg("x", 42);
    S.arg("y", -7);
  }
  {
    obs::ScopedTimer T("span-phase"); // Phases land in the same timeline.
  }
  EXPECT_GE(obs::spanCount(), 2u);
  EXPECT_EQ(obs::spansDropped(), 0u);

  std::ostringstream OS;
  obs::writeChromeTrace(OS);
  std::string Doc = OS.str();
  if (!Doc.empty() && Doc.back() == '\n')
    Doc.pop_back();
  EXPECT_TRUE(JsonChecker(Doc).valid()) << Doc;
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Doc.find("\"unit-span\""), std::string::npos);
  EXPECT_NE(Doc.find("\"span-phase\""), std::string::npos);
  EXPECT_NE(Doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Doc.find("\"x\":42"), std::string::npos);
  EXPECT_NE(Doc.find("\"y\":-7"), std::string::npos);
}

TEST(ObsSpan, DisabledSpansRecordNothing) {
  ObsScope Scope(/*On=*/true, /*Spans=*/false);
  {
    obs::Span S("invisible", "test");
    S.arg("x", 1);
  }
  EXPECT_EQ(obs::spanCount(), 0u);
  std::ostringstream OS;
  obs::writeChromeTrace(OS);
  EXPECT_EQ(OS.str().find("invisible"), std::string::npos);
}

TEST(ObsSpan, RingOverwritesOldestAndCountsDrops) {
  ObsScope Scope(/*On=*/true, /*Spans=*/true);
  auto Now = std::chrono::steady_clock::now();
  const size_t Extra = 10;
  for (size_t I = 0; I < obs::spanRingCapacity() + Extra; ++I)
    obs::recordSpan("flood", "test", Now, Now);
  EXPECT_EQ(obs::spanCount(), obs::spanRingCapacity());
  EXPECT_EQ(obs::spansDropped(), Extra);
  obs::resetSpans();
  EXPECT_EQ(obs::spanCount(), 0u);
  EXPECT_EQ(obs::spansDropped(), 0u);
}

//===----------------------------------------------------------------------===//
// Run reports
//===----------------------------------------------------------------------===//

TEST(ObsRunReport, VersionedJsonWithStatsCountersAndPhases) {
  ObsScope Scope;
  obs::Registry::global().counter("rr.count").add(4);
  obs::Registry::global().histogram("rr.hist").record(16);
  {
    obs::ScopedTimer T("rr-phase");
  }

  obs::RunReport Report("unit-test");
  Report.addCount("alpha", 3);
  Report.addStat("beta", 0.5);
  std::ostringstream OS;
  Report.write(OS);
  std::string Doc = OS.str();
  if (!Doc.empty() && Doc.back() == '\n')
    Doc.pop_back();
  EXPECT_TRUE(JsonChecker(Doc).valid()) << Doc;
  EXPECT_NE(Doc.find("\"swa_run_report\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"tool\":\"unit-test\""), std::string::npos);
  EXPECT_NE(Doc.find("\"alpha\":3"), std::string::npos);
  EXPECT_NE(Doc.find("\"beta\":0.5"), std::string::npos);
  EXPECT_NE(Doc.find("\"rr.count\":4"), std::string::npos);
  EXPECT_NE(Doc.find("\"rr.hist\""), std::string::npos);
  EXPECT_NE(Doc.find("rr-phase"), std::string::npos);
}

TEST(ObsRunReport, SearchReportMatchesSearchResult) {
  schedtool::SearchProblem Problem;
  Problem.Base = testcfg::twoTasksOneCore();
  for (cfg::Partition &P : Problem.Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  Problem.MaxIterations = 10;
  Result<schedtool::SearchResult> Res =
      schedtool::searchConfiguration(Problem);
  ASSERT_TRUE(Res.ok()) << Res.error().message();

  obs::RunReport Report("config_search");
  schedtool::fillSearchReport(Report, *Res, /*ElapsedSec=*/2.0);
  std::ostringstream OS;
  Report.write(OS);
  const std::string Doc = OS.str();
  auto Expect = [&](const std::string &Frag) {
    EXPECT_NE(Doc.find(Frag), std::string::npos) << Frag << "\nin: " << Doc;
  };
  Expect("\"cache.hits\":" + std::to_string(Res->CacheHits));
  Expect("\"cache.misses\":" + std::to_string(Res->CacheMisses));
  Expect("\"cache.folds\":" + std::to_string(Res->SymmetryFolds));
  Expect("\"candidates.evaluated\":" +
         std::to_string(Res->ConfigurationsEvaluated));
  Expect("\"candidates_per_sec\":");
  // The stop-reason taxonomy sums to evaluated + skipped candidates.
  int Tallied = 0;
  for (int C : Res->StopReasonCounts)
    Tallied += C;
  EXPECT_EQ(Tallied,
            Res->ConfigurationsEvaluated + Res->CandidatesSkipped);
}

//===----------------------------------------------------------------------===//
// Worker-count determinism under full observability
//===----------------------------------------------------------------------===//

/// Byte-exact rendering of everything a SearchResult carries; two runs are
/// equivalent iff these strings match exactly.
std::string renderSearchResult(const schedtool::SearchResult &R) {
  std::ostringstream OS;
  OS << R.Found << ' ' << R.ConfigurationsEvaluated << ' '
     << R.SchedulableSeen << ' ' << R.BestBadness << ' '
     << R.CandidatesSkipped << ' ' << R.Cancelled << ' ' << R.CacheHits
     << ' ' << R.CacheMisses << ' ' << R.SymmetryFolds << ' '
     << R.DuplicateCandidates << ' ' << R.DecomposedCandidates << ' '
     << R.ComponentsSimulated << ' ' << R.SimulationsRun << '\n';
  for (int C : R.StopReasonCounts)
    OS << C << ' ';
  OS << '\n';
  for (const auto &[Iter, Badness] : R.BestTrajectory)
    OS << Iter << ':' << Badness << ' ';
  OS << '\n';
  for (const std::string &Line : R.Log)
    OS << Line << '\n';
  for (const cfg::Partition &P : R.Best.Partitions) {
    OS << P.Name << "->" << P.Core;
    for (const cfg::Window &W : P.Windows)
      OS << " [" << W.Start << ',' << W.End << ')';
    OS << '\n';
  }
  return OS.str();
}

TEST(ObsSharded, SearchIsWorkerCountInvariantUnderFullObservability) {
  schedtool::SearchProblem Problem;
  Problem.Base = testcfg::twoTasksOneCore();
  for (cfg::Partition &P : Problem.Base.Partitions) {
    P.Core = -1;
    P.Windows.clear();
  }
  Problem.MaxIterations = 12;

  // Reference: observability fully off.
  std::string Baseline;
  {
    ObsScope Scope(/*On=*/false, /*Spans=*/false);
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    Baseline = renderSearchResult(*Res);
  }

  // With metrics AND spans on, every worker count must (a) reproduce the
  // obs-off result byte-for-byte and (b) merge to identical registry
  // contents — the sharded-domain determinism contract.
  std::vector<std::pair<std::string, uint64_t>> BaselineCounters;
  for (int Workers : {1, 2, 4}) {
    ObsScope Scope(/*On=*/true, /*Spans=*/true);
    Problem.Workers = Workers;
    Result<schedtool::SearchResult> Res =
        schedtool::searchConfiguration(Problem);
    ASSERT_TRUE(Res.ok()) << Res.error().message();
    EXPECT_EQ(renderSearchResult(*Res), Baseline)
        << "Workers=" << Workers << " diverged from the obs-off run";
    EXPECT_GT(obs::spanCount(), 0u) << "Workers=" << Workers;

    auto Counters = obs::Registry::global().counterValues();
    EXPECT_FALSE(Counters.empty());
    if (Workers == 1)
      BaselineCounters = Counters;
    else
      EXPECT_EQ(Counters, BaselineCounters)
          << "merged counters depend on Workers=" << Workers;
  }
}

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
