//===- obs/Metrics.cpp - Thread-sharded counters and histograms ------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/ThreadSharded.h"
#include "obs/Timer.h"
#include "support/StringUtils.h"

#include <mutex>
#include <ostream>

using namespace swa;
using namespace swa::obs;

namespace {
bool EnabledFlag = false;

/// One thread's instrument domain. The maps' *structure* is guarded by Mu
/// so cross-thread merges can iterate safely; the owning thread's lookups
/// take the lock only on first registration (its own inserts cannot race
/// with its own finds, and merging threads only read).
struct Shard {
  std::mutex Mu;
  std::map<std::string, Counter, std::less<>> Counters;
  std::map<std::string, Histogram, std::less<>> Histograms;

  Counter &counter(std::string_view Name) {
    auto It = Counters.find(Name);
    if (It != Counters.end())
      return It->second;
    std::lock_guard<std::mutex> Lock(Mu);
    return Counters.try_emplace(std::string(Name)).first->second;
  }

  Histogram &histogram(std::string_view Name) {
    auto It = Histograms.find(Name);
    if (It != Histograms.end())
      return It->second;
    std::lock_guard<std::mutex> Lock(Mu);
    return Histograms.try_emplace(std::string(Name)).first->second;
  }
};

// Intentionally leaked: thread_local shard holders release their shard in
// their destructor, which can run after static destruction at process
// exit; leaking keeps the owner alive for them.
detail::ThreadSharded<Shard> &shards() {
  static auto *S = new detail::ThreadSharded<Shard>();
  return *S;
}
} // namespace

bool swa::obs::enabled() { return EnabledFlag; }
void swa::obs::setEnabled(bool On) { EnabledFlag = On; }

void Histogram::merge(const Histogram &O) {
  for (int B = 0; B < NumBuckets; ++B)
    bump(Buckets[static_cast<size_t>(B)], O.bucketCount(B));
  bump(N, O.N.load(std::memory_order_relaxed));
  bump(Sum, O.Sum.load(std::memory_order_relaxed));
  uint64_t OMin = O.MinV.load(std::memory_order_relaxed);
  uint64_t OMax = O.MaxV.load(std::memory_order_relaxed);
  if (OMin < MinV.load(std::memory_order_relaxed))
    MinV.store(OMin, std::memory_order_relaxed);
  if (OMax > MaxV.load(std::memory_order_relaxed))
    MaxV.store(OMax, std::memory_order_relaxed);
}

void Histogram::copyFrom(const Histogram &O) {
  for (int B = 0; B < NumBuckets; ++B)
    Buckets[static_cast<size_t>(B)].store(O.bucketCount(B),
                                          std::memory_order_relaxed);
  N.store(O.N.load(std::memory_order_relaxed), std::memory_order_relaxed);
  Sum.store(O.Sum.load(std::memory_order_relaxed), std::memory_order_relaxed);
  MinV.store(O.MinV.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  MaxV.store(O.MaxV.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
}

void Histogram::reset() {
  for (int B = 0; B < NumBuckets; ++B)
    Buckets[static_cast<size_t>(B)].store(0, std::memory_order_relaxed);
  N.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  MinV.store(UINT64_MAX, std::memory_order_relaxed);
  MaxV.store(0, std::memory_order_relaxed);
}

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(std::string_view Name) {
  return shards().local().counter(Name);
}

Histogram &Registry::histogram(std::string_view Name) {
  return shards().local().histogram(Name);
}

std::vector<std::pair<std::string, uint64_t>>
Registry::counterValues() const {
  // std::map keeps the merged view sorted by name; summation is
  // order-independent, so the result does not depend on shard count or
  // which thread published what.
  std::map<std::string, uint64_t, std::less<>> Merged;
  shards().forEach([&](Shard &S, int) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &[Name, C] : S.Counters)
      Merged[Name] += C.value();
  });
  return {Merged.begin(), Merged.end()};
}

std::vector<std::pair<std::string, Histogram>> Registry::histograms() const {
  std::map<std::string, Histogram, std::less<>> Merged;
  shards().forEach([&](Shard &S, int) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &[Name, H] : S.Histograms)
      Merged[Name].merge(H);
  });
  return {Merged.begin(), Merged.end()};
}

void Registry::reset() {
  shards().forEach([](Shard &S, int) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (auto &[Name, C] : S.Counters)
      C.reset();
    for (auto &[Name, H] : S.Histograms)
      H.reset();
  });
}

size_t Registry::shardCount() const { return shards().shardCount(); }

void swa::obs::report(std::ostream &OS) {
  Registry &Reg = Registry::global();
  OS << "phases:\n";
  PhaseTree::render(OS, PhaseTree::mergedRoot());
  OS << "counters:\n";
  for (const auto &[Name, Value] : Reg.counterValues())
    OS << formatString("  %-36s %llu\n", Name.c_str(),
                       static_cast<unsigned long long>(Value));
  OS << "histograms:\n";
  for (const auto &[Name, H] : Reg.histograms())
    OS << formatString("  %-36s n=%llu sum=%llu min=%llu mean=%.1f max=%llu\n",
                       Name.c_str(), static_cast<unsigned long long>(H.count()),
                       static_cast<unsigned long long>(H.sum()),
                       static_cast<unsigned long long>(H.min()), H.mean(),
                       static_cast<unsigned long long>(H.max()));
}
