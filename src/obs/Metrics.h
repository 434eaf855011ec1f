//===- obs/Metrics.h - Thread-sharded counters and histograms ---*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: named monotonic counters
/// and log2-bucketed histograms, accumulated in *thread-sharded* domains.
/// Each thread publishes into its own shard (created on first use and
/// retired to a free list at thread exit); publication points merge the
/// shards by stable instrument name into one ordered view, so the merged
/// registry contents are a pure function of the work performed — identical
/// for every worker count and every thread schedule. Worker threads of the
/// parallel config search therefore publish freely.
///
/// The hot layers (simulator, model checker, config search) still
/// accumulate into plain local integers and publish totals once per run,
/// so the engines' inner loops never touch the registry; everything is
/// additionally gated on the global enable flag, making the layer one
/// branch per site when observability is off.
///
/// Instruments are registered by name on first use and keep stable
/// addresses for the life of the process within their shard (each shard
/// stores them in a transparent-comparator std::map), so callers may cache
/// Counter*/Histogram* pointers across runs *on the thread that obtained
/// them*. reset() zeroes values in every shard but keeps registrations.
///
/// Instrument cells are single-writer relaxed atomics: only the owning
/// thread writes them, merges read them, so a merge concurrent with
/// recording is tearing-free and ThreadSanitizer-clean. Exact totals are
/// guaranteed at quiescent points (after ThreadPool::parallelFor returned,
/// end of run) where the caller has a happens-before edge to every writer.
///
/// Counters and histograms are *observers*: nothing in the engine reads
/// them back, so enabling metrics can never change a verdict or a trace
/// (see DESIGN.md, "Observability").
///
//===----------------------------------------------------------------------===//

#ifndef SWA_OBS_METRICS_H
#define SWA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace swa {
namespace obs {

/// The one metrics switch: gates phase timers and the registry
/// publication of every instrumented layer, the simulator's engine
/// counters included. Process-wide, off by default.
bool enabled();
void setEnabled(bool On);

/// A monotonic event counter. Single-writer: only the thread owning the
/// enclosing shard calls add()/reset(); value() may be read from any
/// thread (relaxed — exact once the writer quiesced).
class Counter {
public:
  void add(uint64_t N = 1) {
    Value.store(Value.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
  }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// A histogram over uint64 samples with power-of-two buckets: bucket B
/// counts samples V with floor(log2(V)) == B (bucket 0 also holds V == 0).
/// Tracks count/sum/min/max exactly; the buckets give the shape. Same
/// single-writer contract as Counter; copyable so merged snapshots can be
/// returned by value.
class Histogram {
public:
  static constexpr int NumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram &O) { copyFrom(O); }
  Histogram &operator=(const Histogram &O) {
    if (this != &O)
      copyFrom(O);
    return *this;
  }

  void record(uint64_t V) {
    bump(Buckets[static_cast<size_t>(bucketOf(V))], 1);
    bump(N, 1);
    bump(Sum, V);
    if (V < MinV.load(std::memory_order_relaxed))
      MinV.store(V, std::memory_order_relaxed);
    if (V > MaxV.load(std::memory_order_relaxed))
      MaxV.store(V, std::memory_order_relaxed);
  }

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Minimum/maximum recorded sample; 0 when empty.
  uint64_t min() const {
    return count() ? MinV.load(std::memory_order_relaxed) : 0;
  }
  uint64_t max() const {
    return count() ? MaxV.load(std::memory_order_relaxed) : 0;
  }
  double mean() const {
    uint64_t C = count();
    return C ? static_cast<double>(sum()) / static_cast<double>(C) : 0.0;
  }
  uint64_t bucketCount(int B) const {
    return Buckets[static_cast<size_t>(B)].load(std::memory_order_relaxed);
  }

  /// Bucket index of a sample: floor(log2(V)), with 0 mapping to bucket 0.
  static int bucketOf(uint64_t V) {
    int B = 0;
    while (V >>= 1)
      ++B;
    return B;
  }

  /// Accumulates \p O into this histogram (merge step; writer-side only).
  void merge(const Histogram &O);

  void reset();

private:
  static void bump(std::atomic<uint64_t> &Cell, uint64_t By) {
    Cell.store(Cell.load(std::memory_order_relaxed) + By,
               std::memory_order_relaxed);
  }
  void copyFrom(const Histogram &O);

  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> MinV{UINT64_MAX};
  std::atomic<uint64_t> MaxV{0};
};

/// The process-wide instrument registry, sharded per thread. counter() and
/// histogram() resolve in the *calling thread's* shard (lookup is by name,
/// "layer.what" convention, e.g. "nsa.heap.pops"; first use registers —
/// the shard maps use std::less<> so a string_view lookup allocates
/// nothing). The merged views aggregate every shard by name, sorted, so
/// their contents do not depend on which thread published what.
class Registry {
public:
  static Registry &global();

  Counter &counter(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Name/value pairs of every registered counter, merged across shards
  /// (values summed by name), sorted by name.
  std::vector<std::pair<std::string, uint64_t>> counterValues() const;

  /// Every registered histogram, merged across shards, sorted by name.
  std::vector<std::pair<std::string, Histogram>> histograms() const;

  /// Zeroes every instrument in every shard; registrations (and cached
  /// pointers) survive. Call only at quiescent points.
  void reset();

  /// Shards ever created (live + retired) — diagnostics and tests.
  size_t shardCount() const;
};

/// Dumps the merged phase tree, counters and histogram summaries as text
/// for humans. The machine-readable form is obs::RunReport.
void report(std::ostream &OS);

} // namespace obs
} // namespace swa

#endif // SWA_OBS_METRICS_H
