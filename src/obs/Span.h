//===- obs/Span.h - Timed spans with Chrome trace export --------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight duration spans for timeline profiling: a Span captures a
/// steady-clock begin/end, a category, and up to a handful of integer
/// arguments (fingerprints, stop reasons, badness...), and is recorded
/// into a bounded per-thread ring buffer — no locks, no allocation on the
/// hot path once the ring exists. writeChromeTrace() serializes every
/// buffered span as `trace_event` JSON loadable by chrome://tracing and
/// Perfetto; the `tid` of each event is the recording thread's stable
/// shard id, so worker lanes line up across the timeline.
///
/// Spans are gated on their own switch (setSpansEnabled) so metrics can
/// stay on while span recording — the more memory-hungry layer — stays
/// off. When off, Span construction is a single branch. The per-thread
/// rings hold the most recent SpanRing::Capacity spans each; older spans
/// are overwritten and counted in spansDropped(), so a pathological run
/// degrades to a truncated timeline instead of unbounded memory.
///
/// Like every obs layer, spans are pure observers: nothing reads them
/// back, so enabling tracing cannot change a verdict or a trace. Span
/// names and categories must be string literals (or otherwise outlive the
/// process) — the ring stores the pointers, not copies.
///
//===----------------------------------------------------------------------===//

#ifndef SWA_OBS_SPAN_H
#define SWA_OBS_SPAN_H

#include <chrono>
#include <cstdint>
#include <iosfwd>

namespace swa {
namespace obs {

/// Span recording switch. Process-wide and independent of the metrics
/// switch.
bool spansEnabled();
void setSpansEnabled(bool On);

/// One key/value argument attached to a span. Keys must be string
/// literals.
struct SpanArg {
  const char *Key = nullptr;
  int64_t Value = 0;
};

/// A finished span as stored in the ring. Times are nanoseconds since the
/// process trace epoch (first span-layer use).
struct SpanRecord {
  static constexpr int MaxArgs = 6;

  const char *Name = nullptr;
  const char *Cat = nullptr;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  SpanArg Args[MaxArgs];
  int NumArgs = 0;
};

/// Records a span whose duration was measured externally (e.g. by a
/// ScopedTimer that is already holding the timestamps). \p Name and \p Cat
/// and every arg key must be string literals.
void recordSpan(const char *Name, const char *Cat,
                std::chrono::steady_clock::time_point Begin,
                std::chrono::steady_clock::time_point End,
                const SpanArg *Args = nullptr, int NumArgs = 0);

/// RAII span: begin on construction, record on destruction. Inactive (one
/// branch) when spansEnabled() is false at construction. Args added
/// between construction and destruction ride along; beyond
/// SpanRecord::MaxArgs they are silently ignored.
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "task") {
    if (!spansEnabled())
      return;
    Active = true;
    this->Name = Name;
    this->Cat = Cat;
    Begin = std::chrono::steady_clock::now();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void arg(const char *Key, int64_t Value) {
    if (Active && NumArgs < SpanRecord::MaxArgs)
      Args[NumArgs++] = {Key, Value};
  }

  ~Span() {
    if (!Active)
      return;
    recordSpan(Name, Cat, Begin, std::chrono::steady_clock::now(), Args,
               NumArgs);
  }

private:
  bool Active = false;
  const char *Name = nullptr;
  const char *Cat = nullptr;
  std::chrono::steady_clock::time_point Begin;
  SpanArg Args[SpanRecord::MaxArgs];
  int NumArgs = 0;
};

/// Per-thread ring capacity, in spans. A full ring overwrites its oldest
/// entries (counted in spansDropped()).
constexpr size_t spanRingCapacity() { return size_t(1) << 14; }

/// Spans currently buffered across all threads.
size_t spanCount();

/// Spans overwritten because a ring wrapped, across all threads.
uint64_t spansDropped();

/// Clears every ring (buffered spans and drop counts). Call only at
/// quiescent points.
void resetSpans();

/// Serializes every buffered span (all threads, oldest surviving first per
/// thread) as Chrome `trace_event` JSON: one object with "traceEvents"
/// complete events ("ph":"X", microsecond timestamps) plus thread-name
/// metadata. Loadable by chrome://tracing and Perfetto. Call at quiescent
/// points.
void writeChromeTrace(std::ostream &OS);

} // namespace obs
} // namespace swa

#endif // SWA_OBS_SPAN_H
