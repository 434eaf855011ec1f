//===- obs/Span.cpp - Timed spans with Chrome trace export -----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "obs/Span.h"

#include "obs/RunReport.h"
#include "obs/ThreadSharded.h"
#include "support/StringUtils.h"

#include <ostream>
#include <vector>

using namespace swa;
using namespace swa::obs;

namespace {
bool SpansFlag = false;

/// One thread's span ring. Written only by the owning thread; read by
/// writeChromeTrace()/spanCount() at quiescent points (the callers hold a
/// happens-before edge to every recording thread, e.g. a joined pool).
struct SpanRing {
  std::vector<SpanRecord> Buf; // sized lazily to spanRingCapacity()
  uint64_t Head = 0;           // total spans ever recorded

  void record(const SpanRecord &R) {
    if (Buf.empty())
      Buf.resize(spanRingCapacity());
    Buf[Head % spanRingCapacity()] = R;
    ++Head;
  }

  uint64_t dropped() const {
    return Head > spanRingCapacity() ? Head - spanRingCapacity() : 0;
  }

  uint64_t buffered() const {
    return Head > spanRingCapacity() ? spanRingCapacity() : Head;
  }
};

// Intentionally leaked (see Metrics.cpp: thread_local holders may outlive
// static destruction).
detail::ThreadSharded<SpanRing> &rings() {
  static auto *R = new detail::ThreadSharded<SpanRing>();
  return *R;
}

/// The process trace epoch: all span timestamps are relative to the first
/// use of the span layer, keeping trace-viewer timestamps small.
std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

uint64_t sinceEpochNs(std::chrono::steady_clock::time_point T) {
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                T - traceEpoch())
                .count();
  return Ns > 0 ? static_cast<uint64_t>(Ns) : 0;
}
} // namespace

bool swa::obs::spansEnabled() { return SpansFlag; }

void swa::obs::setSpansEnabled(bool On) {
  if (On)
    traceEpoch(); // pin the epoch before the first span
  SpansFlag = On;
}

void swa::obs::recordSpan(const char *Name, const char *Cat,
                          std::chrono::steady_clock::time_point Begin,
                          std::chrono::steady_clock::time_point End,
                          const SpanArg *Args, int NumArgs) {
  SpanRecord R;
  R.Name = Name;
  R.Cat = Cat;
  R.BeginNs = sinceEpochNs(Begin);
  R.EndNs = sinceEpochNs(End);
  if (NumArgs > SpanRecord::MaxArgs)
    NumArgs = SpanRecord::MaxArgs;
  for (int I = 0; I < NumArgs; ++I)
    R.Args[I] = Args[I];
  R.NumArgs = NumArgs;
  rings().local().record(R);
}

size_t swa::obs::spanCount() {
  size_t Total = 0;
  rings().forEach(
      [&](SpanRing &R, int) { Total += static_cast<size_t>(R.buffered()); });
  return Total;
}

uint64_t swa::obs::spansDropped() {
  uint64_t Total = 0;
  rings().forEach([&](SpanRing &R, int) { Total += R.dropped(); });
  return Total;
}

void swa::obs::resetSpans() {
  rings().forEach([](SpanRing &R, int) {
    R.Buf.clear();
    R.Head = 0;
  });
}

void swa::obs::writeChromeTrace(std::ostream &OS) {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  rings().forEach([&](SpanRing &R, int Tid) {
    if (R.Head == 0)
      return;
    // Thread-name metadata so viewers label the lane by shard id.
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << Tid
       << ",\"args\":{\"name\":\"shard-" << Tid << "\"}}";
    uint64_t Start = R.Head > spanRingCapacity() ? R.Head - spanRingCapacity()
                                                 : 0;
    for (uint64_t I = Start; I < R.Head; ++I) {
      const SpanRecord &S = R.Buf[I % spanRingCapacity()];
      // Complete event; microsecond timestamps with ns precision kept in
      // the fraction.
      OS << ",{\"name\":\"" << jsonEscape(S.Name) << "\",\"cat\":\""
         << jsonEscape(S.Cat) << "\",\"ph\":\"X\",\"ts\":"
         << formatString("%.3f", static_cast<double>(S.BeginNs) / 1e3)
         << ",\"dur\":"
         << formatString("%.3f",
                         static_cast<double>(S.EndNs - S.BeginNs) / 1e3)
         << ",\"pid\":1,\"tid\":" << Tid;
      if (S.NumArgs > 0) {
        OS << ",\"args\":{";
        for (int A = 0; A < S.NumArgs; ++A) {
          if (A)
            OS << ",";
          OS << "\"" << jsonEscape(S.Args[A].Key)
             << "\":" << S.Args[A].Value;
        }
        OS << "}";
      }
      OS << "}";
    }
  });
  OS << "]}\n";
}
