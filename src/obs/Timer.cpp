//===- obs/Timer.cpp - RAII phase timers and the phase tree ----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "obs/Timer.h"

#include "obs/RunReport.h"
#include "obs/ThreadSharded.h"
#include "support/StringUtils.h"

#include <fstream>
#include <ostream>

using namespace swa;
using namespace swa::obs;

namespace {
// Intentionally leaked (see Metrics.cpp: thread_local holders may outlive
// static destruction).
detail::ThreadSharded<PhaseTree> &trees() {
  static auto *T = new detail::ThreadSharded<PhaseTree>();
  return *T;
}
} // namespace

const PhaseTree::Node *
PhaseTree::Node::child(std::string_view ChildName) const {
  auto It = ChildIndex.find(ChildName);
  return It == ChildIndex.end() ? nullptr : Children[It->second].get();
}

PhaseTree::Node &PhaseTree::Node::childOrCreate(std::string_view ChildName) {
  auto It = ChildIndex.find(ChildName);
  if (It != ChildIndex.end())
    return *Children[It->second];
  Children.push_back(std::make_unique<Node>());
  Children.back()->Name = std::string(ChildName);
  ChildIndex.emplace(Children.back()->Name, Children.size() - 1);
  return *Children.back();
}

PhaseTree &PhaseTree::current() { return trees().local(); }

void PhaseTree::push(std::string_view Name) {
  Stack.push_back(&Stack.back()->childOrCreate(Name));
}

void PhaseTree::pop(uint64_t Nanos) {
  if (Stack.size() <= 1)
    return; // Unbalanced pop; ignore rather than corrupt the root.
  Node *Cur = Stack.back();
  Stack.pop_back();
  Cur->Nanos += Nanos;
  ++Cur->Count;
}

namespace {

void mergeInto(PhaseTree::Node &Dst, const PhaseTree::Node &Src) {
  Dst.Nanos += Src.Nanos;
  Dst.Count += Src.Count;
  for (const auto &C : Src.Children)
    mergeInto(Dst.childOrCreate(C->Name), *C);
}

} // namespace

PhaseTree::Node PhaseTree::mergedRoot() {
  Node Out;
  trees().forEach([&](PhaseTree &T, int) { mergeInto(Out, T.root()); });
  // mergeInto accumulated the roots' (zero) nanos too; keep the merged
  // root itself clean.
  Out.Nanos = 0;
  Out.Count = 0;
  return Out;
}

void PhaseTree::resetAll() {
  trees().forEach([](PhaseTree &T, int) { T.reset(); });
}

uint64_t PhaseTree::totalNanos(const Node &Root) {
  uint64_t Total = 0;
  for (const auto &C : Root.Children)
    Total += C->Nanos;
  return Total;
}

namespace {

void renderNode(std::ostream &OS, const PhaseTree::Node &N, int Depth) {
  OS << formatString("%*s%-*s %9.3f ms  x%llu\n", Depth * 2, "",
                     30 - Depth * 2, N.Name.c_str(),
                     static_cast<double>(N.Nanos) / 1e6,
                     static_cast<unsigned long long>(N.Count));
  for (const auto &C : N.Children)
    renderNode(OS, *C, Depth + 1);
}

} // namespace

void PhaseTree::render(std::ostream &OS, const Node &Root) {
  if (Root.Children.empty()) {
    OS << "  (no phases recorded)\n";
    return;
  }
  for (const auto &C : Root.Children)
    renderNode(OS, *C, 1);
}

void PhaseTree::reset() {
  Root = Node();
  Stack.assign(1, &Root);
}

//===----------------------------------------------------------------------===//
// The span timeline
//===----------------------------------------------------------------------===//

namespace {
bool SpansFlag = false;

/// One finished phase. Times are nanoseconds since the trace epoch.
struct SpanRecord {
  const char *Name = nullptr;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
};

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

  uint64_t buffered() const { return Head - dropped(); }
};

// Intentionally leaked, like trees().
detail::ThreadSharded<SpanRing> &rings() {
  static auto *R = new detail::ThreadSharded<SpanRing>();
  return *R;
}

/// The process trace epoch: all span timestamps are relative to the first
/// use of the timeline, keeping trace-viewer timestamps small.
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

void swa::obs::detail::recordSpan(const char *Name,
                                  std::chrono::steady_clock::time_point Begin,
                                  std::chrono::steady_clock::time_point End) {
  rings().local().record({Name, sinceEpochNs(Begin), sinceEpochNs(End)});
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
    for (uint64_t I = R.dropped(); I < R.Head; ++I) {
      const SpanRecord &S = R.Buf[I % spanRingCapacity()];
      // Complete event; microsecond timestamps with ns precision kept in
      // the fraction.
      OS << ",{\"name\":\"" << jsonEscape(S.Name) << "\",\"ph\":\"X\",\"ts\":"
         << formatString("%.3f", static_cast<double>(S.BeginNs) / 1e3)
         << ",\"dur\":"
         << formatString("%.3f",
                         static_cast<double>(S.EndNs - S.BeginNs) / 1e3)
         << ",\"pid\":1,\"tid\":" << Tid << "}";
    }
  });
  OS << "]}\n";
}

bool swa::obs::writeChromeTraceFile(const std::string &Path,
                                    std::string &Error) {
  std::ofstream OS(Path);
  if (!OS) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  writeChromeTrace(OS);
  OS.flush();
  if (!OS) {
    Error = "write to " + Path + " failed";
    return false;
  }
  return true;
}
