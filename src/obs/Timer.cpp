//===- obs/Timer.cpp - RAII phase timers and the phase tree ----------------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "obs/Timer.h"

#include "obs/ThreadSharded.h"
#include "support/StringUtils.h"

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
