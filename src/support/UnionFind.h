//===- support/UnionFind.h - Disjoint-set union ------------------*- C++ -*-===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain disjoint-set-union (union by size, path halving). Used by the
/// config decomposition to find the connected components of the
/// inter-core message graph (config/Decompose.h).
///
//===----------------------------------------------------------------------===//

#ifndef SWA_SUPPORT_UNIONFIND_H
#define SWA_SUPPORT_UNIONFIND_H

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace swa {
namespace support {

class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N), Size(N, 1) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  int32_t find(int32_t X) {
    while (Parent[static_cast<size_t>(X)] != X) {
      Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
      X = Parent[static_cast<size_t>(X)];
    }
    return X;
  }

  /// Unions the sets of \p A and \p B; returns false when they were
  /// already one set.
  bool unite(int32_t A, int32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    if (Size[static_cast<size_t>(A)] < Size[static_cast<size_t>(B)])
      std::swap(A, B);
    Parent[static_cast<size_t>(B)] = A;
    Size[static_cast<size_t>(A)] += Size[static_cast<size_t>(B)];
    return true;
  }

  bool same(int32_t A, int32_t B) { return find(A) == find(B); }

private:
  std::vector<int32_t> Parent;
  std::vector<int64_t> Size;
};

} // namespace support
} // namespace swa

#endif // SWA_SUPPORT_UNIONFIND_H
