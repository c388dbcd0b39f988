#pragma once
// The plain Lemma 4 recurrence, for tests that check the FS* engine
// against it: one table per subset, each predecessor compacted in full,
// bits visited in ascending order and a later candidate kept only if
// strictly cheaper.  No symmetry orbits, no cut, no pruning, no threads.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prefix_table.hpp"
#include "util/bits.hpp"

namespace ovo::core {

/// Every subset's MINCOST and argmin, indexed by mask.
struct ReferenceDp {
  std::vector<std::uint64_t> mincost;
  std::vector<int> best_last;
};

inline ReferenceDp reference_dp(const PrefixTable& base, DiagramKind kind) {
  const int n = base.n;
  const util::Mask full = util::full_mask(n);
  ReferenceDp ref{std::vector<std::uint64_t>(full + 1),
                  std::vector<int>(full + 1, -1)};
  std::unordered_map<util::Mask, PrefixTable> prev{{0, base}};
  for (int k = 1; k <= n; ++k) {
    std::unordered_map<util::Mask, PrefixTable> cur;
    for (util::Mask I = 1; I <= full; ++I) {
      if (util::popcount(I) != k) continue;
      PrefixTable best;
      util::for_each_bit(I, [&](int v) {
        PrefixTable t = compact(prev.at(I & ~(util::Mask{1} << v)), v, kind);
        if (ref.best_last[I] < 0 || t.mincost() < best.mincost()) {
          ref.best_last[I] = v;
          best = std::move(t);
        }
      });
      ref.mincost[I] = best.mincost();
      cur.emplace(I, std::move(best));
    }
    prev = std::move(cur);
  }
  return ref;
}

}  // namespace ovo::core
