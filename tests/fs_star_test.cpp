// Tests for the composable FS* algorithm (Lemma 8): consistency with FS,
// composition across prefixes, and the divide-and-conquer identity of
// Lemma 9.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

TEST(FsStar, FullRunEqualsFs) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    const MinimizeResult fs = fs_minimize(t);
    std::vector<int> order;
    const PrefixTable full = fs_star_full(initial_table(t),
                                          util::full_mask(n),
                                          DiagramKind::kBdd, nullptr, &order);
    EXPECT_EQ(full.mincost(), fs.min_internal_nodes);
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
  }
}

TEST(FsStar, StopLayerProducesAllSubsets) {
  const tt::TruthTable t = tt::majority(5);
  const util::Mask all = util::full_mask(5);
  for (int k = 0; k <= 5; ++k) {
    const FsStarResult r =
        fs_star(initial_table(t), all, k, DiagramKind::kBdd);
    EXPECT_EQ(r.tables.size(), util::binomial_u64(5, k));
    for (const auto& [K, table] : r.tables) {
      EXPECT_EQ(util::popcount(K), k);
      EXPECT_EQ(table.vars, K);
      EXPECT_EQ(table.cells.size(), std::uint64_t{1} << (5 - k));
    }
  }
}

TEST(FsStar, RejectsOverlappingBlock) {
  PrefixTable p = initial_table(tt::parity(4));
  p = compact(p, 1, DiagramKind::kBdd, nullptr);
  EXPECT_THROW(fs_star(p, 0b0011, 2, DiagramKind::kBdd), util::CheckError);
}

// MINCOST computed by extending a fixed prefix must match a direct chain
// evaluation: FS(<I, J>) restricted minimum over orderings that place I at
// the bottom (in optimal arrangement) and J above.
TEST(FsStar, CompositionMatchesConstrainedBruteForce) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    const util::Mask I = 0b000101;  // {0, 2}
    const util::Mask J = 0b011010;  // {1, 3, 4}
    // Best chain for I alone:
    const PrefixTable base = fs_star_full(initial_table(t), I,
                                          DiagramKind::kBdd);
    // FS* extension.
    const PrefixTable ext = fs_star_full(base, J, DiagramKind::kBdd);

    // Constrained brute force: min over orderings of I at the bottom and J
    // directly above (remaining variables on top, irrelevant to the count
    // of the bottom |I|+|J| levels). Evaluate via chains.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::vector<int> i_vars = util::bits_of(I);
    std::sort(i_vars.begin(), i_vars.end());
    do {
      std::vector<int> j_vars = util::bits_of(J);
      std::sort(j_vars.begin(), j_vars.end());
      do {
        PrefixTable p = initial_table(t);
        for (const int v : i_vars) p = compact(p, v, DiagramKind::kBdd);
        for (const int v : j_vars) p = compact(p, v, DiagramKind::kBdd);
        best = std::min(best, p.mincost());
      } while (std::next_permutation(j_vars.begin(), j_vars.end()));
    } while (std::next_permutation(i_vars.begin(), i_vars.end()));
    EXPECT_EQ(ext.mincost(), best);
  }
}

// Lemma 9: MINCOST_[n] = min over K of size k of
//   MINCOST_K + MINCOST_{(K, [n]\K)}([n] \ K).
TEST(FsStar, Lemma9DivideAndConquerIdentity) {
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    const std::uint64_t direct = fs_minimize(t).min_internal_nodes;
    for (int k = 1; k < n; ++k) {
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      util::for_each_subset_of_size(n, k, [&](util::Mask K) {
        const PrefixTable bottom =
            fs_star_full(initial_table(t), K, DiagramKind::kBdd);
        const PrefixTable full = fs_star_full(
            bottom, util::full_mask(n) & ~K, DiagramKind::kBdd);
        best = std::min(best, full.mincost());
      });
      EXPECT_EQ(best, direct) << "k=" << k;
    }
  }
}

TEST(FsStar, ReconstructBlockOrderAchievesMincost) {
  util::Xoshiro256 rng(13);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  const util::Mask I = 0b001011;
  std::vector<int> order_bottom_up;
  const PrefixTable p = fs_star_full(initial_table(t), I, DiagramKind::kBdd,
                                     nullptr, &order_bottom_up);
  ASSERT_EQ(order_bottom_up.size(), 3u);
  // Re-run the chain in the reconstructed order; cost must match.
  PrefixTable q = initial_table(t);
  for (const int v : order_bottom_up) q = compact(q, v, DiagramKind::kBdd);
  EXPECT_EQ(q.mincost(), p.mincost());
}

TEST(FsStar, MincostMapIsMonotone) {
  // Adding variables to the prefix can only add levels: MINCOST_{I} >=
  // MINCOST_{I'} whenever I' ⊆ I... along the DP, mincost values grow with
  // layer for any fixed chain. Check the weaker property: MINCOST_I >=
  // max over i of MINCOST_{I\i}... actually Lemma 4 gives equality with an
  // added width >= 0, so MINCOST_I >= MINCOST_{I\i} for the argmin i and
  // >= min over i. Verify min-monotonicity.
  util::Xoshiro256 rng(17);
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng);
  const FsStarResult r =
      fs_star(initial_table(t), util::full_mask(n), n, DiagramKind::kBdd);
  for (const auto& [I, ties, cost] : r.states) {
    if (I == 0) continue;
    std::uint64_t best_pred = std::numeric_limits<std::uint64_t>::max();
    util::for_each_bit(I, [&](int i) {
      const FsState* pred = r.state(I & ~(util::Mask{1} << i));
      ASSERT_NE(pred, nullptr) << "I=" << I << " i=" << i;
      best_pred = std::min(best_pred, pred->mincost);
    });
    EXPECT_GE(cost, best_pred);
  }
}

TEST(FsStar, ZddKindCompositionConsistent) {
  util::Xoshiro256 rng(23);
  const int n = 5;
  const tt::TruthTable t = tt::random_sparse_function(n, 6, rng);
  const std::uint64_t direct =
      fs_minimize(t, DiagramKind::kZdd).min_internal_nodes;
  const int k = 2;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  util::for_each_subset_of_size(n, k, [&](util::Mask K) {
    const PrefixTable bottom =
        fs_star_full(initial_table(t), K, DiagramKind::kZdd);
    const PrefixTable full =
        fs_star_full(bottom, util::full_mask(n) & ~K, DiagramKind::kZdd);
    best = std::min(best, full.mincost());
  });
  EXPECT_EQ(best, direct);
}

}  // namespace
}  // namespace ovo::core
