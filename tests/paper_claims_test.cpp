// One test per numbered claim of the paper, as executable documentation.
// (Several claims also have deeper coverage in the per-module suites;
// this file is the index that maps paper statements to code.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "bdd/manager.hpp"
#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "quantum/analysis.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "quantum/params.hpp"
#include "reorder/baselines.hpp"
#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "tt/normal_forms.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo {
namespace {

par::ExecPolicy exec_threads(int threads) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  return exec;
}

// Theorem 1 / Theorem 13: minimum OBDD + ordering, valid output even under
// minimum-finder failure.
TEST(PaperClaims, Theorem1MinimumObddWithOrdering) {
  util::Xoshiro256 rng(1);
  const tt::TruthTable f = tt::random_function(6, rng);
  quantum::AccountingMinimumFinder finder(6.0);
  quantum::OptObddOptions opt;
  opt.alphas = {0.27};
  opt.finder = &finder;
  const auto q = quantum::opt_obdd_minimize(f, opt);
  reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
  EXPECT_EQ(q.min_internal_nodes,
            reorder::brute_force_minimize(oracle).internal_nodes);
  bdd::Manager m(6, q.order_root_first);
  EXPECT_EQ(m.to_truth_table(m.from_truth_table(f)), f);
}

// Corollary 2: any poly-evaluable representation suffices.
TEST(PaperClaims, Corollary2AnyRepresentation) {
  const tt::ExprPtr e = tt::parse_expr("x1 & x2 | x3 & x4 | x5 & x6");
  const tt::TruthTable via_expr = tt::expr_to_truth_table(*e, 6);
  const tt::TruthTable direct = tt::pair_sum(3);
  EXPECT_EQ(via_expr, direct);
  EXPECT_EQ(core::fs_minimize(via_expr).min_internal_nodes,
            core::fs_minimize(direct).min_internal_nodes);
}

// Sec. 1.1 / Fig. 1: the exponential ordering gap of the pair-sum family.
TEST(PaperClaims, Fig1ExponentialGap) {
  for (int m = 2; m <= 6; ++m) {
    const tt::TruthTable f = tt::pair_sum(m);
    EXPECT_EQ(core::diagram_size_for_order(
                  f, tt::pair_sum_natural_order(m)) + 2,
              static_cast<std::uint64_t>(2 * m + 2));
    EXPECT_EQ(core::diagram_size_for_order(
                  f, tt::pair_sum_interleaved_order(m)) + 2,
              std::uint64_t{1} << (m + 1));
  }
}

// Lemma 3: Cost_i depends only on the partition (prefix set, i, rest).
TEST(PaperClaims, Lemma3WidthSetInvariance) {
  util::Xoshiro256 rng(3);
  const tt::TruthTable f = tt::random_function(6, rng);
  const util::Mask I = 0b011010;  // {1, 3, 4}
  const int i = 3;
  std::vector<std::uint64_t> widths;
  std::vector<int> rest{1, 4};
  do {
    core::PrefixTable p = core::initial_table(f);
    for (const int v : rest)
      p = core::compact(p, v, core::DiagramKind::kBdd);
    widths.push_back(
        core::compaction_width(p, i, core::DiagramKind::kBdd));
  } while (std::next_permutation(rest.begin(), rest.end()));
  for (const auto w : widths) EXPECT_EQ(w, widths.front());
  (void)I;
}

// Lemma 4: MINCOST recurrence (spot-checked here; exhaustively in
// core_fs_test).
TEST(PaperClaims, Lemma4Recurrence) {
  util::Xoshiro256 rng(4);
  const tt::TruthTable f = tt::random_function(5, rng);
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(5), 5,
      core::DiagramKind::kBdd);
  const util::Mask I = 0b10110;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  util::for_each_bit(I, [&](int k) {
    core::PrefixTable p = core::initial_table(f);
    util::for_each_bit(I & ~(util::Mask{1} << k), [&](int v) {
      p = core::compact(p, v, core::DiagramKind::kBdd);
    });
    const core::FsState* pred = r.state(I & ~(util::Mask{1} << k));
    ASSERT_NE(pred, nullptr) << "k=" << k;
    best = std::min(best, pred->mincost + core::compaction_width(
                                              p, k, core::DiagramKind::kBdd));
  });
  const core::FsState* st = r.state(I);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->mincost, best);
}

/// Sizes of f's symmetry classes, which fix the orbit DP's counts.
std::vector<int> class_sizes(const tt::TruthTable& f) {
  std::vector<int> sizes;
  for (const util::Mask c : core::symmetry_classes(
           core::initial_table(f), util::full_mask(f.num_vars())))
    sizes.push_back(util::popcount(c));
  return sizes;
}

/// A random function on n inputs no two of which are symmetric, so the DP
/// builds every subset.
tt::TruthTable random_asymmetric_function(int n, util::Xoshiro256& rng) {
  while (true) {
    tt::TruthTable f = tt::random_function(n, rng);
    if (class_sizes(f) == std::vector<int>(static_cast<std::size_t>(n), 1))
      return f;
  }
}

// Theorem 5: O*(3^n) — exact operation counts match the closed form:
// 2n·3^(n-1) cells on a function without a symmetric pair of inputs, and
// its orbit form (one state per symmetry orbit) on any function; the two
// agree when every class is a singleton.
TEST(PaperClaims, Theorem5OperationCount) {
  util::Xoshiro256 rng(5);
  util::Xoshiro256 asym_rng(55);
  for (int n = 3; n <= 8; ++n) {
    EXPECT_DOUBLE_EQ(static_cast<double>(util::orbit_total_cells(
                         std::vector<int>(static_cast<std::size_t>(n), 1))),
                     quantum::fs_total_cells(n));
    const tt::TruthTable f = tt::random_function(n, rng);
    const tt::TruthTable g = random_asymmetric_function(n, asym_rng);
    // threads = 4 fans the layers out from n = 7 on (below that the
    // small-n serial fallback applies); the count is the same.
    for (const int threads : {1, 4}) {
      const auto r =
          core::fs_minimize(f, core::DiagramKind::kBdd, exec_threads(threads));
      EXPECT_EQ(r.ops.table_cells, util::orbit_total_cells(class_sizes(f)))
          << "n=" << n << " threads=" << threads;
      const auto dense =
          core::fs_minimize(g, core::DiagramKind::kBdd, exec_threads(threads));
      EXPECT_DOUBLE_EQ(static_cast<double>(dense.ops.table_cells),
                       quantum::fs_total_cells(n))
          << "n=" << n << " threads=" << threads;
    }
  }
}

// Lemma 6: sqrt(N) quantum queries for minimum finding (accounting model
// by construction; Dürr–Høyer statistics in quantum_primitives_test).
TEST(PaperClaims, Lemma6QueryModel) {
  quantum::AccountingMinimumFinder finder(3.0);
  std::vector<std::int64_t> values(100);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<std::int64_t>((i * 37) % 101);
  const auto out = finder.find_min(values);
  EXPECT_EQ(values[out.best_index],
            *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(out.quantum_queries, 10.0 * 3.0);
}

// Lemma 7: the FS recurrence holds with a fixed prefix I below the block.
TEST(PaperClaims, Lemma7PrefixedRecurrence) {
  util::Xoshiro256 rng(7);
  const tt::TruthTable f = tt::random_function(6, rng);
  // Fix I = {0, 5} (optimally arranged), J = {1, 2, 4}.
  const util::Mask I = 0b100001;
  const util::Mask J = 0b010110;
  const core::PrefixTable base =
      core::fs_star_full(core::initial_table(f), I,
                         core::DiagramKind::kBdd);
  const core::FsStarResult r =
      core::fs_star(base, J, 3, core::DiagramKind::kBdd);
  // For K = J: MINCOST_{<I,J>} = min_k MINCOST_{<I,J\k>} + Cost_k.
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  util::for_each_bit(J, [&](int k) {
    core::PrefixTable p = base;
    util::for_each_bit(J & ~(util::Mask{1} << k), [&](int v) {
      p = core::compact(p, v, core::DiagramKind::kBdd);
    });
    const core::FsState* pred = r.state(J & ~(util::Mask{1} << k));
    ASSERT_NE(pred, nullptr) << "k=" << k;
    best = std::min(best, pred->mincost + core::compaction_width(
                                              p, k, core::DiagramKind::kBdd));
  });
  const core::FsState* st = r.state(J);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->mincost, best);
}

// Lemma 8: FS* composes — FS(<I,J>) from FS(I) — at the claimed cost
// (cost form verified in bench_fs_star; composition in fs_star_test).
TEST(PaperClaims, Lemma8Composition) {
  util::Xoshiro256 rng(8);
  const tt::TruthTable f = tt::random_function(6, rng);
  const util::Mask I = 0b000011;
  const core::PrefixTable base = core::fs_star_full(
      core::initial_table(f), I, core::DiagramKind::kBdd);
  const core::PrefixTable whole = core::fs_star_full(
      base, util::full_mask(6) & ~I, core::DiagramKind::kBdd);
  // The composed optimum is a valid upper bound on the global optimum and
  // is achieved by some order with I at the bottom.
  EXPECT_GE(whole.mincost(), core::fs_minimize(f).min_internal_nodes);
}

// Lemma 9: divide and conquer at every split point (exhaustive form in
// fs_star_test; single split here).
TEST(PaperClaims, Lemma9Split) {
  util::Xoshiro256 rng(9);
  const tt::TruthTable f = tt::random_function(6, rng);
  const std::uint64_t direct = core::fs_minimize(f).min_internal_nodes;
  const int k = 2;
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  util::for_each_subset_of_size(6, k, [&](util::Mask K) {
    const core::PrefixTable bottom = core::fs_star_full(
        core::initial_table(f), K, core::DiagramKind::kBdd);
    best = std::min(best, core::fs_star_full(
                              bottom, util::full_mask(6) & ~K,
                              core::DiagramKind::kBdd)
                              .mincost());
  });
  EXPECT_EQ(best, direct);
}

// Theorem 10: gamma_6 <= 2.83728 with the printed alpha vector.
TEST(PaperClaims, Theorem10Gamma6) {
  const quantum::ChainSolution s = quantum::solve_alphas(6, 3.0);
  EXPECT_LE(s.gamma, 2.83728 + 2e-4);
  EXPECT_NEAR(s.alphas.back(), 0.343573, 5e-4);
}

// Theorem 13: the tower reaches 2.77286 at the tenth composition.
TEST(PaperClaims, Theorem13TowerConstant) {
  const auto rows = quantum::composition_tower(6, 10);
  EXPECT_LE(rows.back().gamma, 2.77286 + 2e-4);
}

// Remark 1: space of the same order as time.
TEST(PaperClaims, Remark1SpaceOrder) {
  util::Xoshiro256 rng(11);
  const tt::TruthTable f = tt::random_function(8, rng);
  for (const int threads : {1, 4}) {
    const auto r =
        core::fs_minimize(f, core::DiagramKind::kBdd, exec_threads(threads));
    EXPECT_DOUBLE_EQ(static_cast<double>(r.ops.peak_cells),
                     quantum::fs_peak_cells(8))
        << "threads=" << threads;
    // Both time and space are within a polynomial factor of 3^n.
    const double three_n = std::pow(3.0, 8);
    EXPECT_LE(static_cast<double>(r.ops.peak_cells), 8 * three_n);
    EXPECT_GE(static_cast<double>(r.ops.peak_cells), three_n / 8);
  }
}

// Remark 2: multi-valued (MTBDD) and ZDD variants minimize exactly.
TEST(PaperClaims, Remark2Variants) {
  util::Xoshiro256 rng(12);
  const tt::TruthTable f = tt::random_sparse_function(5, 6, rng);
  reorder::CostOracle oracle(f, core::DiagramKind::kZdd);
  EXPECT_EQ(core::fs_minimize(f, core::DiagramKind::kZdd)
                .min_internal_nodes,
            reorder::brute_force_minimize(oracle).internal_nodes);
  std::vector<std::int64_t> values(32);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(3));
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::vector<int> order{0, 1, 2, 3, 4};
  do {
    best = std::min(best,
                    core::diagram_size_for_order_values(values, 5, order));
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(core::fs_minimize_mtbdd(values, 5).min_internal_nodes, best);
}

// Sec. 3.1: gamma_0 (no preprocess) and gamma_1 (with) constants.
TEST(PaperClaims, Section31Constants) {
  EXPECT_NEAR(quantum::gamma_no_preprocess(), 2.98581, 2e-4);
  EXPECT_NEAR(quantum::solve_alphas(1, 3.0).gamma, 2.97625, 2e-4);
}

// Appendix B: the two-parameter case.
TEST(PaperClaims, AppendixBTwoParameters) {
  const quantum::ChainSolution s = quantum::solve_alphas(2, 3.0);
  EXPECT_NEAR(s.gamma, 2.85690, 2e-4);
  EXPECT_NEAR(s.alphas[0], 0.192755, 5e-4);
  EXPECT_NEAR(s.alphas[1], 0.334571, 5e-4);
}

}  // namespace
}  // namespace ovo
