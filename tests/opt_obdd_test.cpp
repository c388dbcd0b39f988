// Tests for the simulated quantum OptOBDD algorithms (Theorems 10 and 13):
// with an error-free minimum finder the result must equal FS exactly; with
// failure injection the output must still be a valid ordering (Theorem 1's
// validity guarantee); boundaries and cost ledger behave sanely.

#include <gtest/gtest.h>

#include "bdd/manager.hpp"
#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "quantum/analysis.hpp"
#include "quantum/opt_obdd.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace ovo::quantum {
namespace {

TEST(Boundaries, RealizedFromAlphas) {
  EXPECT_EQ(realize_boundaries({0.25}, 8), (std::vector<int>{2}));
  EXPECT_EQ(realize_boundaries({0.25, 0.5}, 8), (std::vector<int>{2, 4}));
  // Clamping keeps boundaries below the block size and monotone.
  EXPECT_EQ(realize_boundaries({0.9, 0.95}, 4), (std::vector<int>{3, 3}));
  EXPECT_THROW(realize_boundaries({}, 4), util::CheckError);
  EXPECT_THROW(realize_boundaries({1.5}, 4), util::CheckError);
  EXPECT_THROW(realize_boundaries({0.5, 0.4}, 8), util::CheckError);
}

class OptObddMatchesFs
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OptObddMatchesFs, SingleDivisionPoint) {
  const auto [n, seed] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  const tt::TruthTable t = tt::random_function(n, rng);
  const core::MinimizeResult fs = core::fs_minimize(t);

  AccountingMinimumFinder finder(static_cast<double>(n));
  OptObddOptions opt;
  opt.alphas = {0.27};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_EQ(q.min_internal_nodes, fs.min_internal_nodes);
  EXPECT_TRUE(util::is_permutation(q.order_root_first));
  EXPECT_EQ(core::diagram_size_for_order(t, q.order_root_first),
            fs.min_internal_nodes);
  EXPECT_GT(q.quantum.quantum_queries, 0.0);
  EXPECT_EQ(q.quantum.min_find_failures, 0);
}

TEST_P(OptObddMatchesFs, TwoDivisionPoints) {
  const auto [n, seed] = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 733 + 1);
  const tt::TruthTable t = tt::random_function(n, rng);
  const core::MinimizeResult fs = core::fs_minimize(t);

  AccountingMinimumFinder finder(static_cast<double>(n));
  OptObddOptions opt;
  opt.alphas = {0.19, 0.33};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_EQ(q.min_internal_nodes, fs.min_internal_nodes);
  EXPECT_EQ(core::diagram_size_for_order(t, q.order_root_first),
            fs.min_internal_nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptObddMatchesFs,
    ::testing::Combine(::testing::Values(4, 5, 6, 7),
                       ::testing::Range(0, 4)));

TEST(OptObdd, PaperAlphaVectorOnSmallInstance) {
  // Theorem 10's k = 6 alpha vector, scaled down to a small n: boundaries
  // mostly coincide, which the implementation must tolerate.
  const tt::TruthTable t = tt::pair_sum(4);  // n = 8
  AccountingMinimumFinder finder(8.0);
  OptObddOptions opt;
  opt.alphas = {0.183791, 0.183802, 0.183974, 0.186131, 0.206480, 0.343573};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_EQ(q.min_internal_nodes, core::fs_minimize(t).min_internal_nodes);
}

TEST(OptObdd, ZddKind) {
  util::Xoshiro256 rng(3);
  const tt::TruthTable t = tt::random_sparse_function(6, 7, rng);
  AccountingMinimumFinder finder(6.0);
  OptObddOptions opt;
  opt.kind = core::DiagramKind::kZdd;
  opt.alphas = {0.3};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_EQ(q.min_internal_nodes,
            core::fs_minimize(t, core::DiagramKind::kZdd).min_internal_nodes);
  zdd::Manager m(6, q.order_root_first);
  EXPECT_EQ(m.size(m.from_truth_table(t)), q.min_internal_nodes);
}

TEST(OptObdd, GroverFinderEndToEnd) {
  // With the amplitude-level Dürr–Høyer finder the algorithm is fully
  // "quantum" (simulated); repetitions make failure negligible here.
  const tt::TruthTable t = tt::pair_sum(3);
  GroverMinimumFinder finder(5, 11);
  OptObddOptions opt;
  opt.alphas = {0.3};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_EQ(q.min_internal_nodes, 6u);
  EXPECT_GT(q.quantum.quantum_queries, 0.0);
}

// Theorem 1's validity guarantee: even when minimum finding fails, the
// produced ordering is a real permutation and the reported size is the
// true size of the OBDD under that ordering (a valid, possibly
// non-minimum OBDD).
TEST(OptObdd, FailureInjectionStillYieldsValidObdd) {
  util::Xoshiro256 rng(5);
  int suboptimal = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    AccountingMinimumFinder finder(6.0, /*failure_rate=*/0.7,
                                   /*seed=*/trial + 1);
    OptObddOptions opt;
    opt.alphas = {0.3};
    opt.finder = &finder;
    const OptObddResult q = opt_obdd_minimize(t, opt);
    ASSERT_TRUE(util::is_permutation(q.order_root_first));
    // The reported size is the true size under the returned order...
    EXPECT_EQ(core::diagram_size_for_order(t, q.order_root_first),
              q.min_internal_nodes);
    // ...and a rebuild represents f exactly.
    bdd::Manager m(6, q.order_root_first);
    const bdd::NodeId root = m.from_truth_table(t);
    EXPECT_EQ(m.to_truth_table(root), t);
    const std::uint64_t optimum = core::fs_minimize(t).min_internal_nodes;
    EXPECT_GE(q.min_internal_nodes, optimum);
    if (q.min_internal_nodes > optimum) ++suboptimal;
  }
  // With failure rate 0.7 some runs must actually be suboptimal, proving
  // the injection is live.
  EXPECT_GE(suboptimal, 1);
}

TEST(OptObdd, NoPreprocessAblationStillExact) {
  // Sec. 3.1 gamma_0 regime: disabling the classical preprocess changes
  // the cost profile, never the answer.
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 4; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    AccountingMinimumFinder finder(6.0);
    OptObddOptions opt;
    opt.alphas = {0.3};
    opt.finder = &finder;
    opt.use_preprocess = false;
    const OptObddResult q = opt_obdd_minimize(t, opt);
    EXPECT_EQ(q.min_internal_nodes,
              core::fs_minimize(t).min_internal_nodes);
    EXPECT_EQ(core::diagram_size_for_order(t, q.order_root_first),
              q.min_internal_nodes);
  }
}

TEST(OptObdd, PreprocessReducesChargedWork) {
  const tt::TruthTable t = tt::hidden_weighted_bit(8);
  AccountingMinimumFinder f1(8.0), f2(8.0);
  OptObddOptions with, without;
  with.alphas = without.alphas = {0.27};
  with.finder = &f1;
  without.finder = &f2;
  without.use_preprocess = false;
  const OptObddResult a = opt_obdd_minimize(t, with);
  const OptObddResult b = opt_obdd_minimize(t, without);
  EXPECT_EQ(a.min_internal_nodes, b.min_internal_nodes);
  EXPECT_LT(a.quantum.quantum_charged_cells,
            b.quantum.quantum_charged_cells);
}

TEST(OptObdd, TowerMatchesFsOnTinyInstances) {
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 3; ++trial) {
    const tt::TruthTable t = tt::random_function(5, rng);
    AccountingMinimumFinder finder(5.0);
    TowerOptions opt;
    opt.alpha_levels = {{0.4}, {0.4}};  // Gamma_1 inside Gamma_2
    opt.finder = &finder;
    const OptObddResult q = tower_minimize(t, opt);
    EXPECT_EQ(q.min_internal_nodes,
              core::fs_minimize(t).min_internal_nodes);
    EXPECT_EQ(core::diagram_size_for_order(t, q.order_root_first),
              q.min_internal_nodes);
  }
}

TEST(OptObdd, LedgerChargesLessThanClassicalSimulation) {
  // The whole point: the charged quantum work must undercut the classical
  // exhaustive evaluation performed by the simulation at the top stage.
  const tt::TruthTable t = tt::multiplier_middle_bit(8);
  AccountingMinimumFinder finder(1.0);
  OptObddOptions opt;
  opt.alphas = {0.3};
  opt.finder = &finder;
  const OptObddResult q = opt_obdd_minimize(t, opt);
  EXPECT_GT(q.quantum.quantum_charged_cells, 0.0);
  EXPECT_LT(q.quantum.quantum_charged_cells,
            static_cast<double>(q.classical_ops.table_cells));
}

TEST(Analysis, PeakSpaceMatchesClosedForm) {
  // Remark 1: the DP's resident table cells peak exactly at the
  // two-adjacent-layers maximum — over every subset on a function with no
  // symmetric pair of inputs, and over one state per symmetry orbit on
  // any function (the two forms agree when every class is a singleton).
  util::Xoshiro256 rng(3);
  util::Xoshiro256 asym_rng(33);
  for (int n = 3; n <= 9; ++n) {
    const std::vector<int> singletons(static_cast<std::size_t>(n), 1);
    EXPECT_DOUBLE_EQ(static_cast<double>(util::orbit_peak_cells(singletons)),
                     fs_peak_cells(n));
    const tt::TruthTable f = tt::random_function(n, rng);
    std::vector<int> sizes;
    for (const util::Mask c :
         core::symmetry_classes(core::initial_table(f), util::full_mask(n)))
      sizes.push_back(util::popcount(c));
    EXPECT_EQ(core::fs_minimize(f).ops.peak_cells,
              util::orbit_peak_cells(sizes))
        << "n=" << n;
    tt::TruthTable g = tt::random_function(n, asym_rng);
    while (core::symmetry_classes(core::initial_table(g), util::full_mask(n))
               .size() != static_cast<std::size_t>(n))
      g = tt::random_function(n, asym_rng);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(core::fs_minimize(g).ops.peak_cells),
        fs_peak_cells(n))
        << "n=" << n;
  }
}

TEST(Analysis, RecurrencesAreConsistent) {
  // FS cells grow like 3^n.
  const double ratio = fs_total_cells(15) / fs_total_cells(14);
  EXPECT_NEAR(ratio, 3.0, 0.35);
  // Brute force dwarfs FS quickly.
  EXPECT_GT(brute_force_total_cells(12), fs_total_cells(12));
  // FS* on the whole space equals FS.
  EXPECT_DOUBLE_EQ(fs_star_cells(10, 0, 10), fs_total_cells(10));
  // Predicted OptOBDD cost sits below FS for large n with the paper's
  // boundaries.
  const int n = 40;
  const auto boundaries = realize_boundaries(
      {0.183791, 0.183802, 0.183974, 0.186131, 0.206480, 0.343573}, n);
  const PredictedCost pc = opt_obdd_predicted_cells(n, boundaries);
  EXPECT_LT(pc.total, fs_total_cells(n));
}

}  // namespace
}  // namespace ovo::quantum
