// Tests for the baseline ordering searches (brute force, sifting, window
// permutation, random restarts) and their relationship to the exact FS
// optimum.

#include <gtest/gtest.h>

#include <numeric>

#include "core/minimize.hpp"
#include "reorder/baselines.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

TEST(BruteForce, EvaluatesAllOrders) {
  CostOracle oracle(tt::parity(4), core::DiagramKind::kBdd);
  const auto r = brute_force_minimize(oracle);
  EXPECT_EQ(r.orders_evaluated, 24u);
  EXPECT_EQ(r.internal_nodes, 7u);         // 2n - 1
  EXPECT_EQ(r.worst_internal_nodes, 7u);   // parity is order-insensitive
}

TEST(BruteForce, FindsTheFig1Gap) {
  CostOracle oracle(tt::pair_sum(3), core::DiagramKind::kBdd);
  const auto r = brute_force_minimize(oracle);
  EXPECT_EQ(r.internal_nodes, 6u);
  EXPECT_EQ(r.worst_internal_nodes, 14u);  // 2^{m+1} - 2 at m = 3
}

TEST(BruteForce, GuardsLargeN) {
  CostOracle oracle(tt::TruthTable(11), core::DiagramKind::kBdd);
  EXPECT_THROW(brute_force_minimize(oracle), util::CheckError);
}

class BaselineVsExact : public ::testing::TestWithParam<int> {};

TEST_P(BaselineVsExact, BruteForceMatchesFs) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 997 + 3);
  const tt::TruthTable t = tt::random_function(5, rng);
  CostOracle oracle(t, core::DiagramKind::kBdd);
  EXPECT_EQ(brute_force_minimize(oracle).internal_nodes,
            core::fs_minimize(t).min_internal_nodes);
}

TEST_P(BaselineVsExact, HeuristicsNeverBeatExact) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const tt::TruthTable t = tt::random_function(6, rng);
  const std::uint64_t opt = core::fs_minimize(t).min_internal_nodes;
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  CostOracle oracle(t, core::DiagramKind::kBdd);
  EXPECT_GE(sift(oracle, id).internal_nodes, opt);
  EXPECT_GE(window_permute(oracle, id, 3).internal_nodes, opt);
  EXPECT_GE(random_restart(oracle, 10, rng).internal_nodes, opt);
}

TEST_P(BaselineVsExact, SiftingImprovesOrNeverWorsens) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7 + 11);
  const tt::TruthTable t = tt::random_function(6, rng);
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  const std::uint64_t initial = core::diagram_size_for_order(t, id);
  CostOracle oracle(t, core::DiagramKind::kBdd);
  const auto s = sift(oracle, id);
  EXPECT_LE(s.internal_nodes, initial);
  EXPECT_TRUE(util::is_permutation(s.order_root_first));
  EXPECT_EQ(core::diagram_size_for_order(t, s.order_root_first),
            s.internal_nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineVsExact, ::testing::Range(0, 8));

TEST(Sifting, SolvesPairSumFromInterleaved) {
  // Sifting recovers the optimal 2m-node OBDD from the pessimal
  // interleaved start for the Fig. 1 function (it is a separable function,
  // the friendly case for sifting).
  const int m = 4;
  CostOracle oracle(tt::pair_sum(m), core::DiagramKind::kBdd);
  const auto s = sift(oracle, tt::pair_sum_interleaved_order(m));
  EXPECT_EQ(s.internal_nodes, static_cast<std::uint64_t>(2 * m));
}

TEST(Window, FixesLocalInversions) {
  // An order with one adjacent transposition from optimal is fixed by a
  // window-2 pass.
  CostOracle oracle(tt::pair_sum(3), core::DiagramKind::kBdd);
  std::vector<int> nearly{1, 0, 2, 3, 4, 5};
  const auto w = window_permute(oracle, nearly, 2);
  EXPECT_EQ(w.internal_nodes, 6u);
}

TEST(Window, ValidatesParameters) {
  CostOracle oracle(tt::parity(4), core::DiagramKind::kBdd);
  std::vector<int> id{0, 1, 2, 3};
  EXPECT_THROW(window_permute(oracle, id, 1), util::CheckError);
  EXPECT_THROW(window_permute(oracle, id, 6), util::CheckError);
  EXPECT_THROW(window_permute(oracle, {0, 1, 2}, 2), util::CheckError);
}

TEST(RandomRestart, FindsOptimumOfEasyFunction) {
  util::Xoshiro256 rng(4);
  // Parity: every order optimal, so one restart suffices.
  CostOracle oracle(tt::parity(5), core::DiagramKind::kBdd);
  const auto r = random_restart(oracle, 1, rng);
  EXPECT_EQ(r.internal_nodes, 9u);
  EXPECT_EQ(r.orders_evaluated, 1u);
}

TEST(SizeOracle, MatchesBruteForceProfile) {
  // level_profile sums to the total size for several orders.
  util::Xoshiro256 rng(2);
  const tt::TruthTable t = tt::random_function(5, rng);
  for (const auto& order : util::all_permutations(5)) {
    const auto profile = core::level_profile_for_order(t, order);
    std::uint64_t sum = 0;
    for (const auto w : profile) sum += w;
    ASSERT_EQ(sum, core::diagram_size_for_order(t, order));
  }
}

}  // namespace
}  // namespace ovo::reorder
