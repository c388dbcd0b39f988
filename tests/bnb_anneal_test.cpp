// Tests for branch-and-bound exact ordering (cross-checked against FS)
// and the simulated-annealing baseline.

#include <gtest/gtest.h>

#include <numeric>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

TEST(LowerBound, ZeroAtCompletion) {
  core::PrefixTable t = core::initial_table(tt::parity(3));
  for (const int v : {0, 1, 2})
    t = core::compact(t, v, core::DiagramKind::kBdd);
  EXPECT_EQ(bnb_lower_bound(t, core::DiagramKind::kBdd), 0u);
}

TEST(LowerBound, IsAdmissibleAtTheRoot) {
  // At the empty prefix the bound must not exceed the true optimum.
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const tt::TruthTable f = tt::random_function(5, rng);
    const std::uint64_t opt = core::fs_minimize(f).min_internal_nodes;
    const core::PrefixTable root = core::initial_table(f);
    EXPECT_LE(bnb_lower_bound(root, core::DiagramKind::kBdd), opt);
  }
}

TEST(LowerBound, CompletionRespectsBoundEverywhere) {
  // Stronger admissibility check: for random chains, the nodes added by
  // the *best* completion of the prefix is >= the bound.
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const tt::TruthTable f = tt::random_function(5, rng);
    core::PrefixTable t = core::initial_table(f);
    std::vector<int> free{0, 1, 2, 3, 4};
    for (int step = 0; step < 3; ++step) {
      const std::size_t pick = rng.below(free.size());
      t = core::compact(t, free[pick], core::DiagramKind::kBdd);
      free.erase(free.begin() + static_cast<std::ptrdiff_t>(pick));
      // Optimal completion cost via FS* on the remaining block.
      const core::PrefixTable done = core::fs_star_full(
          t, util::mask_of(free), core::DiagramKind::kBdd);
      const std::uint64_t added = done.mincost() - t.mincost();
      EXPECT_GE(added, bnb_lower_bound(t, core::DiagramKind::kBdd));
    }
  }
}

class BnbVsFs : public ::testing::TestWithParam<int> {};

TEST_P(BnbVsFs, ExactOnRandomFunctions) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  const tt::TruthTable f = tt::random_function(6, rng);
  const std::uint64_t opt = core::fs_minimize(f).min_internal_nodes;
  CostOracle oracle(f, core::DiagramKind::kBdd);
  const BnbResult cold = branch_and_bound_minimize(oracle);
  EXPECT_EQ(cold.internal_nodes, opt);
  EXPECT_EQ(core::diagram_size_for_order(f, cold.order_root_first), opt);
}

TEST_P(BnbVsFs, WarmStartFromSifting) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 2);
  const tt::TruthTable f = tt::random_function(6, rng);
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  CostOracle oracle(f, core::DiagramKind::kBdd);
  const std::uint64_t incumbent = sift(oracle, id).internal_nodes;
  const BnbResult warm = branch_and_bound_minimize(oracle, incumbent);
  EXPECT_EQ(warm.internal_nodes, core::fs_minimize(f).min_internal_nodes);
  const BnbResult cold = branch_and_bound_minimize(oracle);
  EXPECT_LE(warm.states_expanded, cold.states_expanded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbVsFs, ::testing::Range(0, 8));

TEST(Bnb, ZddKindExact) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const tt::TruthTable f = tt::random_sparse_function(5, 6, rng);
    CostOracle oracle(f, core::DiagramKind::kZdd);
    EXPECT_EQ(
        branch_and_bound_minimize(oracle).internal_nodes,
        core::fs_minimize(f, core::DiagramKind::kZdd).min_internal_nodes);
  }
}

TEST(Bnb, PruningIsEffectiveOnStructuredFunctions) {
  // pair_sum has huge order spread; B&B should expand far fewer states
  // than the full prefix lattice (3^n chains / 2^n subsets).
  CostOracle oracle(tt::pair_sum(4), core::DiagramKind::kBdd);  // n = 8
  const BnbResult r = branch_and_bound_minimize(oracle);
  EXPECT_EQ(r.internal_nodes, 8u);
  EXPECT_GT(r.states_pruned_bound + r.states_pruned_dominance, 0u);
  EXPECT_LT(r.states_expanded, 6561u);  // lattice has 2^8=256 subsets but
                                        // many chains; stay well below 3^8
}

TEST(Bnb, SingleVariable) {
  const auto t =
      tt::TruthTable::tabulate(1, [](std::uint64_t a) { return a == 1; });
  CostOracle oracle(t, core::DiagramKind::kBdd);
  const BnbResult r = branch_and_bound_minimize(oracle);
  EXPECT_EQ(r.internal_nodes, 1u);
  EXPECT_EQ(r.order_root_first, (std::vector<int>{0}));
}

// --- annealing ---------------------------------------------------------------

TEST(Annealing, NeverWorseThanStart) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const tt::TruthTable f = tt::random_function(6, rng);
    std::vector<int> id(6);
    std::iota(id.begin(), id.end(), 0);
    const std::uint64_t start = core::diagram_size_for_order(f, id);
    CostOracle oracle(f, core::DiagramKind::kBdd);
    const AnnealResult r =
        simulated_annealing(oracle, id, AnnealOptions{}, rng);
    EXPECT_LE(r.internal_nodes, start);
    EXPECT_TRUE(util::is_permutation(r.order_root_first));
    EXPECT_EQ(core::diagram_size_for_order(f, r.order_root_first),
              r.internal_nodes);
    EXPECT_GE(r.internal_nodes,
              core::fs_minimize(f).min_internal_nodes);
  }
}

TEST(Annealing, SolvesPairSumFromPessimalOrder) {
  util::Xoshiro256 rng(13);
  CostOracle oracle(tt::pair_sum(3), core::DiagramKind::kBdd);
  AnnealOptions opt;
  opt.epochs = 80;
  const AnnealResult r = simulated_annealing(
      oracle, tt::pair_sum_interleaved_order(3), opt, rng);
  EXPECT_EQ(r.internal_nodes, 6u);
}

TEST(Annealing, ValidatesInputs) {
  util::Xoshiro256 rng(1);
  CostOracle oracle(tt::parity(3), core::DiagramKind::kBdd);
  EXPECT_THROW(simulated_annealing(oracle, {0, 1}, AnnealOptions{}, rng),
               util::CheckError);
  AnnealOptions bad;
  bad.cooling = 1.5;
  EXPECT_THROW(simulated_annealing(oracle, {0, 1, 2}, bad, rng),
               util::CheckError);
}

}  // namespace
}  // namespace ovo::reorder
