// Tests for branch-and-bound exact ordering (cross-checked against FS)
// and the simulated-annealing baseline.

#include <gtest/gtest.h>

#include <numeric>

#include "core/minimize.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

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

/// Cold and sift-warm BnB over `oracle`, at threads 1 and 4, must both
/// return `opt` with an order of that size.
void expect_bnb_finds(CostOracle& oracle, std::uint64_t opt) {
  std::vector<int> id(static_cast<std::size_t>(oracle.num_vars()));
  std::iota(id.begin(), id.end(), 0);
  core::InsertionSizer sizer(oracle.base(), oracle.kind());
  for (const int threads : {1, 4}) {
    EvalContext ctx;
    ctx.exec.num_threads = threads;
    const std::uint64_t incumbent = sift(oracle, id, 8, ctx).internal_nodes;
    for (const std::uint64_t upper : {~std::uint64_t{0}, incumbent}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " upper=" << upper);
      const BnbResult r = branch_and_bound_minimize(oracle, upper, ctx);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.internal_nodes, opt);
      EXPECT_EQ(oracle.size_for_order(sizer, r.order_root_first), opt);
    }
  }
}

// BnB prunes with the DP's completion bound, whose ZDD terms leave the
// 0-terminal and the inputs no satisfying assignment sets out; on
// ¬a ∧ ¬b ∧ … ∧ g a bound that counted either would cut the optimum.
TEST_P(BnbVsFs, ZddColdAndSiftWarm) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 5);
  const int n = 7 + GetParam() % 5;
  const std::vector<tt::TruthTable> inputs{
      tt::random_negated_conjunction(n, 1 + GetParam() % 4, rng),
      tt::random_negated_conjunction(n, n / 2 + 1, rng),
      tt::random_sparse_function(n - 1, std::uint64_t{1} << (n - 4), rng)};
  for (const tt::TruthTable& f : inputs) {
    SCOPED_TRACE(::testing::Message() << "n=" << f.num_vars());
    CostOracle oracle(f, core::DiagramKind::kZdd);
    expect_bnb_finds(
        oracle,
        core::fs_minimize(f, core::DiagramKind::kZdd).min_internal_nodes);
  }
}

// MTBDD value tables at n = 3-9, with two to five terminals.
TEST_P(BnbVsFs, MtbddColdAndSiftWarm) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 53 + 1);
  for (int j = 0; j < 3; ++j) {
    const int n = 3 + (3 * GetParam() + j) % 7;
    const std::uint64_t range =
        2 + static_cast<std::uint64_t>(j + GetParam()) % 4;
    std::vector<std::int64_t> values(std::size_t{1} << n);
    for (std::int64_t& v : values)
      v = static_cast<std::int64_t>(rng.below(range));
    SCOPED_TRACE(::testing::Message() << "n=" << n << " range=" << range);
    CostOracle oracle(values, n);
    expect_bnb_finds(oracle,
                     core::fs_minimize_mtbdd(values, n).min_internal_nodes);
  }
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
