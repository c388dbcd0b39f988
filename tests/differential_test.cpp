// Randomized differential testing: every seed builds random functions and
// checks that all independent construction/evaluation paths in the
// library agree — truth tables, apply-based builders, canonical DNF/CNF,
// serialization round-trips, order transfer, dynamic swaps, and the three
// exact ordering engines.

#include <gtest/gtest.h>

#include <numeric>

#include "bdd/algorithms.hpp"
#include "bdd/builder.hpp"
#include "bdd/dynamic_reorder.hpp"
#include "bdd/serialize.hpp"
#include "bdd/transfer.hpp"
#include "core/minimize.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "reorder/branch_and_bound.hpp"
#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "tt/normal_forms.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace ovo {
namespace {

/// Random expression tree over n variables with the given node budget.
tt::ExprPtr random_expr(int n, int budget, util::Xoshiro256& rng) {
  if (budget <= 1) {
    if (rng.below(8) == 0) return tt::make_const(rng.coin());
    return tt::make_var(static_cast<int>(rng.below(n)));
  }
  switch (rng.below(4)) {
    case 0:
      return tt::make_not(random_expr(n, budget - 1, rng));
    case 1:
      return tt::make_and(random_expr(n, budget / 2, rng),
                          random_expr(n, budget - budget / 2, rng));
    case 2:
      return tt::make_or(random_expr(n, budget / 2, rng),
                         random_expr(n, budget - budget / 2, rng));
    default:
      return tt::make_xor(random_expr(n, budget / 2, rng),
                          random_expr(n, budget - budget / 2, rng));
  }
}

class Differential : public ::testing::TestWithParam<int> {
 protected:
  util::Xoshiro256 rng_{static_cast<std::uint64_t>(GetParam()) * 6364136 +
                        1442695};
};

TEST_P(Differential, AllConstructionPathsAgree) {
  const int n = 5 + static_cast<int>(rng_.below(3));
  const tt::ExprPtr e = random_expr(n, 24, rng_);
  const tt::TruthTable t = tt::expr_to_truth_table(*e, n);

  bdd::Manager m(n);
  const bdd::NodeId via_tt = m.from_truth_table(t);
  const bdd::NodeId via_expr =
      bdd::build_from_circuit(m, tt::expr_to_circuit(*e, n))[0];
  const bdd::NodeId via_dnf =
      bdd::build_from_circuit(m, tt::minterm_dnf(t).to_circuit())[0];
  const bdd::NodeId via_cnf =
      bdd::build_from_circuit(m, tt::maxterm_cnf(t).to_circuit())[0];
  EXPECT_EQ(via_tt, via_expr);
  EXPECT_EQ(via_tt, via_dnf);
  EXPECT_EQ(via_tt, via_cnf);

  // Round-trip through text.
  bdd::LoadedBdd loaded = bdd::load_bdd(bdd::save_bdd(m, via_tt));
  EXPECT_EQ(loaded.manager.to_truth_table(loaded.root), t);
}

TEST_P(Differential, OrderChangesPreserveSemantics) {
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng_);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng_.below(static_cast<std::uint64_t>(i) + 1)]);

  // Path A: build directly under `order`.
  bdd::Manager direct(n, order);
  const bdd::NodeId a = direct.from_truth_table(t);
  // Path B: build under identity, transfer.
  bdd::Manager ident(n);
  bdd::Manager dst(n, order);
  const bdd::NodeId b =
      bdd::transfer(ident, ident.from_truth_table(t), dst);
  EXPECT_EQ(direct.size(a), dst.size(b));
  EXPECT_TRUE(structurally_equal(direct, a, dst, b));
  // Path C: build under identity, swap levels until the orders match is
  // hard to steer; instead do random swaps and verify semantics only.
  bdd::Manager swapped(n);
  const bdd::NodeId c = swapped.from_truth_table(t);
  for (int i = 0; i < 6; ++i)
    swapped.swap_adjacent_levels(
        static_cast<int>(rng_.below(n - 1)));
  EXPECT_EQ(swapped.to_truth_table(c), t);
  // Sizes after swaps match a fresh build under the resulting order.
  bdd::Manager fresh(n, swapped.order());
  EXPECT_EQ(swapped.size(c), fresh.size(fresh.from_truth_table(t)));
}

TEST_P(Differential, ExactEnginesAgree) {
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng_);
  const std::uint64_t fs = core::fs_minimize(t).min_internal_nodes;
  reorder::CostOracle oracle(t, core::DiagramKind::kBdd);
  const std::uint64_t bnb =
      reorder::branch_and_bound_minimize(oracle).internal_nodes;
  quantum::AccountingMinimumFinder finder(static_cast<double>(n));
  quantum::OptObddOptions opt;
  opt.alphas = {0.3};
  opt.finder = &finder;
  const std::uint64_t q =
      quantum::opt_obdd_minimize(t, opt).min_internal_nodes;
  EXPECT_EQ(fs, bnb);
  EXPECT_EQ(fs, q);
}

TEST_P(Differential, BddAndZddCountsAgreeWithTruthTable) {
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng_);
  bdd::Manager bm(n);
  zdd::Manager zm(n);
  const bdd::NodeId bf = bm.from_truth_table(t);
  const zdd::NodeId zf = zm.from_truth_table(t);
  EXPECT_EQ(bm.satcount(bf), t.count_ones());
  EXPECT_EQ(zm.count(zf), t.count_ones());
  EXPECT_EQ(bm.to_truth_table(bf), zm.to_truth_table(zf));
  // Model enumeration agrees with ZDD set enumeration.
  const auto models = bdd::all_models(bm, bf);
  const auto sets = zm.enumerate(zf);
  EXPECT_EQ(models, sets);
}

TEST_P(Differential, QuantifierAlgebra) {
  // exists distributes over or; forall over and; de Morgan between them.
  const int n = 5;
  const tt::TruthTable ta = tt::random_function(n, rng_);
  const tt::TruthTable tb = tt::random_function(n, rng_);
  bdd::Manager m(n);
  const bdd::NodeId a = m.from_truth_table(ta);
  const bdd::NodeId b = m.from_truth_table(tb);
  const int v = static_cast<int>(rng_.below(n));
  EXPECT_EQ(m.exists(m.apply_or(a, b), v),
            m.apply_or(m.exists(a, v), m.exists(b, v)));
  EXPECT_EQ(m.forall(m.apply_and(a, b), v),
            m.apply_and(m.forall(a, v), m.forall(b, v)));
  EXPECT_EQ(m.apply_not(m.exists(a, v)), m.forall(m.apply_not(a), v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 12));

}  // namespace
}  // namespace ovo
