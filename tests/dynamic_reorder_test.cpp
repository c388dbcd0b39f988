// Tests for in-place dynamic reordering: adjacent swaps preserve every
// root's function with stable ids, and DAG sifting matches the quality of
// the oracle-based sifting baseline.

#include <gtest/gtest.h>

#include <numeric>

#include "bdd/dynamic_reorder.hpp"
#include "core/minimize.hpp"
#include "reorder/baselines.hpp"
#include "tt/function_zoo.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::bdd {
namespace {

class SwapProperty : public ::testing::TestWithParam<int> {};

TEST_P(SwapProperty, EverySwapPreservesFunctionsAndIds) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 8191 + 17);
  const int n = 6;
  const tt::TruthTable ta = tt::random_function(n, rng);
  const tt::TruthTable tb = tt::random_function(n, rng);
  Manager m(n);
  const NodeId a = m.from_truth_table(ta);
  const NodeId b = m.from_truth_table(tb);
  const NodeId c = m.apply_xor(a, b);
  for (int round = 0; round < 20; ++round) {
    const int level = static_cast<int>(rng.below(n - 1));
    m.swap_adjacent_levels(level);
    ASSERT_EQ(m.to_truth_table(a), ta) << "round " << round;
    ASSERT_EQ(m.to_truth_table(b), tb);
    ASSERT_EQ(m.to_truth_table(c), ta ^ tb);
    ASSERT_TRUE(util::is_permutation(m.order()));
  }
}

TEST_P(SwapProperty, DoubleSwapRestoresOrderAndSizes) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  Manager m(n);
  const NodeId f = m.from_truth_table(t);
  const std::vector<int> order_before = m.order();
  const std::uint64_t size_before = m.size(f);
  for (int level = 0; level + 1 < n; ++level) {
    m.swap_adjacent_levels(level);
    m.swap_adjacent_levels(level);
    EXPECT_EQ(m.order(), order_before);
    EXPECT_EQ(m.size(f), size_before);
    EXPECT_EQ(m.to_truth_table(f), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwapProperty, ::testing::Range(0, 6));

TEST(Swap, SizeAfterSwapMatchesFreshBuild) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    Manager m(n);
    const NodeId f = m.from_truth_table(t);
    const int level = static_cast<int>(rng.below(n - 1));
    m.swap_adjacent_levels(level);
    // A fresh manager with the swapped order must agree on the size.
    Manager fresh(n, m.order());
    EXPECT_EQ(m.size(f), fresh.size(fresh.from_truth_table(t)));
  }
}

TEST(Swap, OperationsStayConsistentAfterSwaps) {
  // The ITE cache is invalidated by swaps; new operations must be correct.
  util::Xoshiro256 rng(11);
  const int n = 5;
  const tt::TruthTable ta = tt::random_function(n, rng);
  const tt::TruthTable tb = tt::random_function(n, rng);
  Manager m(n);
  const NodeId a = m.from_truth_table(ta);
  const NodeId b = m.from_truth_table(tb);
  (void)m.apply_and(a, b);  // warm the cache
  m.swap_adjacent_levels(1);
  m.swap_adjacent_levels(3);
  EXPECT_EQ(m.to_truth_table(m.apply_and(a, b)), ta & tb);
  EXPECT_EQ(m.to_truth_table(m.apply_or(a, b)), ta | tb);
  EXPECT_EQ(m.satcount(a), ta.count_ones());
}

TEST(Swap, Validation) {
  Manager m(3);
  EXPECT_THROW(m.swap_adjacent_levels(-1), util::CheckError);
  EXPECT_THROW(m.swap_adjacent_levels(2), util::CheckError);
}

TEST(MoveLevel, ArbitraryRelocation) {
  util::Xoshiro256 rng(13);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  Manager m(n);
  const NodeId f = m.from_truth_table(t);
  const int var = m.var_at_level(0);
  move_level(m, 0, 4);
  EXPECT_EQ(m.level_of_var(var), 4);
  EXPECT_EQ(m.to_truth_table(f), t);
  move_level(m, 4, 2);
  EXPECT_EQ(m.level_of_var(var), 2);
  EXPECT_EQ(m.to_truth_table(f), t);
}

TEST(SiftInPlace, ReducesPairSumFromPessimalOrder) {
  const int pairs = 3;
  const tt::TruthTable f = tt::pair_sum(pairs);
  Manager m(2 * pairs, tt::pair_sum_interleaved_order(pairs));
  const NodeId root = m.from_truth_table(f);
  EXPECT_EQ(m.size(root), 14u);
  const SiftResult r = sift_in_place(m, {root});
  EXPECT_EQ(r.initial_nodes, 14u);
  EXPECT_EQ(r.final_nodes, 6u);  // sifting solves separable functions
  EXPECT_EQ(m.to_truth_table(root), f);
  EXPECT_EQ(m.size(root), 6u);
}

TEST(SiftInPlace, NeverBelowExactOptimumNeverAboveStart) {
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 7;
    const tt::TruthTable t = tt::random_function(n, rng);
    Manager m(n);
    const NodeId root = m.from_truth_table(t);
    const std::uint64_t opt = core::fs_minimize(t).min_internal_nodes;
    const SiftResult r = sift_in_place(m, {root});
    EXPECT_LE(r.final_nodes, r.initial_nodes);
    EXPECT_GE(r.final_nodes, opt);
    EXPECT_EQ(m.to_truth_table(root), t);
    // Sizes reported match a fresh rebuild under the final order.
    Manager fresh(n, m.order());
    EXPECT_EQ(fresh.size(fresh.from_truth_table(t)), r.final_nodes);
  }
}

TEST(SiftInPlace, MultiRootSharing) {
  util::Xoshiro256 rng(19);
  const int n = 6;
  const tt::TruthTable ta = tt::random_function(n, rng);
  const tt::TruthTable tb = tt::random_function(n, rng);
  Manager m(n);
  const NodeId a = m.from_truth_table(ta);
  const NodeId b = m.from_truth_table(tb);
  const SiftResult r = sift_in_place(m, {a, b});
  EXPECT_LE(r.final_nodes, r.initial_nodes);
  EXPECT_EQ(m.to_truth_table(a), ta);
  EXPECT_EQ(m.to_truth_table(b), tb);
  EXPECT_EQ(shared_reachable_size(m, {a, b}), r.final_nodes);
}

TEST(GarbageCollection, ReclaimsSwapDebris) {
  util::Xoshiro256 rng(29);
  const int n = 7;
  const tt::TruthTable ta = tt::random_function(n, rng);
  const tt::TruthTable tb = tt::random_function(n, rng);
  Manager m(n);
  std::vector<NodeId> roots{m.from_truth_table(ta),
                            m.from_truth_table(tb)};
  const SiftResult s = sift_in_place(m, roots);
  const std::size_t bloated = m.stats().pool_nodes;
  const std::size_t dropped = m.collect_garbage(&roots);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(m.stats().pool_nodes, bloated - dropped);
  // Functions survive under the new ids.
  EXPECT_EQ(m.to_truth_table(roots[0]), ta);
  EXPECT_EQ(m.to_truth_table(roots[1]), tb);
  EXPECT_EQ(shared_reachable_size(m, roots), s.final_nodes);
  // The compacted pool is exactly terminals + live nodes.
  EXPECT_EQ(m.stats().pool_nodes, 2 + s.final_nodes);
  // The manager is still fully operational afterwards.
  EXPECT_EQ(m.to_truth_table(m.apply_and(roots[0], roots[1])), ta & tb);
  m.swap_adjacent_levels(0);
  EXPECT_EQ(m.to_truth_table(roots[0]), ta);
}

TEST(GarbageCollection, NoGarbageNoOp) {
  Manager m(4);
  std::vector<NodeId> roots{m.from_truth_table(tt::parity(4))};
  const NodeId before = roots[0];
  EXPECT_EQ(m.collect_garbage(&roots), 0u);
  EXPECT_EQ(roots[0], before);  // dense construction keeps ids
}

TEST(ManagerStats, TracksTablesAndCache) {
  Manager m(5);
  const NodeId f = m.from_truth_table(tt::majority(5));
  const auto s1 = m.stats();
  EXPECT_EQ(s1.pool_nodes, m.pool_size());
  EXPECT_EQ(s1.unique_entries, s1.pool_nodes - 2);
  EXPECT_EQ(s1.cache_entries, 0u);
  (void)m.apply_not(f);
  EXPECT_GT(m.stats().cache_entries, 0u);
}

TEST(GarbageCollection, MidSiftPreservesSemanticsAndStructure) {
  // GC in the middle of a sifting sweep: collect between swaps, then keep
  // swapping. Functions must survive, and the final diagram must be
  // structurally identical to a fresh build under the final order.
  util::Xoshiro256 rng(31);
  const int n = 7;
  const tt::TruthTable ta = tt::random_function(n, rng);
  const tt::TruthTable tb = tt::random_function(n, rng);
  Manager m(n);
  std::vector<NodeId> roots{m.from_truth_table(ta),
                            m.from_truth_table(tb)};
  roots.push_back(m.apply_xor(roots[0], roots[1]));

  for (int round = 0; round < 12; ++round) {
    const int level = static_cast<int>(rng.below(n - 1));
    m.swap_adjacent_levels(level);
    if (round % 3 == 2) {
      m.collect_garbage(&roots);
      // Post-GC the pool is exactly terminals + live shared nodes.
      EXPECT_EQ(m.stats().pool_nodes,
                2 + shared_reachable_size(m, roots));
    }
    ASSERT_EQ(m.to_truth_table(roots[0]), ta) << "round " << round;
    ASSERT_EQ(m.to_truth_table(roots[1]), tb);
    ASSERT_EQ(m.to_truth_table(roots[2]), ta ^ tb);
  }

  // Fresh rebuild under the final order must be isomorphic root by root.
  Manager fresh(n, m.order());
  EXPECT_TRUE(structurally_equal(m, roots[0], fresh,
                                 fresh.from_truth_table(ta)));
  EXPECT_TRUE(structurally_equal(m, roots[1], fresh,
                                 fresh.from_truth_table(tb)));
  EXPECT_TRUE(structurally_equal(m, roots[2], fresh,
                                 fresh.from_truth_table(ta ^ tb)));
}

TEST(GarbageCollection, SiftAfterGcMatchesSiftWithoutGc) {
  // Run the same sift twice — once on a freshly collected manager, once on
  // the bloated one — and verify both land on the same size and order.
  util::Xoshiro256 rng(37);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);

  Manager bloated(n);
  std::vector<NodeId> roots_b{bloated.from_truth_table(t)};
  for (int level = 0; level + 1 < n; ++level)
    bloated.swap_adjacent_levels(level);  // manufacture debris
  for (int level = n - 2; level >= 0; --level)
    bloated.swap_adjacent_levels(level);  // ...and return to the start order

  Manager collected(n);
  std::vector<NodeId> roots_c{collected.from_truth_table(t)};
  for (int level = 0; level + 1 < n; ++level)
    collected.swap_adjacent_levels(level);
  for (int level = n - 2; level >= 0; --level)
    collected.swap_adjacent_levels(level);
  collected.collect_garbage(&roots_c);

  ASSERT_EQ(bloated.order(), collected.order());
  const SiftResult rb = sift_in_place(bloated, roots_b);
  const SiftResult rc = sift_in_place(collected, roots_c);
  EXPECT_EQ(rb.final_nodes, rc.final_nodes);
  EXPECT_EQ(bloated.order(), collected.order());
  EXPECT_EQ(bloated.to_truth_table(roots_b[0]), t);
  EXPECT_EQ(collected.to_truth_table(roots_c[0]), t);
  EXPECT_TRUE(structurally_equal(bloated, roots_b[0], collected, roots_c[0]));
}

TEST(SiftInPlace, QualityComparableToOracleSifting) {
  // Same greedy neighborhood, different tie-breaking: the two sifting
  // variants should land within a small factor of each other (and both
  // within a factor of the exact optimum).
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    Manager m(n);
    const NodeId root = m.from_truth_table(t);
    const SiftResult dag = sift_in_place(m, {root});
    std::vector<int> id(n);
    std::iota(id.begin(), id.end(), 0);
    reorder::CostOracle cost(t, core::DiagramKind::kBdd);
    const auto oracle = reorder::sift(cost, id);
    EXPECT_LE(static_cast<double>(dag.final_nodes),
              1.35 * static_cast<double>(oracle.internal_nodes));
    EXPECT_LE(static_cast<double>(oracle.internal_nodes),
              1.35 * static_cast<double>(dag.final_nodes));
  }
}

}  // namespace
}  // namespace ovo::bdd
