// Tests for the hybrid exact-window reordering (FS* inside a sliding
// window — the [MT98, Sec 9.2.2] use case the paper motivates).

#include <gtest/gtest.h>

#include <numeric>

#include "core/minimize.hpp"
#include "reorder/baselines.hpp"
#include "reorder/exact_window.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

TEST(ExactWindow, ReportedSizeIsTrueSize) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const tt::TruthTable f = tt::random_function(7, rng);
    std::vector<int> id(7);
    std::iota(id.begin(), id.end(), 0);
    CostOracle oracle(f, core::DiagramKind::kBdd);
    const ExactWindowResult r = exact_window(oracle, id, 3);
    EXPECT_TRUE(util::is_permutation(r.order_root_first));
    EXPECT_EQ(core::diagram_size_for_order(f, r.order_root_first),
              r.internal_nodes);
  }
}

TEST(ExactWindow, NeverWorseNeverBelowOptimum) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const tt::TruthTable f = tt::random_function(6, rng);
    std::vector<int> id(6);
    std::iota(id.begin(), id.end(), 0);
    const std::uint64_t start = core::diagram_size_for_order(f, id);
    const std::uint64_t opt = core::fs_minimize(f).min_internal_nodes;
    CostOracle oracle(f, core::DiagramKind::kBdd);
    const ExactWindowResult r = exact_window(oracle, id, 3);
    EXPECT_LE(r.internal_nodes, start);
    EXPECT_GE(r.internal_nodes, opt);
  }
}

TEST(ExactWindow, MatchesFactorialWindowPermutation) {
  // Exact windows must be at least as good as next_permutation windows of
  // the same width (they search the same neighborhoods exactly).
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const tt::TruthTable f = tt::random_function(6, rng);
    std::vector<int> id(6);
    std::iota(id.begin(), id.end(), 0);
    CostOracle oracle(f, core::DiagramKind::kBdd);
    const ExactWindowResult ew = exact_window(oracle, id, 3);
    const OrderSearchResult wp = window_permute(oracle, id, 3);
    EXPECT_LE(ew.internal_nodes, wp.internal_nodes);
  }
}

TEST(ExactWindow, FullWidthWindowIsGloballyExact) {
  // window == n degenerates to one FS* run over everything: the global
  // optimum in a single window.
  util::Xoshiro256 rng(9);
  const tt::TruthTable f = tt::random_function(6, rng);
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  CostOracle oracle(f, core::DiagramKind::kBdd);
  const ExactWindowResult r = exact_window(oracle, id, 6);
  EXPECT_EQ(r.internal_nodes, core::fs_minimize(f).min_internal_nodes);
}

TEST(ExactWindow, SolvesPairSumWithModestWindow) {
  // Interleaved pair_sum needs long-range moves; window 4 suffices for
  // m = 3 after a few passes.
  CostOracle oracle(tt::pair_sum(3), core::DiagramKind::kBdd);
  const ExactWindowResult r =
      exact_window(oracle, tt::pair_sum_interleaved_order(3), 4);
  EXPECT_EQ(r.internal_nodes, 6u);
  EXPECT_GE(r.windows_optimized, 1u);
}

TEST(ExactWindow, ZddKind) {
  util::Xoshiro256 rng(11);
  const tt::TruthTable f = tt::random_sparse_function(6, 8, rng);
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  CostOracle oracle(f, core::DiagramKind::kZdd);
  const ExactWindowResult r = exact_window(oracle, id, 3);
  EXPECT_EQ(core::diagram_size_for_order(f, r.order_root_first,
                                         core::DiagramKind::kZdd),
            r.internal_nodes);
}

TEST(ExactWindow, Validation) {
  CostOracle oracle(tt::parity(4), core::DiagramKind::kBdd);
  EXPECT_THROW(exact_window(oracle, {0, 1, 2}, 3), util::CheckError);
  EXPECT_THROW(exact_window(oracle, {0, 1, 2, 3}, 1), util::CheckError);
  EXPECT_THROW(exact_window(oracle, {0, 0, 2, 3}, 3), util::CheckError);
}

}  // namespace
}  // namespace ovo::reorder
