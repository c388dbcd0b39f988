#pragma once
// Baseline ordering searches the paper compares against (explicitly or
// implicitly):
//   * brute force over all n! orderings — the paper's trivial O*(n! 2^n)
//     bound;
//   * Rudell-style sifting and window permutation — the classic heuristics
//     whose optimization quality exact methods are meant to judge
//     (paper Sec. 1.1, citing [MT98, Sec. 9.2.2]);
//   * random restarts.
// All evaluate candidate orders with the exact O(2^n) chain-compaction
// size oracle (core::diagram_size_for_order).

#include <cstdint>
#include <vector>

#include "core/prefix_table.hpp"
#include "parallel/exec_policy.hpp"
#include "reorder/oracle.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {

struct OrderSearchResult {
  std::vector<int> order_root_first;
  std::uint64_t internal_nodes = 0;
  std::uint64_t orders_evaluated = 0;
  /// Brute force also reports the pessimal ordering's size (the spread
  /// that motivates the whole problem — cf. the paper's Fig. 1).
  std::uint64_t worst_internal_nodes = 0;
};

/// Exhaustive search over all n! reading orders. Guarded to n <= 10.
/// `exec` fans the permutation sweep over the ovo::par pool (chunked by
/// lexicographic rank); the result is the first lexicographic minimizer
/// for every thread count.
OrderSearchResult brute_force_minimize(
    const tt::TruthTable& f, core::DiagramKind kind = core::DiagramKind::kBdd,
    const par::ExecPolicy& exec = {});

/// Oracle-based primary implementation: chains run against oracle.base()
/// with per-chunk scratch buffers (the memo is bypassed — all n! orders
/// are distinct), and the sweep's work is recorded in oracle.stats().
OrderSearchResult brute_force_minimize(CostOracle& oracle,
                                       const EvalContext& ctx = {});

/// Rudell sifting: repeatedly move each variable to its locally best
/// position, until a fixpoint or `max_passes`.  `exec` parallelizes the
/// per-position size evaluations; the chosen position (first best, ties to
/// the smallest index) is thread-count-independent.
///
/// A non-null `gov` budgets the search: every candidate batch is
/// deterministically truncated to what the remaining work budget admits
/// (core::chain_eval_cost(n) units per candidate, decided serially before
/// the batch fans out), so a budget-tripped run stops at the same point
/// for every thread count and returns the best order found so far —
/// always a valid permutation at least as good as the initial one.
OrderSearchResult sift(const tt::TruthTable& f,
                       std::vector<int> initial_order_root_first,
                       core::DiagramKind kind = core::DiagramKind::kBdd,
                       int max_passes = 8,
                       const par::ExecPolicy& exec = {},
                       rt::Governor* gov = nullptr);

/// Oracle-based primary implementation; candidate batches go through
/// oracle.sizes_for_orders (memoized), policy/budget through ctx.
OrderSearchResult sift(CostOracle& oracle,
                       std::vector<int> initial_order_root_first,
                       int max_passes = 8, const EvalContext& ctx = {});

/// Window permutation: exhaustively permute every window of `window`
/// adjacent levels, sliding left to right, until a fixpoint.  `exec`
/// parallelizes the per-window candidate evaluations deterministically.
/// `gov` budgets the search exactly as in sift().
OrderSearchResult window_permute(const tt::TruthTable& f,
                                 std::vector<int> initial_order_root_first,
                                 int window,
                                 core::DiagramKind kind =
                                     core::DiagramKind::kBdd,
                                 int max_passes = 8,
                                 const par::ExecPolicy& exec = {},
                                 rt::Governor* gov = nullptr);

/// Oracle-based primary implementation of window_permute.
OrderSearchResult window_permute(CostOracle& oracle,
                                 std::vector<int> initial_order_root_first,
                                 int window, int max_passes = 8,
                                 const EvalContext& ctx = {});

/// Best of `restarts` uniformly random orderings.  Orders are drawn from
/// `rng` serially (the stream is identical to the serial implementation);
/// only their size evaluations fan out over the pool.  `gov` budgets the
/// evaluations as in sift(); if the budget admits none, the result has an
/// empty order and internal_nodes == core::kAbortedSize — callers with a
/// prior incumbent keep it.
OrderSearchResult random_restart(const tt::TruthTable& f, int restarts,
                                 util::Xoshiro256& rng,
                                 core::DiagramKind kind =
                                     core::DiagramKind::kBdd,
                                 const par::ExecPolicy& exec = {},
                                 rt::Governor* gov = nullptr);

/// Oracle-based primary implementation of random_restart.  `rng` stays an
/// explicit parameter: the draw stream is part of the determinism
/// contract (ladder stages pass a stream seeded from
/// AutoMinimizeOptions::restart_seed, the strategy registry one seeded
/// from StrategyOptions::seed).
OrderSearchResult random_restart(CostOracle& oracle, int restarts,
                                 util::Xoshiro256& rng,
                                 const EvalContext& ctx = {});

}  // namespace ovo::reorder
