#pragma once
// Baseline ordering searches the paper compares against (explicitly or
// implicitly):
//   * brute force over all n! orderings — the paper's trivial O*(n! 2^n)
//     bound;
//   * Rudell-style sifting and window permutation — the classic heuristics
//     whose optimization quality exact methods are meant to judge
//     (paper Sec. 1.1, citing [MT98, Sec. 9.2.2]);
//   * random restarts.
// All evaluate candidate orders through one reorder::CostOracle, the
// exact O(2^n) chain-compaction size oracle.

#include <cstdint>
#include <vector>

#include "reorder/oracle.hpp"
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

/// Largest n brute_force_minimize accepts: 10! = 3,628,800 chains.
inline constexpr int kBruteForceMaxVars = 10;

/// Exhaustive search over all n! reading orders of the oracle's function,
/// guarded to n <= kBruteForceMaxVars.  ctx.exec fans the permutation
/// sweep over the ovo::par pool (chunked by lexicographic rank); the
/// result is the first lexicographic minimizer for every thread count.
/// Chains run against oracle.base() with per-chunk scratch buffers, and
/// the sweep's work is recorded in oracle.stats().
OrderSearchResult brute_force_minimize(CostOracle& oracle,
                                       const EvalContext& ctx = {});

/// Rudell sifting: repeatedly move each variable to its locally best
/// position, until a fixpoint or `max_passes`.  Each step sizes every
/// position of its variable with one oracle.insertion_sizes call over a
/// core::InsertionSizer that lives for this call (one prefix chain per
/// step; a step whose other variables' order has not changed since that
/// variable's last step is answered from its kept sizes).  ctx.exec
/// parallelizes the per-position compactions, and the chosen position (first strict best, ties to the
/// smallest root-first index) is thread-count-independent.
///
/// A non-null ctx.gov budgets the search: every candidate batch is
/// deterministically truncated to what the remaining work budget admits
/// (core::chain_eval_cost(n) units per candidate, decided serially before
/// the batch fans out), so a budget-tripped run stops at the same point
/// for every thread count and returns the best order found so far —
/// always a valid permutation at least as good as the initial one.
OrderSearchResult sift(CostOracle& oracle,
                       std::vector<int> initial_order_root_first,
                       int max_passes = 8, const EvalContext& ctx = {});

/// Window permutation: exhaustively permute every window of `window`
/// adjacent levels, sliding left to right, until a fixpoint.  Candidates
/// are sized one after another through oracle.size_for_order over a
/// core::InsertionSizer that lives for this call, so each recompacts only
/// from its window's bottom level up; ctx.exec is not read.  ctx.gov
/// admits each window's batch of window! whole chains at once, exactly as
/// in sift().
OrderSearchResult window_permute(CostOracle& oracle,
                                 std::vector<int> initial_order_root_first,
                                 int window, int max_passes = 8,
                                 const EvalContext& ctx = {});

/// Best of `restarts` uniformly random orderings.  Orders are drawn from
/// `rng` serially (the stream is identical to the serial implementation);
/// only their size evaluations fan out over the pool.  ctx.gov budgets
/// the evaluations as in sift(); if the budget admits none, the result
/// has an empty order and internal_nodes == core::kAbortedSize — callers
/// with a prior incumbent keep it.  `rng` stays an explicit parameter:
/// the draw stream is part of the determinism contract (the ladder's
/// stages pass a stream seeded from kLadderSeed, the strategy registry
/// one seeded from StrategyOptions::seed).
OrderSearchResult random_restart(CostOracle& oracle, int restarts,
                                 util::Xoshiro256& rng,
                                 const EvalContext& ctx = {});

}  // namespace ovo::reorder
