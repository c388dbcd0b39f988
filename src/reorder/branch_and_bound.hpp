#pragma once
// Branch-and-bound exact variable ordering — the other classical exact
// approach (best-first prefix search with admissible lower bounds and
// subset dominance, in the spirit of the FizZ/JANUS line of work).  It
// explores the same bottom-up prefix lattice as the FS dynamic program
// but depth-first, pruning with:
//
//   * dominance: reaching a prefix *set* with a cost no better than a
//     previously recorded chain is futile (Lemma 3 makes per-set costs
//     chain-invariant going forward);
//   * the bound-pruned DP's admissible completion bound
//     (core::completion_bound, with the root's core::bound_support
//     computed once per run): the distinct cell ids the upper part must
//     still reach, minus its one root pointer, and one node per free
//     variable in the support — both kind-aware, so they hold for ZDDs
//     too.
//
// Worst case matches FS's O*(3^n); with a good initial incumbent
// (sifting) it typically expands a small fraction of the lattice.  Used
// as an independent exact cross-check of FS and as a baseline.

#include <cstdint>
#include <vector>

#include "core/prefix_table.hpp"
#include "reorder/oracle.hpp"

namespace ovo::reorder {

struct BnbResult {
  std::vector<int> order_root_first;
  std::uint64_t internal_nodes = 0;
  std::uint64_t states_expanded = 0;  ///< prefix states visited
  std::uint64_t states_pruned_bound = 0;
  std::uint64_t states_pruned_dominance = 0;
  /// False iff a governor stopped the search early; the result is then
  /// the best incumbent found, not a proven optimum.
  bool complete = true;
};

/// Exact minimization by branch and bound over the oracle's function and
/// kind (n >= 1).  `initial_upper_bound` is an incumbent size (e.g. from
/// sifting); pass UINT64_MAX to start cold.  The search runs from
/// oracle.base() (no second TABLE_{emptyset} build) and records its
/// compaction work — child generation, free variables × table cells per
/// expanded state — into oracle.stats().ops, the same ledger the chain
/// evaluators use.  ctx.exec parallelizes per-node child generation (one
/// compaction per free variable) on states large enough to amortize
/// dispatch; the DFS itself — and therefore every statistic — is
/// unchanged by the thread count.
///
/// A non-null ctx.gov budgets the search: each state's child-generation
/// cost (free variables × table cells) is admitted and charged at the
/// serial DFS entry, so a work-limit trip cuts the search at the same
/// state for every thread count.  A cold-started governed run first
/// seeds a core::greedy_complete incumbent (charged outside the budget
/// and the ledger, the price of guaranteeing *some* valid answer), so
/// the result always carries a valid ordering; `complete` reports
/// whether the optimum was proven.
BnbResult branch_and_bound_minimize(
    CostOracle& oracle,
    std::uint64_t initial_upper_bound = ~std::uint64_t{0},
    const EvalContext& ctx = {});

}  // namespace ovo::reorder
