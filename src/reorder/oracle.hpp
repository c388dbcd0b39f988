#pragma once
// The shared order-cost oracle: every classical ordering search evaluates
// candidate reading orders through one CostOracle, which owns the base
// prefix table TABLE_{emptyset} (built once per function) and the
// unified OracleStats counters.
//
// It holds no chain-sized scratch and no memo: every evaluation's tables
// belong to its call, or to the search that asked.  A local search keeps
// one core::InsertionSizer over base() for its run, and sizes its
// neighbours from that prefix chain: sift every insertion position of a
// variable at once (insertion_sizes), window permutation, annealing and
// exact windows one whole order at a time (size_for_order), each
// recompacting only from the lowest level the candidate changes (Lemma
// 3).  An oracle kept alive beside the exact DP costs the base table
// only.
//
// Determinism and budget contract: the governor is charged per *query*,
// at the caller's serial program points, exactly as when every query ran
// a whole chain, so a governed run admits, charges and polls at the same
// points whatever the chain reuses.  Reuse only skips computation.
// insertion_sizes admits and charges each position exactly as
// sizes_for_orders would the order it sizes.

#include <cstdint>
#include <vector>

#include "core/minimize.hpp"
#include "core/prefix_table.hpp"
#include "reorder/eval_context.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"

namespace ovo::reorder {

class CostOracle {
 public:
  /// Oracle over a truth table (BDD or ZDD chain evaluation).
  CostOracle(const tt::TruthTable& f, core::DiagramKind kind);

  /// Oracle over an MTBDD value table of size 2^n.
  CostOracle(const std::vector<std::int64_t>& values, int n);

  CostOracle(const CostOracle&) = delete;
  CostOracle& operator=(const CostOracle&) = delete;

  int num_vars() const { return base_.n; }
  core::DiagramKind kind() const { return kind_; }

  /// TABLE_{emptyset}, shared with callers that run their own chains
  /// (brute force, BnB, the FS* DP) against the same function.
  const core::PrefixTable& base() const { return base_; }

  /// Work units one full-chain evaluation costs (2^{n+1} - 2 cells).
  std::uint64_t chain_eval_cost() const {
    return core::chain_eval_cost(base_.n);
  }

  /// Internal node count of the diagram under `order_root_first`, from
  /// `sizer`, the searching caller's prefix chain over base(), which then
  /// holds that order's chain.  A non-null `gov` is polled for hard
  /// stops: a call made stopped, or stopped mid-chain, returns
  /// core::kAbortedSize and is no eval; one made stopped is no query
  /// either.  Work is not charged: callers admit and charge at their
  /// serial program points.
  std::uint64_t size_for_order(core::InsertionSizer& sizer,
                               const std::vector<int>& order_root_first,
                               const rt::Governor* gov = nullptr);

  /// Sizes of the n orders that insert `var` into `rest_root_first` (the
  /// other variables, root first) at root-first positions 0..n-1 — the
  /// batch sizes_for_orders would return for those orders, taken from
  /// one prefix chain of `sizer` (core::InsertionSizer), which the caller
  /// keeps for one search over base().  With ctx.gov the batch is first
  /// truncated, serially, to the root-first prefix the work budget
  /// admits at chain_eval_cost() units per position, as
  /// sizes_for_orders truncates; positions not admitted, and every
  /// position of a call a hard stop cut short, hold core::kAbortedSize.
  /// Each admitted position counts as one query, and as one eval, or as
  /// one memo hit when the sizer answers a repeated call from the sizes
  /// it kept.
  std::vector<std::uint64_t> insertion_sizes(
      core::InsertionSizer& sizer, const std::vector<int>& rest_root_first,
      int var, const EvalContext& ctx);

  /// Batch evaluation of unrelated candidate orders (random restarts),
  /// fanned out as one parallel region on the ovo::par thread pool, one
  /// whole chain per candidate: with ctx.gov the batch is first
  /// truncated, serially, to the prefix the remaining work budget admits
  /// (chain_eval_cost() units per candidate).  Every admitted candidate
  /// is one query, and one eval when its chain completes.  Entries not
  /// admitted or hard-stopped mid-chain hold core::kAbortedSize, which
  /// no selection scan can pick as a best.
  std::vector<std::uint64_t> sizes_for_orders(
      const std::vector<std::vector<int>>& candidates,
      const EvalContext& ctx);

  OracleStats& stats() { return stats_; }
  const OracleStats& stats() const { return stats_; }

 private:
  core::DiagramKind kind_;
  core::PrefixTable base_;
  OracleStats stats_;
};

}  // namespace ovo::reorder
