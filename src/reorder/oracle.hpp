#pragma once
// The shared order-cost oracle: every classical ordering search evaluates
// candidate reading orders through one CostOracle, which owns
//
//  * the base prefix table TABLE_{emptyset} (built once per function),
//  * an order-keyed memo cache (ovo::ds::ComputedCache) so repeated
//    candidates across windows, annealing moves, restarts, and ladder
//    stages are evaluated once, and
//  * the unified OracleStats counters.
//
// It holds no chain-sized scratch: every evaluation's tables belong to
// its call, or to the search that asked (sift's core::InsertionSizer),
// so an oracle kept alive beside the exact DP costs the base table and
// the memo only.
//
// Sifting asks a different question — the sizes of every insertion
// position of one variable — and gets it from the search's own
// InsertionSizer, one prefix chain per step (insertion_sizes).  Those
// queries neither read nor write the memo.
//
// Determinism and budget contract: memoization never changes results or
// governor accounting.  A memo hit returns exactly the size a fresh
// evaluation would have computed (keys are lossless, see below), and the
// governor is charged per *query* — identically to the pre-oracle code —
// so a governed run trips at the same point whether or not the cache is
// warm.  Memoization only skips the computation.  insertion_sizes admits
// and charges each position exactly as sizes_for_orders would the order
// it sizes.
//
// Memo keying: an order is packed into ceil(log2 n) bits per variable,
// root first, into the cache's 96-bit (uint64, uint32) key.  The packing
// is injective and the cache compares full keys, so a hit is never a
// collision.  For n where the packed order exceeds 96 bits (n >= 20 —
// beyond any practical chain evaluation) the memo silently disables and
// every query evaluates.

#include <cstdint>
#include <vector>

#include "core/minimize.hpp"
#include "core/prefix_table.hpp"
#include "ds/computed_cache.hpp"
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

  /// Internal node count of the diagram under `order_root_first`.
  /// A non-null `gov` is polled for hard stops: a stopped query returns
  /// core::kAbortedSize (never memoized).  Work is NOT charged here —
  /// callers admit/charge at their serial program points, exactly as
  /// before the oracle existed.
  std::uint64_t size_for_order(const std::vector<int>& order_root_first,
                               const rt::Governor* gov = nullptr);

  /// The same size from `sizer`, the searching caller's prefix chain
  /// over base(): one query and one eval, with the memo neither read nor
  /// written.  Work is not charged.
  std::uint64_t size_for_order(core::InsertionSizer& sizer,
                               const std::vector<int>& order_root_first);

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
  /// it kept.  The memo is neither read nor written.
  std::vector<std::uint64_t> insertion_sizes(
      core::InsertionSizer& sizer, const std::vector<int>& rest_root_first,
      int var, const EvalContext& ctx);

  /// Batch evaluation of candidate orders, fanned out as one parallel
  /// region on the ovo::par thread pool, preserving the pre-oracle
  /// semantics bit for bit: with ctx.gov the batch is first
  /// truncated — serially — to the prefix the remaining work budget
  /// admits (chain_eval_cost() units per candidate, charged whether or
  /// not the candidate later hits the memo), then memo hits are resolved
  /// serially and only the misses fan out (one candidate per chunk).
  /// Entries not admitted or hard-stopped mid-chain hold
  /// core::kAbortedSize, which no selection scan can pick as a best.
  std::vector<std::uint64_t> sizes_for_orders(
      const std::vector<std::vector<int>>& candidates,
      const EvalContext& ctx);

  OracleStats& stats() { return stats_; }
  const OracleStats& stats() const { return stats_; }

 private:
  /// Packs an order into the memo key; false when the memo is disabled.
  bool pack_key(const std::vector<int>& order, std::uint64_t* a,
                std::uint32_t* b) const;

  core::DiagramKind kind_;
  core::PrefixTable base_;
  int bits_per_var_ = 0;  ///< 0 = memo disabled (packed order > 96 bits)
  ds::ComputedCache memo_;
  OracleStats stats_;
};

}  // namespace ovo::reorder
