#pragma once
// Hybrid exact/heuristic reordering — the use case the paper's Sec. 1.1
// quotes from [MT98, Sec. 9.2.2]: "apply such (exact) methods at least to
// parts of the OBDDs within a heuristics procedure".
//
// exact_window slides a window of `window` adjacent levels over the
// ordering and replaces each window's arrangement with the *exact*
// optimum computed by the FS* dynamic program on that block (O*(3^w) per
// window instead of w! chain evaluations — Lemma 3 guarantees the levels
// outside the window are unaffected).  Iterates to a fixpoint.

#include <cstdint>
#include <vector>

#include "core/prefix_table.hpp"
#include "reorder/oracle.hpp"

namespace ovo::reorder {

struct ExactWindowResult {
  std::vector<int> order_root_first;
  std::uint64_t internal_nodes = 0;
  int passes = 0;
  std::uint64_t windows_optimized = 0;
  /// False iff a governor stopped the optimization early; the order is
  /// then the best reached so far (always valid).
  bool complete = true;
  core::OpCounter ops;
};

/// Optimizes `initial_order` (root first) with exact windows of size
/// `window` (2..16), until a full pass makes no improvement or
/// `max_passes` is reached.  The search keeps one core::InsertionSizer
/// over its current order: the initial evaluation sizes it through the
/// oracle, each window reads the table below it and its current cost
/// from the chain, and an improvement recompacts the chain only from the
/// window's bottom level up.  The windowed FS* runs use ctx.exec; the
/// window DP and chain work stays in ExactWindowResult::ops.  A non-null
/// ctx.gov charges each window's setup levels their cells, as compacting
/// them from oracle.base() would, and lets the per-window FS* DP
/// pre-admit its layers; a window whose DP cannot complete under the
/// remaining budget is skipped and the search stops, keeping the
/// incumbent order.
ExactWindowResult exact_window(CostOracle& oracle,
                               std::vector<int> initial_order, int window,
                               int max_passes = 8,
                               const EvalContext& ctx = {});

}  // namespace ovo::reorder
