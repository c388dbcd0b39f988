#pragma once
// Public entry points for exact decision-diagram minimization — the paper's
// algorithm FS (Theorem 5) specialized per diagram kind, plus order-cost
// evaluation used by baselines and verification.

#include <cstdint>
#include <vector>

#include "core/fs_checkpoint.hpp"
#include "core/prefix_table.hpp"
#include "parallel/exec_policy.hpp"
#include "tt/truth_table.hpp"

namespace ovo::core {

struct MinimizeResult {
  /// Optimal variable reading order, root first: order_root_first[0] is the
  /// variable read first (the paper's x_{pi[n]}).
  std::vector<int> order_root_first;

  /// Internal (non-terminal) node count of the minimum diagram,
  /// MINCOST_{[n]}. The paper's figures count terminals too: add
  /// 2 for BDD/ZDD, the number of distinct values for MTBDD.
  std::uint64_t min_internal_nodes = 0;

  /// Work performed, in table cells processed (Theorem 5: O*(3^n)).
  OpCounter ops;
};

/// Exact minimum OBDD ordering by the Friedman–Supowit DP; O*(3^n) time and
/// space in the number of variables of `f`.  `exec` fans the per-layer
/// subset sweep out over the ovo::par pool; the default is serial, and
/// results are identical for every thread count.  With exec.prune ==
/// PruneMode::kBounds, `prune_upper_bound` seeds the DP's pruning
/// incumbent (0 self-seeds; see fs_star) — the result is still exact and
/// bit-identical to the dense run.  `ckpt` enables durable
/// checkpoint/resume of the DP (see fs_star / fs_checkpoint.hpp).
MinimizeResult fs_minimize(const tt::TruthTable& f,
                           DiagramKind kind = DiagramKind::kBdd,
                           const par::ExecPolicy& exec = {},
                           std::uint64_t prune_upper_bound = 0,
                           const FsCheckpointOptions* ckpt = nullptr);

/// Exact minimum MTBDD ordering for a multi-valued function given as a
/// value table of size 2^n (Remark 2).
MinimizeResult fs_minimize_mtbdd(const std::vector<std::int64_t>& values,
                                 int n, const par::ExecPolicy& exec = {});

/// Sentinel returned by governed size evaluations hard-stopped mid-chain.
/// Larger than any real size, so an aborted candidate is never selected.
inline constexpr std::uint64_t kAbortedSize = ~std::uint64_t{0};

/// Internal node count of the diagram for `f` under a full reading order
/// (root first), computed by a single chain of table compactions; O(2^n).
/// This is the exact size oracle used by the heuristic baselines.
/// A non-null `gov` is checked between compactions for hard stops
/// (cancel / wall deadline); an aborted evaluation returns kAbortedSize.
/// Work is NOT charged here — batch callers pre-admit the closed-form
/// chain cost (2^{n+1} - 2 cells per evaluation) to stay deterministic.
std::uint64_t diagram_size_for_order(const tt::TruthTable& f,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind = DiagramKind::kBdd,
                                     OpCounter* ops = nullptr,
                                     const rt::Governor* gov = nullptr);

/// diagram_size_for_order starting from a prebuilt TABLE_{emptyset}
/// (`base` is copied into `scratch_cur`, never mutated) and ping-ponging
/// between the two caller-provided scratch tables, so a caller that
/// evaluates many orders against one function allocates nothing once the
/// scratch capacity covers one chain.  This is the primitive under
/// reorder::CostOracle.
std::uint64_t diagram_size_from_base(const PrefixTable& base,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind,
                                     PrefixTable& scratch_cur,
                                     PrefixTable& scratch_next,
                                     OpCounter* ops = nullptr,
                                     const rt::Governor* gov = nullptr);

/// MTBDD variant of diagram_size_for_order.
std::uint64_t diagram_size_for_order_values(
    const std::vector<std::int64_t>& values, int n,
    const std::vector<int>& order_root_first, OpCounter* ops = nullptr,
    const rt::Governor* gov = nullptr);

/// Work units one full-chain size evaluation costs (cells read by the n
/// compactions: 2^n + 2^{n-1} + ... + 2 = 2^{n+1} - 2).
inline std::uint64_t chain_eval_cost(int n) {
  return (std::uint64_t{2} << n) - 2;
}

/// Per-level widths (the paper's Cost_{pi[j]} profile, bottom-up: entry 0
/// is the lowest level) under a full reading order.
std::vector<std::uint64_t> level_profile_for_order(
    const tt::TruthTable& f, const std::vector<int>& order_root_first,
    DiagramKind kind = DiagramKind::kBdd);

}  // namespace ovo::core
