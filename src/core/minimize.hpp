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

/// Sizes every insertion position of one variable into an order of the
/// others, sifting's question, from one prefix chain (docs/ALGORITHMS.md,
/// "Sifting by level deltas").  Let w_0..w_{n-2} be the other variables
/// bottom-up, P_q the base compacted by w_0..w_{q-1}, Q_q = compact(P_q,
/// var) and R_q = compact(Q_q, w_q).  By Lemma 3 a level's width depends
/// only on its variable and the set below it, so var at bottom-up position
/// q gives the diagram size
///
///     mincost(Q_q) + sum_{j >= q} [mincost(R_j) - mincost(Q_j)]
///
/// for about 5·2^n cells over all n positions, where n chains cost
/// n·2^{n+1}.  The sizer keeps its tables between calls (the chain, and
/// one Q table per pool slot) and rebuilds the chain only above the
/// longest bottom-up prefix a call shares with the one it holds, so a
/// caller keeps one for a search and no longer.  The same holds for
/// whole orders (size): an order that differs from the chain's only at
/// and above bottom-up level q, such as a window permutation or a
/// transposition, recompacts only from level q.  It also keeps the sizes
/// of each variable's last call that sized every position, and answers a
/// call that repeats it (same variable, same order of the others) from
/// them without a compaction.  `base` must outlive the sizer.
class InsertionSizer {
 public:
  InsertionSizer(const PrefixTable& base, DiagramKind kind);

  /// diagram_size_from_base's answer for `order_root_first`, from the
  /// chain, which then holds that order's prefix chain.  A non-null `gov`
  /// is polled for hard stops between compactions: a stopped call
  /// returns kAbortedSize.
  std::uint64_t size(const std::vector<int>& order_root_first,
                     OpCounter* ops = nullptr,
                     const rt::Governor* gov = nullptr);

  /// The base compacted by the first q variables, bottom-up, of the
  /// order the last size() call completed (q <= n), or of the other
  /// variables of the last sizes() call (q <= n - 1).
  const PrefixTable& level(std::size_t q) const {
    return q == 0 ? base_ : chain_[q];
  }

  /// Sizes of the orders that insert `var` into `rest_root_first` (the
  /// other n - 1 variables, root first), into `*out` resized to n: entry
  /// p is var at root-first position p for p < `positions`, and the rest
  /// hold kAbortedSize.  `exec` fans the (Q_q, R_q) pairs out over the
  /// pool, and every thread count gives the same sizes and counts.  A
  /// non-null `gov` is polled for hard stops, and a call it stops holds
  /// kAbortedSize everywhere.  Work is not charged.  Returns true iff
  /// the sizes are a repeated call's, answered without a compaction.
  bool sizes(const std::vector<int>& rest_root_first, int var,
             std::size_t positions, const par::ExecPolicy& exec,
             std::vector<std::uint64_t>* out, OpCounter* ops = nullptr,
             const rt::Governor* gov = nullptr);

 private:
  /// Makes level(q) the base compacted by bottom_up[0..q-1] for every
  /// q <= len, reusing the levels the chain already holds for a common
  /// prefix.  False when `gov` stopped it.
  bool extend(const std::vector<int>& bottom_up, std::size_t len,
              OpCounter* ops, const rt::Governor* gov);

  const PrefixTable& base_;
  DiagramKind kind_;
  std::vector<PrefixTable> chain_;  ///< chain_[q], q >= 1: see extend
  std::vector<int> chain_vars_;     ///< bottom-up vars of the valid levels
  std::vector<PrefixTable> slot_q_;  ///< per pool slot: Q_q
  /// Per variable: the order of the others and the sizes of its last call
  /// that sized every position.
  std::vector<std::vector<int>> last_rest_;
  std::vector<std::vector<std::uint64_t>> last_sizes_;
};

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
