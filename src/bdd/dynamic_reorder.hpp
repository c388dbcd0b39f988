#pragma once
// In-place dynamic variable reordering — adjacent level swaps and Rudell
// sifting executed directly on the shared DAG, the mechanism real BDD
// packages (CUDD et al.) use while the paper's algorithms provide the
// exact targets to judge it against.
//
// Key property: node ids remain valid across swaps.  A swap rewrites the
// two affected levels in place; a node's id keeps denoting the same
// Boolean function afterwards (only its label/children change).  This is
// sound without reference counting because, at a swap of levels (l, l+1):
//   * distinct functions stay distinct, so rewritten nodes can never
//     collide with kept nodes in the unique table (see dynamic_reorder.cpp
//     for the argument), and
//   * a node labeled x with distinct cofactors still depends on x after
//     the swap, so the lo == hi degenerate merge cannot arise.
// Superseded nodes become garbage in the arena (consistent with the
// package's no-GC policy).

#include <cstdint>
#include <vector>

#include "bdd/manager.hpp"
#include "parallel/exec_policy.hpp"
#include "reorder/eval_context.hpp"

namespace ovo::bdd {

/// Swaps the variables at `level` and `level + 1` in place.  All existing
/// NodeIds continue to denote the same functions.  Returns the number of
/// nodes created by the swap.
std::size_t swap_adjacent_levels(Manager& m, int level);

/// Moves the variable currently at `from_level` to `to_level` by a
/// sequence of adjacent swaps.
void move_level(Manager& m, int from_level, int to_level);

struct SiftResult {
  std::uint64_t initial_nodes = 0;
  std::uint64_t final_nodes = 0;
  std::uint64_t swaps = 0;
  int passes = 0;
  /// False iff a governor stopped the sift early; the manager is then
  /// left in a consistent state at the best level reached so far.
  bool complete = true;
};

/// Rudell sifting on the live DAG: repeatedly moves each variable to its
/// locally best level, measuring the union of nodes reachable from
/// `roots` after every swap; stops at a fixpoint or `max_passes`.
/// Root ids stay valid and keep denoting the same functions.
///
/// ctx.gov budgets the search: one variable's sweep (~2n swaps, each
/// followed by a reachability scan over the live DAG) is admitted as a
/// unit at the serial per-variable point, so a work-limit trip lands
/// between sweeps and the result is identical at every thread count; a
/// hard stop (deadline, cancel) is polled per swap and still settles the
/// in-flight variable at its best level, keeping the DAG consistent.
/// ctx.exec parallelizes the reachability scans on pools large enough to
/// amortize the fan-out.  ctx.stats, when non-null, receives one
/// query/eval plus the scanned live size per reachability measurement.
/// The default context runs serially and ungoverned.
SiftResult sift_in_place(Manager& m, const std::vector<NodeId>& roots,
                         int max_passes = 4,
                         const reorder::EvalContext& ctx = {});

/// Union of non-terminal nodes reachable from all roots (the live size a
/// multi-root application cares about).
std::uint64_t shared_reachable_size(const Manager& m,
                                    const std::vector<NodeId>& roots);

/// As above, fanned out on the task-graph scheduler as a frontier BFS
/// (one region per level) with atomic node claiming when `exec` asks
/// for threads and the arena is large enough to amortize dispatch; the
/// count is the size of a fixed set, so it is identical at every
/// thread count.
std::uint64_t shared_reachable_size(const Manager& m,
                                    const std::vector<NodeId>& roots,
                                    const par::ExecPolicy& exec);

}  // namespace ovo::bdd
