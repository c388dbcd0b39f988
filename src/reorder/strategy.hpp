#pragma once
// Name-keyed strategy registry — one front door for every variable-
// ordering minimizer in the library: the classical reorder searches, the
// exact engines (the FS DP on the governed minimize_auto ladder, which
// `fs` and `auto` both name, and branch-and-bound), in-place dynamic
// sifting on the live DAG, and the simulated quantum OptOBDD.  The CLI's
// --strategy flag, the benches, and the tests all resolve algorithms
// here, so adding a minimizer is one registry entry — not a new flag
// plumbed through every consumer.
//
// Every strategy reports through the same StrategyResult: the order
// found, its exact size, whether optimality was proven, the governed
// outcome, and the unified OracleStats counters (size queries, actual
// evaluations, queries answered without one, table cells — plus the
// quantum minimum-finder mirror).

#include <cstdint>
#include <string>
#include <vector>

#include "core/fs_checkpoint.hpp"
#include "core/prefix_table.hpp"
#include "reorder/eval_context.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"

namespace ovo::reorder {

/// Per-strategy tuning knobs; each field is read only by the strategies
/// it names.  Policy, budget, and threading come from EvalContext, not
/// from here.
struct StrategyOptions {
  core::DiagramKind kind = core::DiagramKind::kBdd;
  /// Block width for `window` and `exact-window`.
  int window = 3;
  /// Pass cap for the fixpoint heuristics (`sift`, `window`,
  /// `exact-window`, `dynamic`) and the `fs`/`auto` ladder's sifting
  /// (its prune seed and its salvage stage).
  int max_passes = 8;
  /// Random orders drawn by `restarts`.
  int restarts = 16;
  /// RNG seed for the stochastic strategies (`anneal`, `restarts`).
  std::uint64_t seed = 42;
  /// Division-point fractions for `quantum` (Theorem 10's alphas).
  std::vector<double> alphas = {0.27};
  /// Heuristic seeding the bound-pruned DP's incumbent for `fs` and
  /// `auto` when EvalContext.exec.prune == PruneMode::kBounds: "sift"
  /// (default), "window", "restarts", "anneal", or "none" (self-seed).
  /// "restarts" and "anneal" draw from the ladder's own stream
  /// (kLadderRestarts orders from kLadderSeed), not from `restarts` and
  /// `seed`.  Ignored when pruning is off.
  std::string prune_seed = "sift";
  /// Checkpoint/resume for the exact DP inside `fs` and `auto` (see
  /// core::FsCheckpointOptions); ignored by every other strategy.
  core::FsCheckpointOptions ckpt{};
};

struct StrategyResult {
  /// Always a valid permutation (root first), even on tight budgets.
  std::vector<int> order_root_first;
  /// Exact internal node count of the diagram under that order.
  std::uint64_t internal_nodes = 0;
  /// True iff the order is proven optimal for the requested kind.
  bool optimal = false;
  /// Certified lower bound on the optimal size: equals internal_nodes
  /// when optimal; on a tripped `fs`/`auto` run, the deepest completed
  /// DP layer's proven bound; otherwise 0 (no certificate).
  std::uint64_t lower_bound = 0;
  /// Why the run ended (kComplete unless a governor intervened).
  rt::Outcome outcome = rt::Outcome::kComplete;
  /// Unified cost-oracle counters (see eval_context.hpp).
  OracleStats oracle;
  /// `fs`/`auto`: the symmetry classes of two or more inputs the exact
  /// DP ran over (AutoMinimizeResult::sym_classes); empty otherwise.
  std::vector<util::Mask> sym_classes;
  /// Governor accounting when ctx.gov was non-null.
  rt::RunStats run;
};

struct Strategy {
  const char* name;
  const char* description;
  StrategyResult (*run)(const tt::TruthTable& f,
                        const StrategyOptions& options,
                        const EvalContext& ctx);
};

/// All registered strategies, in presentation order (exact engines
/// first, then the heuristics, then the DAG/quantum paths).
const std::vector<Strategy>& strategies();

/// The registered strategy named `name`, or nullptr if unknown.
const Strategy* find_strategy(const std::string& name);

}  // namespace ovo::reorder
