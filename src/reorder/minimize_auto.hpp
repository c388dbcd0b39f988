#pragma once
// Graceful degradation for exact minimization: run the Friedman–Supowit
// DP under a budget, and when it trips, salvage the partial DP into a
// heuristic search instead of failing.
//
// The ladder:
//   1. Exact FS* DP, layer by layer, each layer pre-admitted against the
//      budget (work, nodes, bytes — see core::fs_star).
//   2. On a trip: pick the cheapest subset of the deepest completed
//      layer, reconstruct its within-block order from the DP
//      back-pointers, and complete it upward greedily (smallest
//      compaction width first).  This alone yields a valid ordering and
//      an exact size for it, plus a true lower bound: every complete
//      order's bottom-k block costs at least min_K MINCOST_K over the
//      deepest completed layer k.
//   3. Rudell sifting seeded with that order, under the remaining
//      budget.
//   4. Random restarts (kLadderRestarts orders from kLadderSeed) under
//      whatever budget still remains.
//
// This is the library's one exact route: the strategy registry's `fs`
// and `auto` both run it, so every exact run seeds, snapshots, honours
// a budget and degrades the same way.
//
// Every stage makes its budget decisions at serial program points, so a
// run with a fixed work-unit budget returns the same order, size, and
// outcome for every thread count; only wall-clock/cancel trips vary.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "reorder/eval_context.hpp"
#include "reorder/oracle.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"

namespace ovo::reorder {

/// Random orders the ladder draws for its final stage (the budget
/// truncates the evaluated prefix deterministically), and for a
/// "restarts" prune seed.
inline constexpr int kLadderRestarts = 64;
/// Seed of the ladder's random stream: the final stage's restarts, and
/// the "restarts" and "anneal" prune seeds.
inline constexpr std::uint64_t kLadderSeed = 0x5eed5eed5eedull;

struct AutoMinimizeOptions {
  core::DiagramKind kind = core::DiagramKind::kBdd;
  int sift_max_passes = 8;
  /// Heuristic that seeds the DP's pruning incumbent when exec.prune ==
  /// PruneMode::kBounds (see seed_prune_bound); ignored in dense mode.
  std::string prune_seed = "sift";
  par::ExecPolicy exec{};
  /// Checkpoint/resume for the exact DP stage (core::fs_star).  With a
  /// resume snapshot the ladder skips its seeding stage — the snapshot
  /// carries the seed order and the effective pruning incumbent — so the
  /// resumed DP replays the uninterrupted run bit for bit.  Written
  /// snapshots record the seed provenance for exactly that hand-off.
  core::FsCheckpointOptions ckpt{};
};

struct AutoMinimizeResult {
  /// Always a valid permutation, even on the tightest budgets.
  std::vector<int> order_root_first;
  /// Exact internal node count of the diagram under that order.
  std::uint64_t internal_nodes = 0;
  /// True iff the order is proven optimal: the exact DP completed, or
  /// lower_bound meets internal_nodes whatever stopped the run.
  bool optimal = false;
  /// DP layers fully built before the budget intervened (== n when the
  /// DP completed).
  int dp_layers_completed = 0;
  /// Proven lower bound on the optimal size, from the deepest completed
  /// DP layer (equals internal_nodes iff optimal).
  std::uint64_t lower_bound = 0;
  /// DP + salvage compaction work (stages 1–2).
  core::OpCounter ops;
  /// The symmetry classes of two or more inputs the DP ran its orbits
  /// over (core::FsStarResult::classes), as variable masks ascending by
  /// lowest member; empty when no two inputs are symmetric.
  std::vector<util::Mask> sym_classes;
  /// Oracle stats of the seed stage and the heuristic stages (3–4),
  /// which share one oracle.  Each search sizes its candidates from a
  /// prefix chain of its own (sift counts a repeated step as memo hits);
  /// the restarts stage runs one whole chain per order.
  OracleStats oracle;
};

/// Minimizes under `budget` with graceful degradation (see file
/// comment).  The Result's outcome is kComplete iff the exact DP
/// finished; otherwise it reports why it could not (the limit that bound
/// first, or the hard stop), while `value` still carries the best order
/// found by the fallback stages.
rt::Result<AutoMinimizeResult> minimize_auto(
    const tt::TruthTable& f, const rt::Budget& budget,
    const AutoMinimizeOptions& options = {});

/// Same ladder against a caller-owned governor, so minimize_auto can run
/// under an already-ticking budget shared with surrounding work.
rt::Result<AutoMinimizeResult> minimize_auto(
    const tt::TruthTable& f, rt::Governor& gov,
    const AutoMinimizeOptions& options = {});

/// A heuristic order and its exact size, used to seed the bound-pruned
/// DP's incumbent.  The size is the cost of a real complete order, so it
/// is always an admissible (>= optimum) upper bound.
struct PruneSeedResult {
  std::vector<int> order_root_first;  ///< empty for seed "none"
  std::uint64_t upper_bound = 0;      ///< 0 for "none" (DP self-seeds)
};

/// The seed strategies seed_prune_bound dispatches on: "sift" (default
/// everywhere), "window", "restarts", "anneal", and "none" (skip
/// seeding; the DP self-seeds from one ascending chain).
inline constexpr std::array<std::string_view, 5> kPruneSeeds = {
    "sift", "window", "restarts", "anneal", "none"};

/// True iff `name` is one of kPruneSeeds.
bool is_prune_seed(std::string_view name);

/// Runs the cheap strategy named `seed` (one of kPruneSeeds) through
/// `oracle` and returns the best order it found plus its exact size.  The
/// evaluations count into the shared oracle's stats.
PruneSeedResult seed_prune_bound(CostOracle& oracle, const std::string& seed,
                                 int max_passes, int restarts,
                                 std::uint64_t rng_seed,
                                 const EvalContext& ctx);

}  // namespace ovo::reorder
