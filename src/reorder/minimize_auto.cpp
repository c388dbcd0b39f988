#include "reorder/minimize_auto.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/fs_star.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/oracle.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {

bool is_prune_seed(std::string_view name) {
  return std::find(kPruneSeeds.begin(), kPruneSeeds.end(), name) !=
         kPruneSeeds.end();
}

PruneSeedResult seed_prune_bound(CostOracle& oracle, const std::string& seed,
                                 int max_passes, int restarts,
                                 std::uint64_t rng_seed,
                                 const EvalContext& ctx) {
  OVO_CHECK_MSG(is_prune_seed(seed),
                "seed_prune_bound: unknown seed strategy");
  PruneSeedResult out;
  if (seed == "none") return out;
  std::vector<int> identity(static_cast<std::size_t>(oracle.base().n));
  std::iota(identity.begin(), identity.end(), 0);
  if (seed == "anneal") {
    util::Xoshiro256 rng(rng_seed);
    const AnnealResult a =
        simulated_annealing(oracle, identity, AnnealOptions{}, rng, ctx);
    out.order_root_first = a.order_root_first;
    out.upper_bound = a.internal_nodes;
    return out;
  }
  OrderSearchResult r;
  if (seed == "sift") {
    r = sift(oracle, identity, max_passes, ctx);
  } else if (seed == "window") {
    r = window_permute(oracle, identity, /*window=*/3, max_passes, ctx);
  } else {  // "restarts"
    util::Xoshiro256 rng(rng_seed);
    r = random_restart(oracle, restarts, rng, ctx);
  }
  out.order_root_first = r.order_root_first;
  out.upper_bound = r.internal_nodes;
  return out;
}

rt::Result<AutoMinimizeResult> minimize_auto(
    const tt::TruthTable& f, const rt::Budget& budget,
    const AutoMinimizeOptions& options) {
  rt::Governor gov(budget);
  return minimize_auto(f, gov, options);
}

rt::Result<AutoMinimizeResult> minimize_auto(
    const tt::TruthTable& f, rt::Governor& gov,
    const AutoMinimizeOptions& options) {
  const int n = f.num_vars();
  OVO_CHECK_MSG(n >= 1, "minimize_auto: need >= 1 variable");
  OVO_CHECK_MSG(options.kind != core::DiagramKind::kMtbdd,
                "minimize_auto: value tables not supported here");

  rt::Result<AutoMinimizeResult> out;
  AutoMinimizeResult& v = out.value;

  // One oracle for the whole ladder: its TABLE_{emptyset} feeds the DP,
  // and every stage counts into its ledger.
  CostOracle oracle(f, options.kind);
  EvalContext ctx;
  ctx.exec = options.exec;
  ctx.gov = &gov;

  // Stage 0 (pruned mode only): seed the DP's pruning incumbent by
  // running the configured cheap heuristic through the shared governed
  // oracle.  Its order is also a salvage candidate.  A resumed run
  // skips the stage entirely: the snapshot carries the seed order and
  // the effective incumbent (and the governor is credited the original
  // run's charges inside fs_star), so the replay stays bit-identical.
  //
  // A seed stage the governor cut short leaves a partial incumbent that
  // the uninterrupted run never has, so a snapshot of the DP that follows
  // would resume into a different ledger: such a run writes none.
  PruneSeedResult seeded;
  bool seed_cut = false;
  const core::FsStarSnapshot* resume = options.ckpt.resume;
  if (resume != nullptr) {
    seeded.order_root_first = resume->seed_order;
    seeded.upper_bound =
        resume->counters.get(obs::Metric::kFsPruneUpperBound);
  } else if (options.exec.prune == par::PruneMode::kBounds) {
    seeded = seed_prune_bound(oracle, options.prune_seed,
                              options.sift_max_passes, kLadderRestarts,
                              kLadderSeed, ctx);
    seed_cut = gov.outcome() != rt::Outcome::kComplete;
  }

  // Snapshots written from here carry the seed provenance (the DP writes
  // the seed order it is handed), so a future resume can skip stage 0 yet
  // hand the DP the same order.  A resumed writing run propagates the
  // original provenance.
  core::FsCheckpointOptions ckpt = options.ckpt;
  if (resume != nullptr) {
    ckpt.rng_seed = resume->rng_seed;
    ckpt.seed_name = resume->seed_name;
    ckpt.seed_counters = resume->seed_counters;
  } else if (options.exec.prune == par::PruneMode::kBounds) {
    ckpt.rng_seed = kLadderSeed;
    ckpt.seed_name = options.prune_seed;
    oracle.stats().to_ledger(ckpt.seed_counters);
  }

  // The skipped seed stage's counters still belong in the reported
  // ledger: with them restored, a resumed run's pinned totals equal the
  // uninterrupted run's.
  const auto restore_seed_ledger = [&](OracleStats* st) {
    if (resume == nullptr) return;
    OracleStats seed;
    seed.from_ledger(resume->seed_counters);
    *st += seed;
  };

  // Stage 1: the exact DP, layer-admitted against the budget.  Handed
  // the seed's order, a pruned DP stops at the first fence whose
  // certified bound meets the seed's size.
  const util::Mask all = util::full_mask(n);
  core::FsStarResult dp =
      core::fs_star(oracle.base(), all, n, options.kind, &v.ops,
                    options.exec, &gov, seeded.upper_bound,
                    ckpt.active() && !seed_cut ? &ckpt : nullptr,
                    &seeded.order_root_first);
  v.dp_layers_completed = dp.completed_layers;
  for (const util::Mask c : dp.classes)
    if (util::popcount(c) > 1) v.sym_classes.push_back(c);

  // A proven order: the DP's own when it completed, else the seed's when
  // the certified bound met the seed's size.  Neither salvage nor a
  // heuristic stage can beat it.
  const auto prove = [&](std::vector<int> order, std::uint64_t size,
                         rt::Outcome outcome) {
    v.order_root_first = std::move(order);
    v.internal_nodes = size;
    v.lower_bound = size;
    v.optimal = true;
    v.oracle = oracle.stats();
    restore_seed_ledger(&v.oracle);
    out.outcome = outcome;
    out.stats = gov.stats();
  };
  if (dp.completed_layers == n) {
    const std::vector<int> bottom_up = core::reconstruct_block_order(dp, all);
    prove({bottom_up.rbegin(), bottom_up.rend()},
          dp.tables.at(all).mincost(), rt::Outcome::kComplete);
    return out;
  }
  // The outcome of a proof stop stays the governor's: complete, unless
  // the seed stage was cut short.
  if (!seeded.order_root_first.empty() &&
      dp.certified_lower_bound == seeded.upper_bound) {
    prove(seeded.order_root_first, seeded.upper_bound, gov.outcome());
    return out;
  }

  // Stage 2: salvage the deepest completed layer.  The cheapest subset
  // (ties to the numerically smallest mask, for determinism) seeds the
  // fallback, and its cost over the layer is a proven lower bound: any
  // complete order's bottom block of this size costs at least this much.
  // The layer holds canonical states only, but every orbit's smallest
  // mask is its canonical state and the orbit shares one cost, so the
  // pick is the one a layer of every subset would give.  In pruned mode
  // the layer holds *surviving* states only, but the bound stands — the
  // optimal order's bottom-k state always survives with its true cost —
  // and the DP's certified completion-aware bound can only tighten it.
  util::Mask seed_mask = 0;
  std::uint64_t seed_cost = ~std::uint64_t{0};
  std::uint64_t layer_min = ~std::uint64_t{0};
  for (const auto& [mask, table] : dp.tables) {
    const std::uint64_t cost = table.mincost();
    layer_min = std::min(layer_min, cost);
    if (cost < seed_cost || (cost == seed_cost && mask < seed_mask)) {
      seed_cost = cost;
      seed_mask = mask;
    }
  }
  v.lower_bound = std::max(layer_min, dp.certified_lower_bound);

  std::vector<int> bottom_up =
      dp.completed_layers > 0
          ? core::reconstruct_block_order(dp, seed_mask)
          : std::vector<int>{};
  // Greedy completion is cheap next to the DP, O(n^2 · |cells|), and is
  // not charged against the budget: it is the fixed cost of
  // guaranteeing *some* valid answer.
  core::PrefixTable table = dp.tables.at(seed_mask).widen();
  core::greedy_complete(table, options.kind, &bottom_up, &v.ops);
  v.order_root_first.assign(bottom_up.rbegin(), bottom_up.rend());
  v.internal_nodes = table.mincost();

  // The prune-seed order is itself a salvage candidate: a tripped pruned
  // run should never return worse than the heuristic that seeded it.
  if (!seeded.order_root_first.empty() &&
      seeded.upper_bound < v.internal_nodes) {
    v.order_root_first = seeded.order_root_first;
    v.internal_nodes = seeded.upper_bound;
  }

  // Stages 3–4 run only while the certified bound leaves room: once the
  // size found meets it, no order can be smaller.
  // Stage 3: sifting from the salvaged order, on the remaining budget.
  if (v.lower_bound < v.internal_nodes) {
    const OrderSearchResult sifted =
        sift(oracle, v.order_root_first, options.sift_max_passes, ctx);
    if (sifted.internal_nodes < v.internal_nodes) {
      v.order_root_first = sifted.order_root_first;
      v.internal_nodes = sifted.internal_nodes;
    }
  }

  // Stage 4: random restarts with whatever is left.
  if (v.lower_bound < v.internal_nodes && !gov.stopped()) {
    util::Xoshiro256 rng(kLadderSeed);
    const OrderSearchResult rr =
        random_restart(oracle, kLadderRestarts, rng, ctx);
    if (rr.internal_nodes < v.internal_nodes) {
      v.order_root_first = rr.order_root_first;
      v.internal_nodes = rr.internal_nodes;
    }
  }

  // A certified lower bound that meets the size found proves that size
  // optimal, whatever stopped the run; the outcome still says what did.
  v.optimal = v.lower_bound == v.internal_nodes;
  v.oracle = oracle.stats();
  restore_seed_ledger(&v.oracle);
  out.outcome = gov.outcome();
  out.stats = gov.stats();
  return out;
}

}  // namespace ovo::reorder
