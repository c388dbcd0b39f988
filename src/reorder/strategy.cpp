#include "reorder/strategy.hpp"

#include <numeric>

#include "bdd/dynamic_reorder.hpp"
#include "bdd/manager.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "reorder/exact_window.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {

namespace {

std::vector<int> identity_order(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Stamps the governed outcome/accounting and the trivial optimality
/// certificate; every strategy (except the ladder, which has its own
/// partial-DP bound) ends here.
void finish(StrategyResult* r, const EvalContext& ctx) {
  if (r->optimal) r->lower_bound = r->internal_nodes;
  if (ctx.gov != nullptr) {
    r->outcome = ctx.gov->outcome();
    r->run = ctx.gov->stats();
  }
}

/// `fs` and `auto`: the exact DP on the governed ladder, so every exact
/// run seeds, snapshots, honours its budget and degrades in one way.
StrategyResult run_ladder(const tt::TruthTable& f, const StrategyOptions& o,
                          const EvalContext& ctx) {
  AutoMinimizeOptions ao;
  ao.kind = o.kind;
  ao.sift_max_passes = o.max_passes;
  ao.prune_seed = o.prune_seed;
  ao.exec = ctx.exec;
  ao.ckpt = o.ckpt;
  const rt::Result<AutoMinimizeResult> res =
      ctx.gov != nullptr ? minimize_auto(f, *ctx.gov, ao)
                         : minimize_auto(f, rt::Budget{}, ao);
  StrategyResult r;
  r.order_root_first = res.value.order_root_first;
  r.internal_nodes = res.value.internal_nodes;
  r.optimal = res.value.optimal;
  r.lower_bound = res.value.lower_bound;
  r.outcome = res.outcome;
  r.oracle = res.value.oracle;
  r.oracle.ops += res.value.ops;  // DP + salvage work joins the ledger
  r.sym_classes = res.value.sym_classes;
  r.run = res.stats;
  return r;
}

StrategyResult run_bnb(const tt::TruthTable& f, const StrategyOptions& o,
                       const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  const BnbResult b =
      branch_and_bound_minimize(oracle, ~std::uint64_t{0}, ctx);
  StrategyResult r;
  r.order_root_first = b.order_root_first;
  r.internal_nodes = b.internal_nodes;
  r.optimal = b.complete;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_brute(const tt::TruthTable& f, const StrategyOptions& o,
                         const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  const OrderSearchResult b = brute_force_minimize(oracle, ctx);
  StrategyResult r;
  r.order_root_first = b.order_root_first;
  r.internal_nodes = b.internal_nodes;
  r.optimal = true;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_sift(const tt::TruthTable& f, const StrategyOptions& o,
                        const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  const OrderSearchResult s =
      sift(oracle, identity_order(f.num_vars()), o.max_passes, ctx);
  StrategyResult r;
  r.order_root_first = s.order_root_first;
  r.internal_nodes = s.internal_nodes;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_window(const tt::TruthTable& f, const StrategyOptions& o,
                          const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  const OrderSearchResult s = window_permute(
      oracle, identity_order(f.num_vars()), o.window, o.max_passes, ctx);
  StrategyResult r;
  r.order_root_first = s.order_root_first;
  r.internal_nodes = s.internal_nodes;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_exact_window(const tt::TruthTable& f,
                                const StrategyOptions& o,
                                const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  const ExactWindowResult s = exact_window(
      oracle, identity_order(f.num_vars()), o.window, o.max_passes, ctx);
  StrategyResult r;
  r.order_root_first = s.order_root_first;
  r.internal_nodes = s.internal_nodes;
  r.oracle = oracle.stats();
  r.oracle.ops += s.ops;  // window DP/compaction work joins the ledger
  finish(&r, ctx);
  return r;
}

StrategyResult run_anneal(const tt::TruthTable& f, const StrategyOptions& o,
                          const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  util::Xoshiro256 rng(o.seed);
  const AnnealResult s = simulated_annealing(
      oracle, identity_order(f.num_vars()), AnnealOptions{}, rng, ctx);
  StrategyResult r;
  r.order_root_first = s.order_root_first;
  r.internal_nodes = s.internal_nodes;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_restarts(const tt::TruthTable& f,
                            const StrategyOptions& o,
                            const EvalContext& ctx) {
  CostOracle oracle(f, o.kind);
  util::Xoshiro256 rng(o.seed);
  const OrderSearchResult s = random_restart(oracle, o.restarts, rng, ctx);
  StrategyResult r;
  r.order_root_first = s.order_root_first;
  r.internal_nodes = s.internal_nodes;
  r.oracle = oracle.stats();
  finish(&r, ctx);
  return r;
}

StrategyResult run_dynamic(const tt::TruthTable& f,
                           const StrategyOptions& o,
                           const EvalContext& ctx) {
  OVO_CHECK_MSG(o.kind == core::DiagramKind::kBdd,
                "strategy dynamic: only BDDs have a live-DAG manager");
  bdd::Manager m(f.num_vars());
  const bdd::NodeId root = m.from_truth_table(f);
  StrategyResult r;
  EvalContext inner = ctx;
  inner.stats = &r.oracle;
  const bdd::SiftResult s =
      bdd::sift_in_place(m, {root}, o.max_passes, inner);
  r.order_root_first = m.order();
  r.internal_nodes = s.final_nodes;
  finish(&r, ctx);
  return r;
}

StrategyResult run_quantum(const tt::TruthTable& f,
                           const StrategyOptions& o,
                           const EvalContext& ctx) {
  quantum::AccountingMinimumFinder finder(
      static_cast<double>(f.num_vars()));
  StrategyResult r;
  quantum::OptObddOptions qo;
  qo.kind = o.kind;
  qo.alphas = o.alphas;
  qo.finder = &finder;
  qo.exec = ctx.exec;
  qo.oracle_stats = &r.oracle;
  const quantum::OptObddResult res = quantum::opt_obdd_minimize(f, qo);
  r.order_root_first = res.order_root_first;
  r.internal_nodes = res.min_internal_nodes;
  // The accounting finder returns the exact argmin unless failure
  // injection fired, so a failure-free run's order is FS-optimal.
  r.optimal = res.quantum.min_find_failures == 0;
  finish(&r, ctx);
  return r;
}

}  // namespace

const std::vector<Strategy>& strategies() {
  static const std::vector<Strategy> kStrategies = {
      {"fs", "exact Friedman-Supowit DP over symmetry orbits, auto ladder",
       run_ladder},
      {"auto", "governed FS ladder: exact DP, salvage, sift, restarts",
       run_ladder},
      {"bnb", "exact branch-and-bound prefix search with pruning", run_bnb},
      {"brute", "exhaustive sweep over all n! orders (n <= 10)", run_brute},
      {"sift", "Rudell sifting from the identity order", run_sift},
      {"window", "sliding window permutation heuristic", run_window},
      {"exact-window", "windowed exact FS* blocks to a fixpoint",
       run_exact_window},
      {"anneal", "simulated annealing over random transpositions",
       run_anneal},
      {"restarts", "best of N uniformly random orders", run_restarts},
      {"dynamic", "in-place Rudell sifting on the live shared DAG",
       run_dynamic},
      {"quantum", "simulated OptOBDD divide-and-conquer (Theorem 10)",
       run_quantum},
  };
  return kStrategies;
}

const Strategy* find_strategy(const std::string& name) {
  for (const Strategy& s : strategies())
    if (name == s.name) return &s;
  return nullptr;
}

}  // namespace ovo::reorder
