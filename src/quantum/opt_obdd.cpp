#include "quantum/opt_obdd.hpp"

#include <algorithm>
#include <cmath>

#include "core/multi_output.hpp"
#include "util/check.hpp"

namespace ovo::quantum {

namespace {

using core::DiagramKind;
using core::OpCounter;
using core::PrefixTable;
using util::Mask;

/// A block extension subroutine: produce FS(<chain, J>) from FS(<chain>),
/// reporting the block's within-J order (bottom-up) — FS* for plain
/// OptOBDD, a nested OptOBDD* for towers (the paper's Gamma).
using Extender = std::function<PrefixTable(
    const PrefixTable& base, Mask J, std::vector<int>* block_order)>;

struct Partial {
  PrefixTable table;
  std::vector<int> order_bottom_up;
  /// Estimated quantum work (table cells) to produce this partial result:
  /// sqrt(N)-weighted candidate costs per the paper's recurrence.
  double quantum_cost = 0.0;
};

/// One OptOBDD*(k, alpha) instance over block J starting from `base`
/// (paper Appendix D, OptOBDD_Gamma). Boundaries are computed from |J|.
class OptObddInstance {
 public:
  OptObddInstance(DiagramKind kind, std::vector<int> boundaries,
                  MinimumFinder& finder, Extender extend, OpCounter& ops,
                  QuantumStats& stats, bool use_preprocess,
                  const par::ExecPolicy& exec)
      : kind_(kind),
        boundaries_(std::move(boundaries)),
        finder_(finder),
        extend_(std::move(extend)),
        ops_(ops),
        stats_(stats),
        use_preprocess_(use_preprocess),
        exec_(exec) {}

  Partial run(const PrefixTable& base, Mask J) {
    OVO_CHECK(!boundaries_.empty());
    base_ = &base;
    double preprocess_cost = 0.0;
    if (use_preprocess_) {
      // Preprocess (pseudocode line 4): FS* up to the first boundary. Its
      // cost is paid classically, once.
      const std::uint64_t pre_cells = ops_.table_cells;
      preprocess_ =
          core::fs_star(base, J, boundaries_.front(), kind_, &ops_, exec_);
      preprocess_cost = static_cast<double>(ops_.table_cells - pre_cells);
    }
    Partial top =
        divide_and_conquer(J, static_cast<int>(boundaries_.size()) + 1);
    top.quantum_cost += preprocess_cost;
    return top;
  }

 private:
  Partial divide_and_conquer(Mask L, int t) {
    if (t == 1) {
      Partial p;
      if (use_preprocess_) {
        p.table = preprocess_.tables.at(L).widen();
        p.order_bottom_up = core::reconstruct_block_order(preprocess_, L);
      } else {
        // gamma_0 regime: recompute FS of the leaf prefix on the fly; its
        // cost is incurred inside the quantum search.
        const std::uint64_t before = ops_.table_cells;
        p.table = core::fs_star_full(*base_, L, kind_, &ops_,
                                     &p.order_bottom_up, exec_);
        p.quantum_cost = static_cast<double>(ops_.table_cells - before);
      }
      return p;
    }
    const int target = boundaries_[static_cast<std::size_t>(t - 2)];
    // Enumerate candidate subsets K ⊆ L with |K| = target.
    const std::vector<int> l_vars = util::bits_of(L);
    std::vector<Mask> candidates;
    util::for_each_subset_of_size(static_cast<int>(l_vars.size()), target,
                                  [&](Mask dense) {
      Mask K = 0;
      util::for_each_bit(dense, [&](int b) {
        K |= Mask{1} << l_vars[static_cast<std::size_t>(b)];
      });
      candidates.push_back(K);
    });
    OVO_CHECK(!candidates.empty());

    // Evaluate MINCOST(<..., K, L\K>) for every candidate — the work a
    // quantum computer performs in superposition.
    std::vector<Partial> partials;
    partials.reserve(candidates.size());
    std::vector<std::int64_t> values;
    values.reserve(candidates.size());
    double candidate_cost_sum = 0.0;
    for (const Mask K : candidates) {
      Partial sub = divide_and_conquer(K, t - 1);
      std::vector<int> ext_order;
      const std::uint64_t ext_cells_before = ops_.table_cells;
      PrefixTable ext = extend_(sub.table, L & ~K, &ext_order);
      candidate_cost_sum +=
          sub.quantum_cost +
          static_cast<double>(ops_.table_cells - ext_cells_before);
      sub.table = std::move(ext);
      sub.order_bottom_up.insert(sub.order_bottom_up.end(),
                                 ext_order.begin(), ext_order.end());
      values.push_back(static_cast<std::int64_t>(sub.table.mincost()));
      partials.push_back(std::move(sub));
    }
    stats_.candidates_evaluated += candidates.size();

    const MinOutcome outcome = finder_.find_min(values);
    stats_.quantum_queries += outcome.quantum_queries;
    ++stats_.min_find_calls;
    if (outcome.failed) ++stats_.min_find_failures;
    Partial winner = std::move(partials[outcome.best_index]);
    // Paper recurrence L_{t} = sqrt(N) * (avg per-candidate cost): each
    // quantum query re-runs one candidate evaluation.
    winner.quantum_cost = outcome.quantum_queries *
                          (candidate_cost_sum /
                           static_cast<double>(candidates.size()));
    return winner;
  }

  DiagramKind kind_;
  std::vector<int> boundaries_;
  MinimumFinder& finder_;
  Extender extend_;
  OpCounter& ops_;
  QuantumStats& stats_;
  bool use_preprocess_;
  par::ExecPolicy exec_;
  const PrefixTable* base_ = nullptr;
  core::FsStarResult preprocess_;
};

/// Runs one OptOBDD* instance (fresh, since preprocess state is per block).
Partial run_instance(const PrefixTable& base, Mask J, DiagramKind kind,
                     const std::vector<double>& alphas,
                     MinimumFinder& finder, const Extender& extend,
                     OpCounter& ops, QuantumStats& stats,
                     bool use_preprocess = true,
                     const par::ExecPolicy& exec = {}) {
  const std::vector<int> boundaries =
      realize_boundaries(alphas, util::popcount(J));
  OptObddInstance inst(kind, boundaries, finder, extend, ops, stats,
                       use_preprocess, exec);
  return inst.run(base, J);
}

/// Adds a finished run's accounting to the caller's unified OracleStats
/// (each candidate evaluated in simulated superposition is one query
/// answered by one actual evaluation; the simulation's table cells are
/// the ops ledger; the finder's query counts go to the min_find mirror).
void mirror_oracle_stats(const OptObddResult& result,
                         reorder::OracleStats* os) {
  if (os == nullptr) return;
  os->queries += result.quantum.candidates_evaluated;
  os->evals += result.quantum.candidates_evaluated;
  os->ops += result.classical_ops;
  os->min_find_calls +=
      static_cast<std::uint64_t>(result.quantum.min_find_calls);
  os->min_find_queries += result.quantum.quantum_queries;
}

/// Plain OptOBDD over the n primary variables of `base`: the extension
/// subroutine is the deterministic FS*.  A shared multi-rooted base
/// keeps its selector variables in the free part of every prefix table.
OptObddResult minimize_from_base(const PrefixTable& base, int n,
                                 const OptObddOptions& options) {
  OVO_CHECK_MSG(options.finder != nullptr, "OptOBDD: finder required");
  OptObddResult result;
  result.boundaries = realize_boundaries(options.alphas, n);

  const Extender fs_extender = [&](const PrefixTable& b, Mask J,
                                   std::vector<int>* order) {
    return core::fs_star_full(b, J, options.kind, &result.classical_ops,
                              order, options.exec);
  };
  Partial top = run_instance(base, util::full_mask(n), options.kind,
                             options.alphas, *options.finder, fs_extender,
                             result.classical_ops, result.quantum,
                             options.use_preprocess, options.exec);
  result.min_internal_nodes = top.table.mincost();
  result.quantum.quantum_charged_cells = top.quantum_cost;
  result.order_root_first.assign(top.order_bottom_up.rbegin(),
                                 top.order_bottom_up.rend());
  mirror_oracle_stats(result, options.oracle_stats);
  return result;
}

}  // namespace

std::vector<int> realize_boundaries(const std::vector<double>& alphas,
                                    int block_size) {
  OVO_CHECK_MSG(!alphas.empty(), "OptOBDD: need at least one alpha");
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    OVO_CHECK_MSG(alphas[i] > 0.0 && alphas[i] < 1.0,
                  "OptOBDD: alphas must lie in (0,1)");
    if (i > 0)
      OVO_CHECK_MSG(alphas[i] >= alphas[i - 1],
                    "OptOBDD: alphas must be non-decreasing");
  }
  std::vector<int> out;
  out.reserve(alphas.size());
  int prev = 0;
  for (const double a : alphas) {
    int k = static_cast<int>(std::lround(a * block_size));
    k = std::clamp(k, prev, std::max(0, block_size - 1));
    out.push_back(k);
    prev = k;
  }
  return out;
}

OptObddResult opt_obdd_minimize(const tt::TruthTable& f,
                                const OptObddOptions& options) {
  return minimize_from_base(core::initial_table(f), f.num_vars(), options);
}

OptObddResult opt_obdd_minimize_shared(
    const std::vector<tt::TruthTable>& outputs,
    const OptObddOptions& options) {
  int n = 0;
  const PrefixTable base = core::shared_initial_table(outputs, &n);
  return minimize_from_base(base, n, options);
}

OptObddResult tower_minimize(const tt::TruthTable& f,
                             const TowerOptions& options) {
  OVO_CHECK_MSG(options.finder != nullptr, "tower: finder required");
  OVO_CHECK_MSG(!options.alpha_levels.empty(), "tower: need >= 1 level");
  OptObddResult result;
  result.boundaries =
      realize_boundaries(options.alpha_levels.back(), f.num_vars());

  const PrefixTable base = core::initial_table(f);
  const Mask all = util::full_mask(f.num_vars());

  // Gamma_0 = FS*; Gamma_{i+1} = OptOBDD*_{Gamma_i}(alpha_levels[i]).
  Extender gamma = [&](const PrefixTable& b, Mask J,
                       std::vector<int>* order) {
    return core::fs_star_full(b, J, options.kind, &result.classical_ops,
                              order, options.exec);
  };
  for (std::size_t lvl = 0; lvl + 1 < options.alpha_levels.size(); ++lvl) {
    const std::vector<double>& alphas = options.alpha_levels[lvl];
    const Extender inner = gamma;
    gamma = [&, alphas, inner](const PrefixTable& b, Mask J,
                               std::vector<int>* order) {
      if (util::popcount(J) <= 1) {
        // Degenerate block: divide-and-conquer adds nothing; extend
        // directly with the inner subroutine.
        return inner(b, J, order);
      }
      Partial p = run_instance(b, J, options.kind, alphas, *options.finder,
                               inner, result.classical_ops, result.quantum,
                               /*use_preprocess=*/true, options.exec);
      if (order != nullptr) *order = p.order_bottom_up;
      return std::move(p.table);
    };
  }

  Partial top = run_instance(base, all, options.kind,
                             options.alpha_levels.back(), *options.finder,
                             gamma, result.classical_ops, result.quantum,
                             /*use_preprocess=*/true, options.exec);
  result.min_internal_nodes = top.table.mincost();
  // Tower accounting note: nested instances contribute their *classical*
  // simulation cost to the extension measurements, so this is an upper
  // bound on the charged quantum work.
  result.quantum.quantum_charged_cells = top.quantum_cost;
  result.order_root_first.assign(top.order_bottom_up.rbegin(),
                                 top.order_bottom_up.rend());
  return result;
}

}  // namespace ovo::quantum
