// Cross-engine comparison of the exact ordering methods in this
// repository: the FS dynamic program (the paper's algorithm), the
// bound-pruned sparse FS* variant (sift-seeded incumbent), and branch
// and bound with admissible bounds — plus the stochastic baselines.
// All must agree on the optimum; the interesting columns are the work
// counters, and for the pruned DP the fraction of the subset lattice it
// never materializes.
//
// --json <path> writes the per-case rows as a JSON array, atomically
// (temp file + fsync + rename), so an interrupted bench never leaves a
// torn artifact.  Every column is a count, the same on every run; time
// belongs to the repo benchmark (perfbench/).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "rt/checkpoint.hpp"
#include "tt/function_zoo.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace ovo;
  util::Xoshiro256 rng(2025);

  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  std::string json = "[\n";

  struct Case {
    const char* name;
    tt::TruthTable t;
  };
  std::vector<Case> cases;
  cases.push_back({"pair_sum(5), n=10", tt::pair_sum(5)});
  cases.push_back({"hwb(10)", tt::hidden_weighted_bit(10)});
  cases.push_back({"adder_carry(10)", tt::adder_carry(10)});
  cases.push_back({"mult_mid(10)", tt::multiplier_middle_bit(10)});
  cases.push_back({"random(10)", tt::random_function(10, rng)});

  std::printf("Exact-engine agreement and work (n = 10)\n\n");
  std::printf("%-20s %8s | %12s | %12s %8s | %12s %10s\n", "function",
              "opt", "FS cells", "FS* cells", "prune%", "BnB states",
              "pruned");

  // The pruned FS* runs share the B&B warm start: one sift pass seeds
  // both incumbents, so the two pruning columns are an apples-to-apples
  // read on the same upper bound.
  par::ExecPolicy pruned_exec;
  pruned_exec.prune = par::PruneMode::kBounds;

  bool agree = true;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    const core::MinimizeResult fs = core::fs_minimize(c.t);

    // Warm-start B&B and the pruned DP with sifting.
    std::vector<int> id(static_cast<std::size_t>(c.t.num_vars()));
    std::iota(id.begin(), id.end(), 0);
    reorder::CostOracle oracle(c.t, core::DiagramKind::kBdd);
    const std::uint64_t incumbent = reorder::sift(oracle, id).internal_nodes;

    const core::MinimizeResult fsp = core::fs_minimize(
        c.t, core::DiagramKind::kBdd, pruned_exec, incumbent);
    const reorder::BnbResult bnb =
        reorder::branch_and_bound_minimize(oracle, incumbent);

    agree &= fs.min_internal_nodes == bnb.internal_nodes &&
             fsp.min_internal_nodes == fs.min_internal_nodes &&
             fsp.order_root_first == fs.order_root_first;
    std::printf("%-20s %8" PRIu64 " | %12" PRIu64 " | %12" PRIu64
                " %7.2f%% | %12" PRIu64 " %10" PRIu64 "\n",
                c.name, fs.min_internal_nodes, fs.ops.table_cells,
                fsp.ops.prune.sparse_cells,
                100.0 * fsp.ops.prune.prune_ratio(), bnb.states_expanded,
                bnb.states_pruned_bound + bnb.states_pruned_dominance);
    char row[512];
    std::snprintf(row, sizeof row,
                  "  {\"function\": \"%s\", \"optimum\": %" PRIu64
                  ", \"fs_cells\": %" PRIu64
                  ", \"fs_star_sparse_cells\": %" PRIu64
                  ", \"prune_ratio\": %.4f, \"bnb_states\": %" PRIu64
                  ", \"bnb_pruned\": %" PRIu64 "}%s\n",
                  c.name, fs.min_internal_nodes, fs.ops.table_cells,
                  fsp.ops.prune.sparse_cells, fsp.ops.prune.prune_ratio(),
                  bnb.states_expanded,
                  bnb.states_pruned_bound + bnb.states_pruned_dominance,
                  ci + 1 < cases.size() ? "," : "");
    json += row;
  }
  json += "]\n";
  if (!json_path.empty()) {
    try {
      rt::write_file_atomic(json_path, json.data(), json.size());
    } catch (const rt::CheckpointError& e) {
      std::fprintf(stderr, "cannot write '%s': %s\n", json_path.c_str(),
                   e.what());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf("\nstochastic baselines on hwb(10) (optimum above):\n");
  const tt::TruthTable& hwb = cases[1].t;
  std::vector<int> id(10);
  std::iota(id.begin(), id.end(), 0);
  reorder::CostOracle oracle(hwb, core::DiagramKind::kBdd);
  const auto sa = reorder::simulated_annealing(oracle, id,
                                               reorder::AnnealOptions{}, rng);
  const auto rr = reorder::random_restart(oracle, 50, rng);
  std::printf("  annealing: %" PRIu64 " nodes (%" PRIu64
              " evals), random-restart(50): %" PRIu64 " nodes\n",
              sa.internal_nodes, sa.orders_evaluated, rr.internal_nodes);

  std::printf("\nresult: %s\n",
              agree ? "FS, bound-pruned FS*, and branch-and-bound agree "
                      "on every optimum"
                    : "MISMATCH between exact engines");
  return agree ? 0 : 1;
}
