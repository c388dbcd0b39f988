// The paper's Sec. 1.1 motivation for exact methods: "to judge the
// optimization quality of heuristics" [MT98, Sec 9.2.2].  This ablation
// compares sifting, window permutation, and random restarts against the
// exact FS optimum and the pessimal ordering on structured and random
// functions.

#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "core/minimize.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/exact_window.hpp"
#include "tt/function_zoo.hpp"
#include "util/rng.hpp"

int main() {
  using namespace ovo;
  util::Xoshiro256 rng(12);

  struct Case {
    const char* name;
    tt::TruthTable t;
  };
  std::vector<Case> cases;
  cases.push_back({"pair_sum(4)", tt::pair_sum(4)});
  cases.push_back({"hwb(8)", tt::hidden_weighted_bit(8)});
  cases.push_back({"mult_mid(8)", tt::multiplier_middle_bit(8)});
  cases.push_back({"adder_carry(8)", tt::adder_carry(8)});
  cases.push_back({"isa(8)", tt::indirect_storage_access(8)});
  cases.push_back({"random(8)", tt::random_function(8, rng)});
  cases.push_back({"read_once(8)", tt::random_read_once(8, rng)});

  std::printf("Heuristic quality vs exact optimum (internal nodes)\n\n");
  std::printf("%-16s %8s %8s %8s %8s %8s %8s %8s %8s\n", "function",
              "exact", "sift", "window3", "exwin4", "anneal", "random20",
              "identity", "worst*");
  std::printf("  (*worst = pessimal order found by brute force, n <= 8)\n");

  bool heuristics_sound = true;
  for (const Case& c : cases) {
    const int n = c.t.num_vars();
    const std::uint64_t exact =
        core::fs_minimize(c.t).min_internal_nodes;
    std::vector<int> id(static_cast<std::size_t>(n));
    std::iota(id.begin(), id.end(), 0);
    // One oracle serves every search; each sizes its candidates from a
    // prefix chain of its own, so sharing the oracle changes no result.
    reorder::CostOracle oracle(c.t, core::DiagramKind::kBdd);
    const std::uint64_t s = reorder::sift(oracle, id).internal_nodes;
    const std::uint64_t w =
        reorder::window_permute(oracle, id, 3).internal_nodes;
    const std::uint64_t ew =
        reorder::exact_window(oracle, id, 4).internal_nodes;
    const std::uint64_t sa =
        reorder::simulated_annealing(oracle, id, reorder::AnnealOptions{},
                                     rng)
            .internal_nodes;
    const std::uint64_t r =
        reorder::random_restart(oracle, 20, rng).internal_nodes;
    const std::uint64_t ident = core::diagram_size_for_order(c.t, id);
    const std::uint64_t worst =
        reorder::brute_force_minimize(oracle).worst_internal_nodes;
    heuristics_sound &= s >= exact && w >= exact && r >= exact &&
                        ew >= exact && sa >= exact;
    std::printf("%-16s %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 "\n",
                c.name, exact, s, w, ew, sa, r, ident, worst);
  }
  std::printf("\nresult: %s\n",
              heuristics_sound
                  ? "no heuristic beat the exact optimum (sound); gaps "
                    "show why exact methods matter"
                  : "MISMATCH: heuristic reported below exact optimum");
  return heuristics_sound ? 0 : 1;
}
