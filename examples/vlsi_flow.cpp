// A complete EDA-style flow on a multi-output netlist: read a BLIF
// design, build its shared BDD, and compare every ordering method in the
// library — exact FS (shared), branch and bound, sifting, exact windows,
// simulated annealing — the workflow the paper's introduction describes
// for judging heuristics with theoretically sound methods.

#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "reorder/exact_window.hpp"
#include "tt/blif.hpp"
#include "util/rng.hpp"

namespace {

// A 4-bit ripple-carry adder netlist (9 inputs, 5 outputs) in BLIF.
const char* kAdderBlif = R"(.model rca4
.inputs a0 a1 a2 a3 b0 b1 b2 b3 cin
.outputs s0 s1 s2 s3 cout
.names a0 b0 x0
01 1
10 1
.names x0 cin s0
01 1
10 1
.names a0 b0 g0
11 1
.names x0 cin p0
11 1
.names g0 p0 c1
1- 1
-1 1
.names a1 b1 x1
01 1
10 1
.names x1 c1 s1
01 1
10 1
.names a1 b1 g1
11 1
.names x1 c1 p1
11 1
.names g1 p1 c2
1- 1
-1 1
.names a2 b2 x2
01 1
10 1
.names x2 c2 s2
01 1
10 1
.names a2 b2 g2
11 1
.names x2 c2 p2
11 1
.names g2 p2 c3
1- 1
-1 1
.names a3 b3 x3
01 1
10 1
.names x3 c3 s3
01 1
10 1
.names a3 b3 g3
11 1
.names x3 c3 p3
11 1
.names g3 p3 cout
1- 1
-1 1
.end
)";

}  // namespace

int main() {
  using namespace ovo;
  const tt::BlifModel design = tt::parse_blif(kAdderBlif);
  std::printf("design: %s — %zu inputs, %zu outputs\n", design.name.c_str(),
              design.inputs.size(), design.outputs.size());

  const std::vector<tt::TruthTable> outputs = design.output_tables();
  const int n = static_cast<int>(design.inputs.size());
  std::vector<int> id(static_cast<std::size_t>(n));
  std::iota(id.begin(), id.end(), 0);

  // Identity (declaration) order: blocked operands — bad for adders.
  const std::uint64_t identity = core::shared_size_for_order(outputs, id);
  std::printf("\nshared BDD, declaration order : %" PRIu64
              " internal nodes\n",
              identity);

  // Exact shared optimum (the headline algorithm, multi-output form).
  const auto exact = core::fs_minimize_shared(outputs);
  std::printf("shared BDD, exact optimum     : %" PRIu64
              " internal nodes, order:",
              exact.min_internal_nodes);
  for (const int v : exact.order_root_first)
    std::printf(" %s", design.inputs[static_cast<std::size_t>(v)].c_str());
  std::printf("\n  (%" PRIu64 " table cells processed — Theorem 5's "
              "O*(3^n) DP)\n",
              exact.ops.table_cells);

  // Single-output engines on the carry-out for comparison.
  const tt::TruthTable& cout_table = outputs.back();
  const auto fs = core::fs_minimize(cout_table);
  // Every reorder search sizes orders through one cost oracle per
  // function and diagram kind.
  reorder::CostOracle oracle(cout_table, core::DiagramKind::kBdd);
  const auto bnb = reorder::branch_and_bound_minimize(oracle);
  std::printf("\ncarry-out alone: FS %" PRIu64 " nodes; branch-and-bound %"
              PRIu64 " nodes (%" PRIu64 " states expanded)\n",
              fs.min_internal_nodes, bnb.internal_nodes,
              bnb.states_expanded);

  // Heuristics on the carry-out.
  util::Xoshiro256 rng(41);
  const auto sifted = reorder::sift(oracle, id);
  const auto windows = reorder::exact_window(oracle, id, 4);
  const auto annealed = reorder::simulated_annealing(
      oracle, id, reorder::AnnealOptions{}, rng);
  std::printf("heuristics on carry-out: sifting %" PRIu64
              ", exact-window(4) %" PRIu64 ", annealing %" PRIu64
              " (optimum %" PRIu64 ")\n",
              sifted.internal_nodes, windows.internal_nodes,
              annealed.internal_nodes, fs.min_internal_nodes);

  const bool ok = exact.min_internal_nodes <= identity &&
                  fs.min_internal_nodes == bnb.internal_nodes;
  std::printf("\n%s\n", ok ? "flow complete" : "INCONSISTENT RESULTS");
  return ok ? 0 : 1;
}
