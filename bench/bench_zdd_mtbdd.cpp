// Remark 2 / Appendix D claim: the two-line modification gives a minimum
// ZDD (and the value-table variant a minimum MTBDD) at the same
// complexity.  We verify exact ZDD/MTBDD minima against brute force on
// sparse families and multi-valued functions, and show the ZDD advantage
// on sparse inputs that motivates Minato's variant.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "core/minimize.hpp"
#include "reorder/baselines.hpp"
#include "tt/function_zoo.hpp"
#include "util/rng.hpp"

int main() {
  using namespace ovo;
  util::Xoshiro256 rng(31);

  std::printf("ZDD / MTBDD exact minimization (Remark 2, Appendix D)\n\n");
  std::printf("sparse families, n = 8 (sizes are internal nodes):\n");
  std::printf("%8s %12s %12s %12s %12s\n", "ones", "ZDD opt", "BDD opt",
              "ZDD natural", "advantage");
  bool zdd_wins_overall = false;
  for (const std::uint64_t ones : {2ull, 4ull, 8ull, 16ull, 32ull}) {
    const tt::TruthTable t = tt::random_sparse_function(8, ones, rng);
    const auto z = core::fs_minimize(t, core::DiagramKind::kZdd);
    const auto b = core::fs_minimize(t, core::DiagramKind::kBdd);
    std::vector<int> id(8);
    std::iota(id.begin(), id.end(), 0);
    const std::uint64_t z_nat =
        core::diagram_size_for_order(t, id, core::DiagramKind::kZdd);
    zdd_wins_overall |= z.min_internal_nodes < b.min_internal_nodes;
    std::printf("%8" PRIu64 " %12" PRIu64 " %12" PRIu64 " %12" PRIu64
                " %11.2fx\n",
                ones, z.min_internal_nodes, b.min_internal_nodes, z_nat,
                static_cast<double>(b.min_internal_nodes) /
                    std::max<std::uint64_t>(1, z.min_internal_nodes));
  }

  // Exactness check against brute force on small instances.
  std::printf("\nexactness vs brute force (n = 6, 10 random sparse "
              "functions):\n");
  bool zdd_exact = true;
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_sparse_function(6, 5, rng);
    const auto z = core::fs_minimize(t, core::DiagramKind::kZdd);
    reorder::CostOracle oracle(t, core::DiagramKind::kZdd);
    const auto bf = reorder::brute_force_minimize(oracle);
    zdd_exact &= z.min_internal_nodes == bf.internal_nodes;
  }
  std::printf("  ZDD FS == ZDD brute force on all trials: %s\n",
              zdd_exact ? "yes" : "NO");

  bool mtbdd_exact = true;
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 5;
    std::vector<std::int64_t> values(32);
    for (auto& v : values) v = static_cast<std::int64_t>(rng.below(3));
    const auto fs = core::fs_minimize_mtbdd(values, n);
    std::uint64_t best = ~std::uint64_t{0};
    std::vector<int> order{0, 1, 2, 3, 4};
    do {
      best = std::min(
          best, core::diagram_size_for_order_values(values, n, order));
    } while (std::next_permutation(order.begin(), order.end()));
    mtbdd_exact &= fs.min_internal_nodes == best;
  }
  std::printf("  MTBDD FS == MTBDD brute force on all trials: %s\n",
              mtbdd_exact ? "yes" : "NO");

  const bool ok = zdd_exact && mtbdd_exact && zdd_wins_overall;
  std::printf("\nresult: %s\n",
              ok ? "ZDD/MTBDD minimization exact; ZDD advantage on sparse "
                   "inputs confirmed"
                 : "MISMATCH in ZDD/MTBDD reproduction");
  return ok ? 0 : 1;
}
