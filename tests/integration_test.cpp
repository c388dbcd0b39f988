// End-to-end flows: every Corollary 2 input representation -> tabulation ->
// exact minimization -> rebuild & verify, plus cross-module consistency.

#include <gtest/gtest.h>

#include <numeric>

#include "bdd/manager.hpp"
#include "core/minimize.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "reorder/baselines.hpp"
#include "tt/circuit.hpp"
#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "tt/normal_forms.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace ovo {
namespace {

// Pipeline helper: minimize a truth table and verify the result end to end.
void check_minimize_pipeline(const tt::TruthTable& t) {
  const core::MinimizeResult r = core::fs_minimize(t);
  ASSERT_TRUE(util::is_permutation(r.order_root_first));
  bdd::Manager m(t.num_vars(), r.order_root_first);
  const bdd::NodeId root = m.from_truth_table(t);
  EXPECT_EQ(m.size(root), r.min_internal_nodes);
  EXPECT_EQ(m.to_truth_table(root), t);
}

TEST(Integration, FromExpression) {
  const tt::ExprPtr e =
      tt::parse_expr("(x1 & x2) | (x3 & x4) | (x5 & x6)");
  const tt::TruthTable t = tt::expr_to_truth_table(*e, 6);
  const core::MinimizeResult r = core::fs_minimize(t);
  EXPECT_EQ(r.min_internal_nodes, 6u);  // Fig. 1
  check_minimize_pipeline(t);
}

TEST(Integration, FromDnf) {
  util::Xoshiro256 rng(1);
  const tt::Dnf d = tt::random_dnf(6, 6, 2, rng);
  check_minimize_pipeline(d.to_truth_table());
}

TEST(Integration, FromCnf) {
  util::Xoshiro256 rng(2);
  const tt::Cnf c = tt::random_cnf(6, 6, 3, rng);
  check_minimize_pipeline(c.to_truth_table());
}

TEST(Integration, FromCircuit) {
  const tt::Circuit ckt = tt::Circuit::ripple_carry_out(3);
  const tt::TruthTable t = ckt.to_truth_table();
  check_minimize_pipeline(t);
  // The carry function's blocked-operand ordering is poor; the optimum
  // should beat or match the identity ordering.
  std::vector<int> id(6);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_LE(core::fs_minimize(t).min_internal_nodes,
            core::diagram_size_for_order(t, id));
}

TEST(Integration, FromExistingObddRepresentation) {
  // Corollary 2 with R(f) = an OBDD under a *bad* ordering: rebuild the
  // truth table by evaluating the BDD, then find the optimal ordering.
  const tt::TruthTable t = tt::pair_sum(3);
  bdd::Manager bad(6, tt::pair_sum_interleaved_order(3));
  const bdd::NodeId bad_root = bad.from_truth_table(t);
  EXPECT_EQ(bad.size(bad_root), 14u);
  // Tabulate from the OBDD (the paper's O*(2^n) preparation).
  const tt::TruthTable recovered = bad.to_truth_table(bad_root);
  const core::MinimizeResult r = core::fs_minimize(recovered);
  EXPECT_EQ(r.min_internal_nodes, 6u);
}

TEST(Integration, AllEnginesAgreeOnOptimum) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    const std::uint64_t fs = core::fs_minimize(t).min_internal_nodes;
    reorder::CostOracle oracle(t, core::DiagramKind::kBdd);
    const std::uint64_t bf =
        reorder::brute_force_minimize(oracle).internal_nodes;
    quantum::AccountingMinimumFinder finder(6.0);
    quantum::OptObddOptions opt;
    opt.alphas = {0.27};
    opt.finder = &finder;
    const std::uint64_t q =
        quantum::opt_obdd_minimize(t, opt).min_internal_nodes;
    EXPECT_EQ(fs, bf);
    EXPECT_EQ(fs, q);
  }
}

TEST(Integration, ZddAndBddMinimaRelateSanely) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const tt::TruthTable t = tt::random_function(5, rng);
    const auto b = core::fs_minimize(t, core::DiagramKind::kBdd);
    const auto z = core::fs_minimize(t, core::DiagramKind::kZdd);
    // Both orders must reproduce f through their managers.
    bdd::Manager bm(5, b.order_root_first);
    EXPECT_EQ(bm.to_truth_table(bm.from_truth_table(t)), t);
    zdd::Manager zm(5, z.order_root_first);
    EXPECT_EQ(zm.to_truth_table(zm.from_truth_table(t)), t);
  }
}

TEST(Integration, MtbddPipeline) {
  // A 2-bit adder as a multi-valued function: f(a) = u + v over 4 vars.
  const int n = 4;
  std::vector<std::int64_t> values(16);
  for (std::uint64_t a = 0; a < 16; ++a)
    values[a] = static_cast<std::int64_t>((a & 3u) + ((a >> 2) & 3u));
  const core::MinimizeResult r = core::fs_minimize_mtbdd(values, n);
  EXPECT_TRUE(util::is_permutation(r.order_root_first));
  EXPECT_EQ(core::diagram_size_for_order_values(values, n,
                                                r.order_root_first),
            r.min_internal_nodes);
}

TEST(Integration, EquivalenceCheckingViaCanonicity) {
  // Two structurally different implementations of the same function have
  // identical BDD roots in one manager (the classic verification flow).
  const tt::Circuit impl1 = tt::Circuit::ripple_carry_out(3);
  const tt::TruthTable spec = tt::adder_carry(6);
  // impl1 uses blocked operands; the spec zoo function uses interleaved
  // ones. Re-map: blocked var i must read the role of interleaved var 2i
  // (u_i) and blocked var 3+i that of 2i+1 (v_i), i.e. perm[i] = 2i,
  // perm[3+i] = 2i+1 in permute_inputs's convention.
  const tt::TruthTable spec_blocked =
      spec.permute_inputs({0, 2, 4, 1, 3, 5});
  bdd::Manager m(6);
  EXPECT_EQ(m.from_truth_table(impl1.to_truth_table()),
            m.from_truth_table(spec_blocked));
}

TEST(Integration, OrderingQualityReportAcrossMethods) {
  // For a structured function, exact <= sifting <= worst; all consistent.
  const tt::TruthTable t = tt::indirect_storage_access(7);
  const std::uint64_t opt = core::fs_minimize(t).min_internal_nodes;
  std::vector<int> id(7);
  std::iota(id.begin(), id.end(), 0);
  reorder::CostOracle oracle(t, core::DiagramKind::kBdd);
  const auto sifted = reorder::sift(oracle, id);
  EXPECT_LE(opt, sifted.internal_nodes);
  util::Xoshiro256 rng(3);
  const auto rnd = reorder::random_restart(oracle, 20, rng);
  EXPECT_LE(opt, rnd.internal_nodes);
}

}  // namespace
}  // namespace ovo
