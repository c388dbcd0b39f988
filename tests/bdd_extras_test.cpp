// Tests for the apply-based builders, BDD query algorithms, and
// serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bdd/algorithms.hpp"
#include "bdd/builder.hpp"
#include "bdd/serialize.hpp"
#include "rt/checkpoint.hpp"
#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "tt/normal_forms.hpp"
#include "tt/pla.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::bdd {
namespace {

TEST(Builder, ExprMatchesTabulation) {
  const char* formulas[] = {
      "x1 & x2 | x3 & x4",
      "(x1 ^ x2) & !(x3 | x4)",
      "x1 | 1",
      "!x1 & !x2 & !x3",
      "x1 ^ x2 ^ x3 ^ x4 ^ x5",
  };
  for (const char* s : formulas) {
    const tt::ExprPtr e = tt::parse_expr(s);
    const int n = std::max(1, tt::expr_num_vars(*e));
    Manager m(n);
    const NodeId built = build_from_circuit(m, tt::expr_to_circuit(*e, n))[0];
    const NodeId reference =
        m.from_truth_table(tt::expr_to_truth_table(*e, n));
    EXPECT_EQ(built, reference) << s;  // canonicity: identical ids
  }
}

TEST(Builder, DnfCnfMatchTabulation) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::Dnf d = tt::random_dnf(6, 5, 3, rng);
    const tt::Cnf c = tt::random_cnf(6, 5, 3, rng);
    Manager m(6);
    EXPECT_EQ(build_from_circuit(m, d.to_circuit())[0],
              m.from_truth_table(d.to_truth_table()));
    EXPECT_EQ(build_from_circuit(m, c.to_circuit())[0],
              m.from_truth_table(c.to_truth_table()));
  }
}

TEST(Builder, CircuitSymbolicSimulation) {
  const tt::Circuit ckt = tt::Circuit::ripple_carry_out(4);
  Manager m(8);
  EXPECT_EQ(build_from_circuit(m, ckt),
            std::vector<NodeId>{m.from_truth_table(ckt.to_truth_table())});
}

TEST(Builder, CircuitAllGateOps) {
  for (const tt::GateOp op :
       {tt::GateOp::kAnd, tt::GateOp::kOr, tt::GateOp::kXor,
        tt::GateOp::kNand, tt::GateOp::kNor, tt::GateOp::kXnor}) {
    tt::Circuit ckt(2);
    ckt.add_output(ckt.add_gate(op, 0, 1));
    Manager m(2);
    EXPECT_EQ(build_from_circuit(m, ckt),
              std::vector<NodeId>{m.from_truth_table(ckt.to_truth_table())});
  }
  tt::Circuit inv(1);
  inv.add_output(inv.add_gate(tt::GateOp::kNot, 0));
  inv.add_output(inv.add_gate(tt::GateOp::kBuf, 0));
  inv.add_output(inv.add_gate(tt::GateOp::kConst0));
  inv.add_output(inv.add_gate(tt::GateOp::kConst1));
  Manager m1(1);
  EXPECT_EQ(build_from_circuit(m1, inv),
            (std::vector<NodeId>{m1.literal(0, false), m1.var_node(0), kFalse,
                                 kTrue}));
}

TEST(Builder, PlaMultiOutput) {
  const tt::Pla p = tt::parse_pla(
      ".i 3\n.o 2\n11- 10\n--1 01\n111 11\n.e\n");
  Manager m(3);
  const std::vector<NodeId> roots = build_from_circuit(m, p.to_circuit());
  ASSERT_EQ(roots.size(), 2u);
  for (int o = 0; o < 2; ++o)
    EXPECT_EQ(m.to_truth_table(roots[static_cast<std::size_t>(o)]),
              p.output_table(o));
}

TEST(Builder, BuilderScalesPastTruthTableLimit) {
  // 40-variable conjunction: impossible as a truth table, trivial via apply.
  const int n = 40;
  Manager m(n);
  NodeId acc = kTrue;
  for (int v = 0; v < n; ++v) acc = m.apply_and(acc, m.var_node(v));
  EXPECT_EQ(m.size(acc), static_cast<std::uint64_t>(n));
  EXPECT_TRUE(m.eval(acc, util::full_mask(n)));
  EXPECT_FALSE(m.eval(acc, util::full_mask(n) ^ 1u));
}

// --- algorithms --------------------------------------------------------------

TEST(Algorithms, AllModelsMatchesTruthTable) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    Manager m(6);
    const NodeId f = m.from_truth_table(t);
    const auto models = all_models(m, f);
    std::set<std::uint64_t> expected;
    for (std::uint64_t a = 0; a < 64; ++a)
      if (t.get(a)) expected.insert(a);
    EXPECT_EQ(std::set<std::uint64_t>(models.begin(), models.end()),
              expected);
    // Ascending order.
    for (std::size_t i = 1; i < models.size(); ++i)
      EXPECT_LT(models[i - 1], models[i]);
  }
}

TEST(Algorithms, AllModelsHandlesFreeVariables) {
  Manager m(4);
  const NodeId f = m.var_node(2);  // 8 models
  EXPECT_EQ(all_models(m, f).size(), 8u);
  EXPECT_EQ(all_models(m, kTrue).size(), 16u);
  EXPECT_TRUE(all_models(m, kFalse).empty());
}

TEST(Algorithms, AllModelsLimitGuard) {
  Manager m(10);
  EXPECT_THROW(all_models(m, kTrue, 100), util::CheckError);
}

TEST(Algorithms, ForEachModelEarlyStop) {
  Manager m(4);
  int seen = 0;
  const std::uint64_t visited =
      for_each_model(m, kTrue, [&](std::uint64_t) { return ++seen < 5; });
  EXPECT_EQ(visited, 5u);
}

TEST(Algorithms, SampleModelIsUniformish) {
  util::Xoshiro256 rng(7);
  const tt::TruthTable t = tt::threshold(5, 4);  // 6 models
  Manager m(5);
  const NodeId f = m.from_truth_table(t);
  std::unordered_map<std::uint64_t, int> histo;
  const int shots = 6000;
  for (int i = 0; i < shots; ++i) {
    const auto s = sample_model(m, f, rng);
    ASSERT_TRUE(s.has_value());
    ASSERT_TRUE(t.get(*s));
    ++histo[*s];
  }
  EXPECT_EQ(histo.size(), 6u);
  for (const auto& [model, count] : histo)
    EXPECT_NEAR(count, shots / 6.0, shots * 0.05) << model;
  EXPECT_FALSE(sample_model(m, kFalse, rng).has_value());
}

TEST(Algorithms, MinWeightModel) {
  // f = (x0 | x1) & (x2 | x3), weights favor x1 and x3.
  Manager m(4);
  const NodeId f =
      m.apply_and(m.apply_or(m.var_node(0), m.var_node(1)),
                  m.apply_or(m.var_node(2), m.var_node(3)));
  const auto best = min_weight_model(m, f, {5.0, 1.0, 4.0, 2.0});
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->weight, 3.0);  // x1 + x3
  EXPECT_EQ(best->assignment, 0b1010u);
  EXPECT_TRUE(m.eval(f, best->assignment));
}

TEST(Algorithms, MinWeightModelNegativeWeights) {
  // Free variables with negative weight should be switched on.
  Manager m(3);
  const NodeId f = m.var_node(1);
  const auto best = min_weight_model(m, f, {-2.0, 3.0, -1.0});
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->weight, 0.0);  // -2 + 3 + -1
  EXPECT_EQ(best->assignment, 0b111u);
  EXPECT_FALSE(min_weight_model(m, kFalse, {0, 0, 0}).has_value());
}

TEST(Algorithms, MinWeightModelBruteForceSweep) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(5, rng);
    if (t.count_ones() == 0) continue;
    std::vector<double> w(5);
    for (auto& x : w)
      x = static_cast<double>(rng.below(21)) - 10.0;
    Manager m(5);
    const auto best = min_weight_model(m, m.from_truth_table(t), w);
    ASSERT_TRUE(best.has_value());
    double expect = 1e18;
    for (std::uint64_t a = 0; a < 32; ++a) {
      if (!t.get(a)) continue;
      double s = 0;
      for (int v = 0; v < 5; ++v)
        if ((a >> v) & 1u) s += w[static_cast<std::size_t>(v)];
      expect = std::min(expect, s);
    }
    EXPECT_DOUBLE_EQ(best->weight, expect);
  }
}

TEST(Algorithms, Density) {
  Manager m(6);
  EXPECT_DOUBLE_EQ(density(m, kTrue), 1.0);
  EXPECT_DOUBLE_EQ(density(m, kFalse), 0.0);
  EXPECT_DOUBLE_EQ(density(m, m.var_node(3)), 0.5);
  const NodeId f = m.from_truth_table(tt::pair_sum(3));
  EXPECT_NEAR(density(m, f), 37.0 / 64.0, 1e-12);
}

TEST(Algorithms, ShortestCube) {
  // pair_sum: the shortest cube forcing true has 2 literals (one pair).
  Manager m(6);
  const NodeId f = m.from_truth_table(tt::pair_sum(3));
  const auto cube = shortest_cube(m, f);
  ASSERT_TRUE(cube.has_value());
  EXPECT_EQ(cube->literals(), 2);
  // Every completion of the cube satisfies f.
  for (std::uint64_t rest = 0; rest < 64; ++rest) {
    const std::uint64_t a = (rest & ~cube->care) | cube->values;
    EXPECT_TRUE(m.eval(f, a));
  }
  EXPECT_FALSE(shortest_cube(m, kFalse).has_value());
  EXPECT_EQ(shortest_cube(m, kTrue)->literals(), 0);
}

// --- serialization -----------------------------------------------------------

TEST(Serialize, RoundtripPreservesFunction) {
  util::Xoshiro256 rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    std::vector<int> order{3, 1, 5, 0, 4, 2};
    Manager m(6, order);
    const NodeId f = m.from_truth_table(t);
    const std::string text = save_bdd(m, f);
    LoadedBdd loaded = load_bdd(text);
    EXPECT_EQ(loaded.manager.order(), order);
    EXPECT_EQ(loaded.manager.to_truth_table(loaded.root), t);
    EXPECT_EQ(loaded.manager.size(loaded.root), m.size(f));
    // Second round-trip is byte-identical (canonical numbering).
    EXPECT_EQ(save_bdd(loaded.manager, loaded.root), text);
  }
}

TEST(Serialize, Terminals) {
  Manager m(3);
  LoadedBdd t = load_bdd(save_bdd(m, kTrue));
  EXPECT_EQ(t.root, kTrue);
  LoadedBdd f = load_bdd(save_bdd(m, kFalse));
  EXPECT_EQ(f.root, kFalse);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(load_bdd(""), rt::CheckpointError);
  EXPECT_THROW(load_bdd("ovo-bdd 2\nn 1\n"), rt::CheckpointError);
  EXPECT_THROW(load_bdd("ovo-bdd 1\nn 2\norder 0 1\nnodes 1\n2 0 9 1\n"
                        "root 2\n"),
               rt::CheckpointError);
  EXPECT_THROW(load_bdd("ovo-bdd 1\nn 2\norder 0 1\nnodes 0\nroot 7\n"),
               rt::CheckpointError);
}

}  // namespace
}  // namespace ovo::bdd
