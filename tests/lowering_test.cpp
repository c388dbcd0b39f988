// One scalar reference pins the word-parallel path.  Every input format
// lowers to tt::Circuit and one simulator tabulates it, 64 assignments per
// word.  This test keeps the per-assignment gate evaluation as the
// reference and checks random multi-output circuits for n = 0..12, on
// both sides of the 6-variable word boundary: tabulated directly, and
// rendered as formula, BLIF and PLA text, parsed and tabulated.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tt/blif.hpp"
#include "tt/circuit.hpp"
#include "tt/expr.hpp"
#include "tt/pla.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

/// The scalar reference: the value of every signal under one assignment
/// (bit i = input i), one gate at a time in topological order.
std::vector<bool> eval_signals(const Circuit& c, std::uint64_t assignment) {
  std::vector<bool> value(
      static_cast<std::size_t>(c.num_inputs() + c.num_gates()));
  for (int i = 0; i < c.num_inputs(); ++i)
    value[static_cast<std::size_t>(i)] = ((assignment >> i) & 1u) != 0;
  for (int g = 0; g < c.num_gates(); ++g) {
    const Gate& gate = c.gate(g);
    const bool a = gate.a >= 0 && value[static_cast<std::size_t>(gate.a)];
    const bool b = gate.b >= 0 && value[static_cast<std::size_t>(gate.b)];
    bool out = false;
    switch (gate.op) {
      case GateOp::kAnd:    out = a && b; break;
      case GateOp::kOr:     out = a || b; break;
      case GateOp::kXor:    out = a != b; break;
      case GateOp::kNand:   out = !(a && b); break;
      case GateOp::kNor:    out = !(a || b); break;
      case GateOp::kXnor:   out = a == b; break;
      case GateOp::kNot:    out = !a; break;
      case GateOp::kBuf:    out = a; break;
      case GateOp::kConst0: out = false; break;
      case GateOp::kConst1: out = true; break;
    }
    value[static_cast<std::size_t>(c.num_inputs() + g)] = out;
  }
  return value;
}

std::vector<TruthTable> reference_tables(const Circuit& c) {
  std::vector<TruthTable> t(c.outputs().size(), TruthTable(c.num_inputs()));
  for (std::uint64_t a = 0; a < t.front().size(); ++a) {
    const std::vector<bool> v = eval_signals(c, a);
    for (std::size_t o = 0; o < t.size(); ++o)
      t[o].set(a, v[static_cast<std::size_t>(c.outputs()[o])]);
  }
  return t;
}

/// About `gates` random gates of every kind over earlier signals (a
/// repeated NOT returns the shared gate), then `outputs` random signals.
Circuit random_circuit(int n, int gates, int outputs, util::Xoshiro256& rng) {
  Circuit c(n);
  const auto pick = [&] {
    return static_cast<int>(
        rng.below(static_cast<std::uint64_t>(n + c.num_gates())));
  };
  for (int g = 0; g < gates; ++g) {
    const auto op = static_cast<GateOp>(rng.below(10));
    if (op == GateOp::kConst0 || op == GateOp::kConst1 ||
        n + c.num_gates() == 0) {
      c.add_gate(rng.coin() ? GateOp::kConst1 : GateOp::kConst0);
    } else if (op == GateOp::kNot || op == GateOp::kBuf) {
      c.add_gate(op, pick());
    } else {
      const int a = pick();
      c.add_gate(op, a, pick());
    }
  }
  for (int o = 0; o < outputs; ++o) c.add_output(pick());
  return c;
}

std::string name_of(const Circuit& c, int s) {
  return s < c.num_inputs() ? "i" + std::to_string(s)
                            : "g" + std::to_string(s - c.num_inputs());
}

/// Output `s` as a formula in parse_expr's syntax (the DAG expanded into a
/// tree).
std::string formula(const Circuit& c, int s) {
  if (s < c.num_inputs()) return "x" + std::to_string(s + 1);
  const Gate& g = c.gate(s - c.num_inputs());
  const auto bin = [&](const char* neg, const char* op) {
    return std::string(neg) + "(" + formula(c, g.a) + op + formula(c, g.b) +
           ")";
  };
  switch (g.op) {
    case GateOp::kAnd:    return bin("", " & ");
    case GateOp::kOr:     return bin("", " | ");
    case GateOp::kXor:    return bin("", " ^ ");
    case GateOp::kNand:   return bin("!", " & ");
    case GateOp::kNor:    return bin("!", " | ");
    case GateOp::kXnor:   return bin("!", " ^ ");
    case GateOp::kNot:    return "!" + formula(c, g.a);
    case GateOp::kBuf:    return formula(c, g.a);
    case GateOp::kConst0: return "0";
    case GateOp::kConst1: return "1";
  }
  return "";
}

/// Length of formula(c, s) without building it.
std::uint64_t formula_length(const Circuit& c, int s) {
  if (s < c.num_inputs()) return 3;
  const Gate& g = c.gate(s - c.num_inputs());
  if (g.op == GateOp::kConst0 || g.op == GateOp::kConst1) return 1;
  if (g.op == GateOp::kNot || g.op == GateOp::kBuf)
    return 1 + formula_length(c, g.a);
  return 6 + formula_length(c, g.a) + formula_length(c, g.b);
}

/// The circuit as BLIF, one cover per gate, defined in reverse order.
std::string blif(const Circuit& c) {
  std::string text = ".model random\n.inputs";
  for (int i = 0; i < c.num_inputs(); ++i) text += " " + name_of(c, i);
  text += "\n.outputs";
  for (const int s : c.outputs()) text += " " + name_of(c, s);
  text += "\n";
  for (int k = c.num_gates() - 1; k >= 0; --k) {
    const Gate& g = c.gate(k);
    text += ".names";
    if (g.a >= 0) text += " " + name_of(c, g.a);
    if (g.b >= 0) text += " " + name_of(c, g.b);
    text += " " + name_of(c, c.num_inputs() + k) + "\n";
    switch (g.op) {
      case GateOp::kAnd:    text += "11 1\n"; break;
      case GateOp::kOr:     text += "1- 1\n-1 1\n"; break;
      case GateOp::kXor:    text += "01 1\n10 1\n"; break;
      case GateOp::kNand:   text += "11 0\n"; break;
      case GateOp::kNor:    text += "1- 0\n-1 0\n"; break;
      case GateOp::kXnor:   text += "00 1\n11 1\n"; break;
      case GateOp::kNot:    text += "0 1\n"; break;
      case GateOp::kBuf:    text += "1 1\n"; break;
      case GateOp::kConst0: break;
      case GateOp::kConst1: text += "1\n"; break;
    }
  }
  return text + ".end\n";
}

/// The tables as PLA text: one minterm cube per assignment where some
/// output is 1.
std::string pla(const std::vector<TruthTable>& t) {
  const int n = t.front().num_vars();
  std::string text = ".i " + std::to_string(n) + "\n.o " +
                     std::to_string(t.size()) + "\n";
  for (std::uint64_t a = 0; a < t.front().size(); ++a) {
    std::string cube, outs;
    for (int i = 0; i < n; ++i) cube += ((a >> i) & 1u) != 0 ? '1' : '0';
    for (const TruthTable& f : t) outs += f.get(a) ? '1' : '0';
    if (outs.find('1') != std::string::npos) text += cube + " " + outs + "\n";
  }
  return text + ".e\n";
}

/// Checks c's tables, directly and through every text format, against the
/// scalar reference.  Returns how many outputs went through a formula.
int check_all_paths(const Circuit& c) {
  const std::vector<TruthTable> want = reference_tables(c);
  EXPECT_EQ(c.to_truth_tables(), want) << "direct";
  int formulas = 0;
  for (std::size_t o = 0; o < want.size(); ++o) {
    const int s = c.outputs()[o];
    if (formula_length(c, s) > 20000) continue;
    const ExprPtr e = parse_expr(formula(c, s));
    EXPECT_EQ(expr_to_truth_table(*e, c.num_inputs()), want[o]) << "formula";
    ++formulas;
  }
  if (c.num_inputs() == 0) return formulas;  // BLIF and PLA need an input
  EXPECT_EQ(parse_blif(blif(c)).output_tables(), want) << "BLIF";
  EXPECT_EQ(parse_pla(pla(want)).output_tables(), want) << "PLA";
  return formulas;
}

TEST(Lowering, EveryFormatMatchesTheScalarReference) {
  util::Xoshiro256 rng(17);
  int formulas = 0;
  for (int n = 0; n <= 12; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" +
                   std::to_string(trial));
      const int gates = 1 + static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(3 * n + 12)));
      const int outputs = 1 + static_cast<int>(rng.below(4));
      formulas += check_all_paths(random_circuit(n, gates, outputs, rng));
    }
  }
  EXPECT_GE(formulas, 60);  // most outputs stay small enough to expand
}

// 12,000 gates at n = 12: a block holds kScratchWords / 12,012 = 10 of the
// 64 words, so the simulator runs 7 blocks.
TEST(Lowering, ManyBlocksMatchTheScalarReference) {
  util::Xoshiro256 rng(29);
  const Circuit c = random_circuit(12, 12000, 5, rng);
  const std::size_t signals =
      static_cast<std::size_t>(c.num_inputs() + c.num_gates());
  ASSERT_LT(Circuit::kScratchWords / signals,
            TruthTable::word_count(12) / 4);
  check_all_paths(c);
}

}  // namespace
}  // namespace ovo::tt
