#include "tt/circuit.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ovo::tt {

namespace {

/// Word w of input `var`'s table: a fixed pattern for var < 6, all ones or
/// all zeros above.
std::uint64_t input_word(int var, std::size_t w) {
  static constexpr std::uint64_t kPattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  if (var < 6) return kPattern[var];
  return ((w >> (var - 6)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
}

/// One word of a gate's output from one word of each fanin.
std::uint64_t gate_word(GateOp op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case GateOp::kAnd:    return a & b;
    case GateOp::kOr:     return a | b;
    case GateOp::kXor:    return a ^ b;
    case GateOp::kNand:   return ~(a & b);
    case GateOp::kNor:    return ~(a | b);
    case GateOp::kXnor:   return ~(a ^ b);
    case GateOp::kNot:    return ~a;
    case GateOp::kBuf:    return a;
    case GateOp::kConst0: return 0;
    case GateOp::kConst1: return ~std::uint64_t{0};
  }
  return 0;
}

}  // namespace

Circuit::Circuit(int num_inputs) : num_inputs_(num_inputs) {
  OVO_CHECK(num_inputs >= 0 && num_inputs <= TruthTable::kMaxVars);
  negation_.assign(static_cast<std::size_t>(num_inputs), -1);
}

int Circuit::add_gate(GateOp op, int a, int b) {
  const int limit = num_inputs_ + num_gates();
  const bool nullary = op == GateOp::kConst0 || op == GateOp::kConst1;
  const bool unary = op == GateOp::kNot || op == GateOp::kBuf;
  OVO_CHECK_MSG(nullary ? a == -1 : a >= 0 && a < limit,
                "add_gate: bad fanin a");
  OVO_CHECK_MSG(nullary || unary ? b == -1 : b >= 0 && b < limit,
                "add_gate: bad fanin b");
  if (op == GateOp::kNot && negation_[a] >= 0) return negation_[a];
  gates_.push_back(Gate{op, a, b});
  negation_.push_back(-1);
  if (op == GateOp::kNot) negation_[a] = limit;
  return limit;
}

int Circuit::add_nary(GateOp op, const std::vector<int>& signals) {
  OVO_CHECK_MSG(op == GateOp::kAnd || op == GateOp::kOr,
                "add_nary: AND or OR only");
  if (signals.empty())
    return add_gate(op == GateOp::kAnd ? GateOp::kConst1 : GateOp::kConst0);
  int acc = signals[0];
  for (std::size_t i = 1; i < signals.size(); ++i)
    acc = add_gate(op, acc, signals[i]);
  return acc;
}

void Circuit::add_output(int signal) {
  OVO_CHECK(signal >= 0 && signal < num_inputs_ + num_gates());
  outputs_.push_back(signal);
}

std::vector<TruthTable> Circuit::to_truth_tables() const {
  if (outputs_.empty()) return {};
  const std::size_t words = TruthTable::word_count(num_inputs_);
  const std::size_t block =
      std::clamp<std::size_t>(kScratchWords / negation_.size(), 1, words);
  std::vector<std::uint64_t> scratch(negation_.size() * block);
  const auto row = [&](int signal) {
    return scratch.data() + static_cast<std::size_t>(signal) * block;
  };
  std::vector<std::vector<std::uint64_t>> tables(
      outputs_.size(), std::vector<std::uint64_t>(words));
  for (std::size_t w0 = 0; w0 < words; w0 += block) {
    const std::size_t len = std::min(block, words - w0);
    for (int i = 0; i < num_inputs_; ++i)
      for (std::size_t j = 0; j < len; ++j) row(i)[j] = input_word(i, w0 + j);
    for (std::size_t g = 0; g < gates_.size(); ++g) {
      // A missing fanin reads row 0; gate_word ignores it.
      const Gate& gate = gates_[g];
      const std::uint64_t* a = row(std::max(gate.a, 0));
      const std::uint64_t* b = row(std::max(gate.b, 0));
      std::uint64_t* out = row(num_inputs_ + static_cast<int>(g));
      for (std::size_t j = 0; j < len; ++j)
        out[j] = gate_word(gate.op, a[j], b[j]);
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o)
      std::copy_n(row(outputs_[o]), len, tables[o].data() + w0);
  }
  std::vector<TruthTable> out;
  out.reserve(tables.size());
  for (std::vector<std::uint64_t>& w : tables)
    out.push_back(TruthTable::from_words(num_inputs_, std::move(w)));
  return out;
}

TruthTable Circuit::to_truth_table() const {
  std::vector<TruthTable> tables = to_truth_tables();
  OVO_CHECK_MSG(tables.size() == 1, "Circuit: not a single-output circuit");
  return std::move(tables[0]);
}

Circuit Circuit::ripple_carry_out(int operand_bits) {
  OVO_CHECK(operand_bits >= 1);
  // Inputs: u_0..u_{k-1} at signals 0..k-1, v bits at k..2k-1.
  Circuit c(2 * operand_bits);
  int carry = -1;
  for (int i = 0; i < operand_bits; ++i) {
    const int u = i;
    const int v = operand_bits + i;
    if (carry < 0) {
      carry = c.add_gate(GateOp::kAnd, u, v);
    } else {
      const int uv = c.add_gate(GateOp::kAnd, u, v);
      const int uxv = c.add_gate(GateOp::kXor, u, v);
      const int prop = c.add_gate(GateOp::kAnd, uxv, carry);
      carry = c.add_gate(GateOp::kOr, uv, prop);
    }
  }
  c.add_output(carry);
  return c;
}

Circuit Circuit::comparator_eq(int operand_bits) {
  OVO_CHECK(operand_bits >= 1);
  Circuit c(2 * operand_bits);
  int acc = -1;
  for (int i = 0; i < operand_bits; ++i) {
    const int eq = c.add_gate(GateOp::kXnor, i, operand_bits + i);
    acc = acc < 0 ? eq : c.add_gate(GateOp::kAnd, acc, eq);
  }
  c.add_output(acc);
  return c;
}

}  // namespace ovo::tt
