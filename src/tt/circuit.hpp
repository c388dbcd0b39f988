#pragma once
// Gate-level combinational circuits (netlists): the one gate list every
// input format lowers to (Corollary 2).  Signals are numbered
// 0..num_inputs-1 for primary inputs, then one id per gate in topological
// order.  One word-parallel simulator tabulates every output, and
// bdd::build_from_circuit builds their BDDs.

#include <cstddef>
#include <vector>

#include "tt/truth_table.hpp"

namespace ovo::tt {

enum class GateOp {
  kAnd, kOr, kXor, kNand, kNor, kXnor, kNot, kBuf, kConst0, kConst1
};

struct Gate {
  GateOp op = GateOp::kAnd;
  int a = -1;  ///< first fanin signal id (-1 for constants)
  int b = -1;  ///< second fanin signal id (-1 for kNot/kBuf and constants)
};

/// A multi-output combinational circuit.
class Circuit {
 public:
  /// Simulation scratch budget in 64-bit words (1 MiB).  A block covers
  /// max(1, kScratchWords / signals) words of every signal at once.
  static constexpr std::size_t kScratchWords = (std::size_t{1} << 20) / 8;

  explicit Circuit(int num_inputs);

  int num_inputs() const { return num_inputs_; }
  int num_gates() const { return static_cast<int>(gates_.size()); }

  /// Gate feeding signal id `num_inputs() + index`.
  const Gate& gate(int index) const {
    OVO_CHECK(index >= 0 && index < num_gates());
    return gates_[static_cast<std::size_t>(index)];
  }

  /// Adds a gate; fanins must reference existing signals. Returns the new
  /// signal id. A negated signal gets one NOT gate, which every later kNot
  /// of it returns.
  int add_gate(GateOp op, int a = -1, int b = -1);

  /// `signal` itself, or its NOT gate.
  int literal(int signal, bool positive) {
    return positive ? signal : add_gate(GateOp::kNot, signal);
  }

  /// The AND (op kAnd) or OR (op kOr) of `signals`, as a chain of
  /// two-input gates: a constant when empty, the signal itself when one.
  int add_nary(GateOp op, const std::vector<int>& signals);

  /// Appends an output signal.
  void add_output(int signal);
  const std::vector<int>& outputs() const { return outputs_; }

  /// O*(2^n) tabulation of every output in one pass, 64 assignments per
  /// word (Corollary 2).
  std::vector<TruthTable> to_truth_tables() const;

  /// The table of a single-output circuit.
  TruthTable to_truth_table() const;

  /// Factory: (half n)-bit ripple-carry adder carry-out, blocked operands.
  static Circuit ripple_carry_out(int operand_bits);

  /// Factory: equality comparator u == v on operand_bits-bit operands.
  static Circuit comparator_eq(int operand_bits);

 private:
  int num_inputs_;
  std::vector<Gate> gates_;
  std::vector<int> outputs_;
  std::vector<int> negation_;  ///< per signal: its NOT gate, or -1
};

}  // namespace ovo::tt
