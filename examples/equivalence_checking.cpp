// Formal verification workload (the paper's VLSI-design motivation):
// check that a gate-level adder implementation matches its behavioral
// specification via canonical OBDDs, then demonstrate counterexample
// extraction on a buggy variant — all under an *optimized* variable
// ordering, which is what keeps the diagrams small.

#include <cinttypes>
#include <cstdio>

#include "bdd/manager.hpp"
#include "core/minimize.hpp"
#include "tt/circuit.hpp"
#include "tt/truth_table.hpp"

int main() {
  using namespace ovo;
  constexpr int kBits = 4;  // 4-bit adder => 8 input variables
  const int n = 2 * kBits;

  // Implementation: gate-level ripple-carry carry-out.
  const tt::Circuit impl = tt::Circuit::ripple_carry_out(kBits);
  // Specification: behavioral description evaluated directly.
  const tt::TruthTable spec = tt::TruthTable::tabulate(n, [](std::uint64_t a) {
    const std::uint64_t u = a & 0xF;
    const std::uint64_t v = (a >> kBits) & 0xF;
    return ((u + v) >> kBits) & 1u;
  });

  // Find a good ordering for the spec, then build both sides in ONE
  // manager: canonicity makes equivalence a pointer comparison.
  const core::MinimizeResult order = core::fs_minimize(spec);
  std::printf("optimal order found, minimum OBDD has %" PRIu64
              " internal nodes\n",
              order.min_internal_nodes);
  bdd::Manager m(n, order.order_root_first);
  const bdd::NodeId spec_root = m.from_truth_table(spec);
  const bdd::NodeId impl_root = m.from_truth_table(impl.to_truth_table());
  std::printf("spec == impl: %s (root ids %u vs %u)\n",
              spec_root == impl_root ? "EQUIVALENT" : "DIFFERENT", spec_root,
              impl_root);

  // Bug injection: swap an AND for an OR inside a fresh ripple circuit.
  tt::Circuit buggy(n);
  int carry = -1;
  for (int i = 0; i < kBits; ++i) {
    const int u = i;
    const int v = kBits + i;
    if (carry < 0) {
      carry = buggy.add_gate(tt::GateOp::kOr, u, v);  // BUG: should be AND
    } else {
      const int uv = buggy.add_gate(tt::GateOp::kAnd, u, v);
      const int uxv = buggy.add_gate(tt::GateOp::kXor, u, v);
      const int prop = buggy.add_gate(tt::GateOp::kAnd, uxv, carry);
      carry = buggy.add_gate(tt::GateOp::kOr, uv, prop);
    }
  }
  buggy.add_output(carry);

  const bdd::NodeId buggy_root = m.from_truth_table(buggy.to_truth_table());
  std::printf("spec == buggy impl: %s\n",
              spec_root == buggy_root ? "EQUIVALENT" : "DIFFERENT");

  // Counterexample: any satisfying assignment of spec XOR buggy.
  const bdd::NodeId diff = m.apply_xor(spec_root, buggy_root);
  std::uint64_t cex = 0;
  if (m.find_sat_assignment(diff, &cex)) {
    const std::uint64_t u = cex & 0xF;
    const std::uint64_t v = (cex >> kBits) & 0xF;
    std::printf("counterexample: u=%" PRIu64 " v=%" PRIu64
                "  spec carry=%d  buggy carry=%d\n",
                u, v, static_cast<int>(((u + v) >> kBits) & 1u),
                m.eval(buggy_root, cex) ? 1 : 0);
  }
  std::printf("diagrams share one node pool: %zu nodes total\n",
              m.pool_size());
  return spec_root == impl_root && spec_root != buggy_root ? 0 : 1;
}
