#include "bdd/builder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ovo::bdd {

std::vector<NodeId> build_from_circuit(Manager& m, const tt::Circuit& ckt) {
  OVO_CHECK_MSG(ckt.num_inputs() <= m.num_vars(),
                "build_from_circuit: manager has too few variables");
  std::vector<NodeId> signal(
      static_cast<std::size_t>(ckt.num_inputs() + ckt.num_gates()));
  for (int i = 0; i < ckt.num_inputs(); ++i)
    signal[static_cast<std::size_t>(i)] = m.var_node(i);
  for (int g = 0; g < ckt.num_gates(); ++g) {
    // A missing fanin reads signal 0; its gate ignores it.
    const tt::Gate& gate = ckt.gate(g);
    const NodeId a = signal[static_cast<std::size_t>(std::max(gate.a, 0))];
    const NodeId b = signal[static_cast<std::size_t>(std::max(gate.b, 0))];
    NodeId out = kFalse;
    switch (gate.op) {
      case tt::GateOp::kAnd:    out = m.apply_and(a, b); break;
      case tt::GateOp::kOr:     out = m.apply_or(a, b); break;
      case tt::GateOp::kXor:    out = m.apply_xor(a, b); break;
      case tt::GateOp::kNand:   out = m.apply_not(m.apply_and(a, b)); break;
      case tt::GateOp::kNor:    out = m.apply_not(m.apply_or(a, b)); break;
      case tt::GateOp::kXnor:   out = m.apply_xnor(a, b); break;
      case tt::GateOp::kNot:    out = m.apply_not(a); break;
      case tt::GateOp::kBuf:    out = a; break;
      case tt::GateOp::kConst0: out = kFalse; break;
      case tt::GateOp::kConst1: out = kTrue; break;
    }
    signal[static_cast<std::size_t>(ckt.num_inputs() + g)] = out;
  }
  std::vector<NodeId> roots;
  roots.reserve(ckt.outputs().size());
  for (const int s : ckt.outputs())
    roots.push_back(signal[static_cast<std::size_t>(s)]);
  return roots;
}

}  // namespace ovo::bdd
