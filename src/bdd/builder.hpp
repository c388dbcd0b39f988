#pragma once
// Apply-based BDD construction from the gate list every input format
// lowers to (tt::Circuit: expressions, DNF/CNF, PLA and BLIF alike), by
// symbolic simulation with ITE and without materializing a 2^n truth
// table.  This is how BDD packages are used in practice for functions
// with many variables; the truth-table path (Manager::from_truth_table)
// remains the reference for cross-checks and for the ordering DP, which
// is inherently exponential anyway.

#include <vector>

#include "bdd/manager.hpp"
#include "tt/circuit.hpp"

namespace ovo::bdd {

/// Builds one BDD per circuit output, in output order (shared node pool):
/// one BDD per signal, gates in topological order.
std::vector<NodeId> build_from_circuit(Manager& m, const tt::Circuit& ckt);

}  // namespace ovo::bdd
