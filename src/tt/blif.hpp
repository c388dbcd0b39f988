#pragma once
// BLIF (Berkeley Logic Interchange Format) reader — the standard format
// for multi-level logic benchmarks (MCNC/ISCAS nets).  Supported subset:
// `.model`, `.inputs`, `.outputs`, `.names` single-output covers with
// {0,1,-} input plane and a uniform {0,1} output column, constants
// (`.names f` with a `1` row or no rows), comments (`#`), line
// continuation (`\`), `.end`.  Latches and subcircuits are rejected.

#include <string>
#include <vector>

#include "tt/circuit.hpp"
#include "tt/truth_table.hpp"

namespace ovo::tt {

struct BlifModel {
  std::string name;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  /// The cones of `outputs`, compiled from the `.names` covers by
  /// parse_blif: one circuit output per primary output, in .outputs order.
  Circuit circuit{0};

  /// All primary-output tables, in .outputs order.
  std::vector<TruthTable> output_tables() const {
    return circuit.to_truth_tables();
  }
};

/// Parses BLIF text and compiles the cones of the primary outputs.
/// Throws tt::ParseError with a line number on malformed input, more than
/// TruthTable::kMaxVars inputs, or an undefined or cyclic signal that a
/// cube in a cone tests (named at its `.names` or `.outputs` line).
/// Signals outside every cone, and fanins whose every column is '-', are
/// never resolved.
BlifModel parse_blif(const std::string& text);

}  // namespace ovo::tt
