#pragma once
// Berkeley PLA (espresso) format reader/writer — the interchange format
// real two-level EDA tools speak, and a realistic source of multi-output
// functions for ordering experiments.
//
// Supported subset: `.i N`, `.o M`, `.p P` (optional), `.ilb`/`.ob`
// (names, stored verbatim), `.e`/`.end`, comment lines (`#`), and product
// lines of the form `<input-cube> <output-part>` where the input cube is
// over {0, 1, -} and the output part over {0, 1, ~, -} (1 = in ON-set;
// everything else treated as "not in ON-set" — we materialize the ON-set
// semantics of espresso's default type fr as: output bit is 1 iff some
// product with a '1' in that column covers the input).

#include <string>
#include <vector>

#include "tt/circuit.hpp"
#include "tt/truth_table.hpp"

namespace ovo::tt {

struct Pla {
  int num_inputs = 0;
  int num_outputs = 0;
  std::vector<std::string> input_names;   ///< empty if not given
  std::vector<std::string> output_names;  ///< empty if not given
  /// cubes[p] = input cube of product p, characters in {'0','1','-'}.
  std::vector<std::string> cubes;
  /// outputs[p][o] = true iff product p asserts output o.
  std::vector<std::vector<bool>> outputs;

  /// Lowers every output to one circuit: one AND per cube (the cube's
  /// leftmost character is input 0), one OR of its cubes per output.
  Circuit to_circuit() const;

  /// ON-set truth table of one output.
  TruthTable output_table(int output) const;

  /// All output tables.
  std::vector<TruthTable> output_tables() const {
    return to_circuit().to_truth_tables();
  }
};

/// Parses PLA text. Throws util::CheckError with a line-numbered message
/// on malformed input.
Pla parse_pla(const std::string& text);

/// Serializes back to PLA text (canonical ordering of the header).
std::string to_pla(const Pla& pla);

}  // namespace ovo::tt
