#pragma once
// A zoo of benchmark Boolean functions with known ordering behaviour,
// including the paper's running example (Fig. 1) and classic
// ordering-sensitive functions from the OBDD literature.

#include <cstdint>

#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace ovo::tt {

/// The paper's Fig. 1 function family:
///   f(x_1..x_{2m}) = x_1 x_2 + x_3 x_4 + ... + x_{2m-1} x_{2m}.
/// Optimal ordering (x_1, x_2, ..., x_{2m}) gives a (2m+2)-node OBDD;
/// the interleaved ordering (x_1, x_3, ..., x_2, x_4, ...) gives 2^{m+1}.
TruthTable pair_sum(int pairs);

/// The interleaved (pessimal) reading order for pair_sum, as a permutation
/// suitable for bdd::Manager: position -> variable read at that position,
/// root-first: (x_1, x_3, ..., x_{2m-1}, x_2, x_4, ..., x_{2m}) in 0-based
/// variable indices.
std::vector<int> pair_sum_interleaved_order(int pairs);

/// The natural (optimal) order (x_1, ..., x_{2m}), 0-based.
std::vector<int> pair_sum_natural_order(int pairs);

/// XOR of all n variables (ordering-insensitive: size n+2 for every order).
TruthTable parity(int n);

/// AND of all n variables.
TruthTable conjunction(int n);

/// OR of all n variables.
TruthTable disjunction(int n);

/// Majority: 1 iff more than n/2 inputs are 1.
TruthTable majority(int n);

/// Threshold-k: 1 iff at least k inputs are 1.
TruthTable threshold(int n, int k);

/// Hidden weighted bit: HWB(x) = x_{wt(x)} (and 0 when wt(x)=0), a classic
/// function whose OBDD is exponential for every ordering.
TruthTable hidden_weighted_bit(int n);

/// Bit `out_bit` (0-based, from LSB) of the product of two (n/2)-bit
/// integers packed as (low half = first operand). n must be even.
/// The middle bit is the classic exponential-for-all-orderings function.
TruthTable multiplier_bit(int n, int out_bit);

/// Middle output bit of an n/2 x n/2 multiplier.
TruthTable multiplier_middle_bit(int n);

/// Carry-out of an (n/2)-bit ripple adder over interleaved operands.
TruthTable adder_carry(int n);

/// Indirect storage access (ISA): the first ceil(log2 n) variables select
/// one of the remaining variables to output. Ordering-sensitive.
TruthTable indirect_storage_access(int n);

/// Uniformly random function on n variables.
TruthTable random_function(int n, util::Xoshiro256& rng);

/// Random function with exactly `ones` satisfying assignments (sparse
/// characteristic functions, the ZDD-friendly regime).
TruthTable random_sparse_function(int n, std::uint64_t ones,
                                  util::Xoshiro256& rng);

/// Random read-once formula (AND/OR alternating over a random shuffle of
/// variables) — these always have small optimal OBDDs, good stress input
/// for the gap between optimal and pessimal orderings.
TruthTable random_read_once(int n, util::Xoshiro256& rng);

/// ¬x_{i1} ∧ … ∧ ¬x_{ik} ∧ g: k = `negated` inputs at random positions
/// forced to 0, and g a uniformly random function of the others.  A ZDD
/// suppresses every negated input in every order, and the negated inputs
/// are pairwise symmetric.
TruthTable random_negated_conjunction(int n, int negated,
                                      util::Xoshiro256& rng);

}  // namespace ovo::tt
