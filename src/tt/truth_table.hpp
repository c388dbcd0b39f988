#pragma once
// Packed truth-table representation of Boolean functions f: {0,1}^n -> {0,1}.
//
// This is the paper's input representation (Theorem 1): cell index a encodes
// the assignment where bit i of a (0-based) is the value of variable x_{i+1}
// in the paper's 1-based numbering.  The library uses 0-based variable
// indices throughout; the mapping to the paper is var i  <->  x_{i+1}.

#include <cstdint>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"

namespace ovo::tt {

class TruthTable {
 public:
  /// Maximum supported variable count (2^26 bits = 8 MiB per table).
  static constexpr int kMaxVars = 26;

  /// The constant-false function on n variables.
  explicit TruthTable(int n) : n_(n) {
    OVO_CHECK_MSG(n >= 0 && n <= kMaxVars, "TruthTable: n out of range");
    words_.assign(word_count(n), 0);
  }

  /// Tabulates `eval(assignment)` over all 2^n assignments (Corollary 2 of
  /// the paper: any poly-time-evaluable representation -> truth table in
  /// O*(2^n)).
  template <typename Eval>
  static TruthTable tabulate(int n, Eval&& eval) {
    TruthTable t(n);
    const std::uint64_t cells = t.size();
    for (std::uint64_t a = 0; a < cells; ++a) t.set(a, eval(a));
    return t;
  }

  /// Parses a bitstring like "0110..." of length 2^n, cell 0 first.
  static TruthTable from_bits(int n, const std::string& bits);

  /// Adopts word_count(n) packed words (cell a is bit a % 64 of word
  /// a / 64), clearing the cells past 2^n when n < 6.
  static TruthTable from_words(int n, std::vector<std::uint64_t> words);
  static std::size_t word_count(int n) {
    return n <= 6 ? 1 : (std::size_t{1} << (n - 6));
  }

  int num_vars() const { return n_; }

  /// Number of cells, 2^n.
  std::uint64_t size() const { return std::uint64_t{1} << n_; }

  bool get(std::uint64_t a) const {
    OVO_DCHECK(a < size());
    return (words_[a >> 6] >> (a & 63)) & 1u;
  }

  void set(std::uint64_t a, bool v) {
    OVO_DCHECK(a < size());
    const std::uint64_t bit = std::uint64_t{1} << (a & 63);
    if (v)
      words_[a >> 6] |= bit;
    else
      words_[a >> 6] &= ~bit;
  }

  /// Evaluate under an assignment given as a bit mask (bit i = var i).
  bool operator()(std::uint64_t assignment) const { return get(assignment); }

  /// Number of satisfying assignments.
  std::uint64_t count_ones() const;

  bool is_constant() const;

  /// True if f depends on variable `var` (some pair of adjacent-in-var cells
  /// differs).
  bool depends_on(int var) const;

  /// The set of variables f depends on, as a mask.
  util::Mask support() const;

  /// f with variable `var` fixed to `val`; result still has n variables but
  /// no longer depends on `var` (both cofactor cells hold the same value).
  TruthTable restrict_var(int var, bool val) const;

  /// Project away variable `var` after restriction: an (n-1)-variable table
  /// over the remaining variables in ascending order.
  TruthTable cofactor(int var, bool val) const;

  /// Relabel inputs: result(a) = this(b) where bit perm[i] of b = bit i of a.
  /// I.e. variable i of the result is variable perm[i] of the original.
  TruthTable permute_inputs(const std::vector<int>& perm) const;

  /// Number of distinct subfunctions over the variable set `bottom`
  /// (a mask) obtained by assigning all variables outside `bottom`; this is
  /// the node count of the quasi-reduced bottom |bottom| layers plus
  /// constants. Used by tests as an independent cross-check of DP widths.
  std::uint64_t count_distinct_subfunctions(util::Mask bottom) const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;

  bool operator==(const TruthTable& o) const {
    return n_ == o.n_ && words_ == o.words_;
  }
  bool operator!=(const TruthTable& o) const { return !(*this == o); }

  /// FNV-style content hash (for dedup in tests).
  std::uint64_t hash() const;

  /// "0110..." cell 0 first.
  std::string to_bit_string() const;

 private:
  void check_same_shape(const TruthTable& o) const {
    OVO_CHECK_MSG(n_ == o.n_, "TruthTable: arity mismatch");
  }

  int n_;
  std::vector<std::uint64_t> words_;
};

}  // namespace ovo::tt
