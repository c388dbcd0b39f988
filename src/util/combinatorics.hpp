#pragma once
// Combinatorial helpers used by the complexity analysis and the DP:
// binomial coefficients, binary entropy (and the bound
// binom(n,k) <= 2^{n H(k/n)} from Sec. 2.1 of the paper), combination
// ranking, and permutation utilities.

#include <cstdint>
#include <vector>

#include "util/bits.hpp"

namespace ovo::util {

/// binom(n, k) as a double (exact for the ranges used here, n <= 64).
double binomial(int n, int k);

/// binom(n, k) as an exact unsigned 64-bit value; throws CheckError iff
/// the *result* does not fit in 64 bits (intermediates are computed in
/// 128 bits, so every representable value — all n <= 67, and larger n
/// with small enough k — is returned exactly).
std::uint64_t binomial_u64(int n, int k);

/// Binary entropy H(d) = -d log2 d - (1-d) log2 (1-d); H(0) = H(1) = 0.
/// Precondition: d in [0, 1].
double binary_entropy(double d);

/// The paper's Sec. 2.1 bound: 2^{n H(k/n)} (an upper bound on binom(n,k)).
double entropy_bound(int n, int k);

/// Colexicographic rank of a k-subset mask among all k-subsets of [0, n).
/// rank is in [0, binom(n,k)).  Colex order of subsets coincides with the
/// numeric order of their masks, so Gosper-style enumeration
/// (for_each_subset_of_size) visits subsets exactly in rank order — the
/// property the colex-ordered FS* DP layers rely on.
std::uint64_t combination_rank(Mask m);

/// Inverse of combination_rank: the k-subset of rank `rank` (colex order).
Mask combination_unrank(int n, int k, std::uint64_t rank);

/// Dense Pascal triangle for O(1) binomial lookups and O(k) colex
/// (un)ranking — the replacement for hashing in the Friedman–Supowit DP
/// inner loop, where every (subset, variable) pair needs the rank of a
/// predecessor subset.  All entries for n <= 64 fit in 64 bits.
class BinomialTable {
 public:
  static constexpr int kMaxN = 64;

  BinomialTable();

  std::uint64_t choose(int n, int k) const {
    // Hard check, not OVO_DCHECK: an out-of-range n reads past the end of
    // c_ in release builds, so malformed callers must throw, not corrupt.
    OVO_CHECK_MSG(n >= 0 && n <= kMaxN, "BinomialTable::choose: n > kMaxN");
    if (k < 0 || k > n) return 0;
    return c_[n][k];
  }

  /// Colex rank of a subset mask; same value as combination_rank but
  /// table-driven (no per-term multiply loop, no overflow checks).
  std::uint64_t rank(Mask m) const {
    std::uint64_t r = 0;
    int i = 1;
    for_each_bit(m, [&](int b) {
      r += choose(b, i);
      ++i;
    });
    return r;
  }

  /// Inverse of rank over k-subsets of [0, n): same value as
  /// combination_unrank.
  Mask unrank(int n, int k, std::uint64_t rank) const;

  /// Shared immutable instance (thread-safe; construction is cheap).
  static const BinomialTable& instance();

 private:
  std::uint64_t c_[kMaxN + 1][kMaxN + 1];
};

/// Layer counts of the Friedman–Supowit DP over symmetry orbits, for
/// classes of sizes `class_sizes` (n = their sum; docs/ALGORITHMS.md §2).
/// A canonical k-set holds the lowest m_c members of each class c, with
/// Σ m_c = k, so `states[k]` is the coefficient of x^k in
/// Π_c (1 + x + … + x^{|c|}), and `transitions[k]` counts the pairs
/// (canonical k-set, class present in it): one compaction each.  With
/// every class a singleton they are C(n,k) and k·C(n,k).
struct OrbitCounts {
  std::vector<std::uint64_t> states;       ///< index k = 0..n
  std::vector<std::uint64_t> transitions;  ///< index k = 0..n
};
OrbitCounts orbit_counts(const std::vector<int>& class_sizes);

/// Theorem 5's cell count for the orbit DP over the whole variable set:
/// Σ_k transitions[k]·2^(n−k+1).  Equals 2n·3^(n−1) when every class is
/// a singleton.
std::uint64_t orbit_total_cells(const std::vector<int>& class_sizes);

/// Remark 1's peak for the orbit DP: the most cells two adjacent layers
/// hold, max_k states[k−1]·2^(n−k+1) + states[k]·2^(n−k).
std::uint64_t orbit_peak_cells(const std::vector<int>& class_sizes);

/// n! as a double.
double factorial(int n);

/// All permutations of {0,...,n-1}; intended for small n (n <= 8 or so).
std::vector<std::vector<int>> all_permutations(int n);

/// Lehmer-code unranking: the `rank`-th permutation of {0,...,n-1} in
/// lexicographic order. rank in [0, n!).
std::vector<int> permutation_unrank(int n, std::uint64_t rank);

/// Inverse permutation: out[perm[i]] = i.
std::vector<int> inverse_permutation(const std::vector<int>& perm);

/// True if `perm` is a permutation of {0,...,n-1}.
bool is_permutation(const std::vector<int>& perm);

}  // namespace ovo::util
