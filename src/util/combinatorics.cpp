#include "util/combinatorics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace ovo::util {

double binomial(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  k = std::min(k, n - k);
  double r = 1.0;
  for (int i = 1; i <= k; ++i) {
    r *= static_cast<double>(n - k + i);
    r /= static_cast<double>(i);
  }
  return r;
}

std::uint64_t binomial_u64(int n, int k) {
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  // 128-bit intermediates: r * num can exceed 64 bits even when the final
  // result fits (e.g. binom(62, 31)), so guarding the multiply in 64 bits
  // would reject representable values.  Only the running quotient — which
  // is itself a binomial coefficient, hence the tightest possible bound —
  // is required to fit.
  unsigned __int128 r = 1;
  for (int i = 1; i <= k; ++i) {
    // r * (n-k+i) / i is always integral at this point.
    r = r * static_cast<unsigned>(n - k + i) / static_cast<unsigned>(i);
    OVO_CHECK_MSG(r <= std::numeric_limits<std::uint64_t>::max(),
                  "binomial_u64 overflow");
  }
  return static_cast<std::uint64_t>(r);
}

double binary_entropy(double d) {
  OVO_CHECK(d >= 0.0 && d <= 1.0);
  if (d == 0.0 || d == 1.0) return 0.0;
  return -d * std::log2(d) - (1.0 - d) * std::log2(1.0 - d);
}

double entropy_bound(int n, int k) {
  OVO_CHECK(n >= 0 && k >= 0 && k <= n);
  if (n == 0) return 1.0;
  return std::exp2(n * binary_entropy(static_cast<double>(k) / n));
}

std::uint64_t combination_rank(Mask m) {
  std::uint64_t rank = 0;
  int i = 1;  // how many elements seen so far
  for_each_bit(m, [&](int b) {
    rank += binomial_u64(b, i);
    ++i;
  });
  return rank;
}

Mask combination_unrank(int n, int k, std::uint64_t rank) {
  OVO_CHECK(k >= 0 && k <= n);
  Mask m = 0;
  for (int i = k; i >= 1; --i) {
    // Largest b with binom(b, i) <= rank.
    int b = i - 1;
    while (b + 1 < n && binomial_u64(b + 1, i) <= rank) ++b;
    OVO_CHECK_MSG(b < n, "combination_unrank: rank out of range");
    m |= Mask{1} << b;
    rank -= binomial_u64(b, i);
    n = b;  // subsequent elements must be below b
  }
  OVO_CHECK_MSG(rank == 0, "combination_unrank: rank out of range");
  return m;
}

BinomialTable::BinomialTable() {
  for (int n = 0; n <= kMaxN; ++n) {
    c_[n][0] = 1;
    for (int k = 1; k <= n; ++k)
      c_[n][k] = c_[n - 1][k - 1] + (k <= n - 1 ? c_[n - 1][k] : 0);
    for (int k = n + 1; k <= kMaxN; ++k) c_[n][k] = 0;
  }
}

Mask BinomialTable::unrank(int n, int k, std::uint64_t rank) const {
  OVO_CHECK(k >= 0 && k <= n && n <= kMaxN);
  Mask m = 0;
  for (int i = k; i >= 1; --i) {
    int b = i - 1;
    while (b + 1 < n && choose(b + 1, i) <= rank) ++b;
    OVO_CHECK_MSG(b < n, "BinomialTable::unrank: rank out of range");
    m |= Mask{1} << b;
    rank -= choose(b, i);
    n = b;
  }
  OVO_CHECK_MSG(rank == 0, "BinomialTable::unrank: rank out of range");
  return m;
}

const BinomialTable& BinomialTable::instance() {
  static const BinomialTable table;
  return table;
}

namespace {

/// Coefficients of Π_c (1 + x + … + x^{s_c}) over the given sizes.
std::vector<std::uint64_t> orbit_polynomial(const std::vector<int>& sizes,
                                            std::size_t skip) {
  std::vector<std::uint64_t> poly{1};
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    if (c == skip) continue;
    std::vector<std::uint64_t> next(poly.size() +
                                    static_cast<std::size_t>(sizes[c]));
    for (std::size_t i = 0; i < poly.size(); ++i)
      for (int m = 0; m <= sizes[c]; ++m)
        next[i + static_cast<std::size_t>(m)] += poly[i];
    poly = std::move(next);
  }
  return poly;
}

}  // namespace

OrbitCounts orbit_counts(const std::vector<int>& class_sizes) {
  OVO_CHECK(std::all_of(class_sizes.begin(), class_sizes.end(),
                        [](int s) { return s >= 1; }));
  OrbitCounts out;
  out.states = orbit_polynomial(class_sizes, class_sizes.size());
  out.transitions.assign(out.states.size(), 0);
  // A k-set in which class c is present holds m >= 1 of its members and
  // a canonical (k−m)-set of the other classes.
  for (std::size_t c = 0; c < class_sizes.size(); ++c) {
    const std::vector<std::uint64_t> others = orbit_polynomial(class_sizes, c);
    for (std::size_t i = 0; i < others.size(); ++i)
      for (int m = 1; m <= class_sizes[c]; ++m)
        out.transitions[i + static_cast<std::size_t>(m)] += others[i];
  }
  return out;
}

std::uint64_t orbit_total_cells(const std::vector<int>& class_sizes) {
  const OrbitCounts o = orbit_counts(class_sizes);
  const int n = static_cast<int>(o.states.size()) - 1;
  std::uint64_t total = 0;
  for (int k = 1; k <= n; ++k)
    total += o.transitions[static_cast<std::size_t>(k)] *
             (std::uint64_t{1} << (n - k + 1));
  return total;
}

std::uint64_t orbit_peak_cells(const std::vector<int>& class_sizes) {
  const OrbitCounts o = orbit_counts(class_sizes);
  const int n = static_cast<int>(o.states.size()) - 1;
  std::uint64_t peak = 0;
  for (int k = 1; k <= n; ++k)
    peak = std::max(peak, o.states[static_cast<std::size_t>(k) - 1] *
                                  (std::uint64_t{1} << (n - k + 1)) +
                              o.states[static_cast<std::size_t>(k)] *
                                  (std::uint64_t{1} << (n - k)));
  return peak;
}

double factorial(int n) {
  double r = 1.0;
  for (int i = 2; i <= n; ++i) r *= i;
  return r;
}

std::vector<std::vector<int>> all_permutations(int n) {
  OVO_CHECK_MSG(n >= 0 && n <= 10, "all_permutations: n too large");
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::vector<std::vector<int>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

std::vector<int> permutation_unrank(int n, std::uint64_t rank) {
  std::vector<int> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<std::uint64_t> fact(static_cast<std::size_t>(n) + 1, 1);
  for (int i = 1; i <= n; ++i)
    fact[static_cast<std::size_t>(i)] =
        fact[static_cast<std::size_t>(i) - 1] * static_cast<std::uint64_t>(i);
  OVO_CHECK_MSG(rank < fact[static_cast<std::size_t>(n)],
                "permutation_unrank: rank out of range");
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = n; i >= 1; --i) {
    const std::uint64_t f = fact[static_cast<std::size_t>(i) - 1];
    const std::size_t idx = static_cast<std::size_t>(rank / f);
    rank %= f;
    out.push_back(pool[idx]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return out;
}

std::vector<int> inverse_permutation(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size(), -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const int v = perm[i];
    OVO_CHECK(v >= 0 && static_cast<std::size_t>(v) < perm.size());
    inv[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  return inv;
}

bool is_permutation(const std::vector<int>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (int v : perm) {
    if (v < 0 || static_cast<std::size_t>(v) >= perm.size()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

}  // namespace ovo::util
