// Unit and property tests for ovo::util — bit manipulation, combinatorics,
// RNG determinism, and exponent fitting.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"
#include "util/fit.hpp"
#include "util/rng.hpp"

namespace ovo::util {
namespace {

TEST(Bits, FullMask) {
  EXPECT_EQ(full_mask(0), 0u);
  EXPECT_EQ(full_mask(1), 1u);
  EXPECT_EQ(full_mask(6), 0x3Fu);
  EXPECT_EQ(full_mask(64), ~Mask{0});
}

TEST(Bits, PopcountAndLowestBit) {
  EXPECT_EQ(popcount(0b1011u), 3);
  EXPECT_EQ(lowest_bit(0b1000u), 3);
  EXPECT_EQ(lowest_bit(1u), 0);
}

TEST(Bits, IsSubset) {
  EXPECT_TRUE(is_subset(0b0101, 0b1101));
  EXPECT_FALSE(is_subset(0b0101, 0b1001));
  EXPECT_TRUE(is_subset(0, 0));
  EXPECT_TRUE(is_subset(0, 0b111));
}

TEST(Bits, GosperEnumeratesAllKSubsets) {
  for (int n = 0; n <= 10; ++n) {
    for (int k = 0; k <= n; ++k) {
      std::set<Mask> seen;
      for_each_subset_of_size(n, k, [&](Mask m) {
        EXPECT_EQ(popcount(m), k);
        EXPECT_TRUE(is_subset(m, full_mask(n)));
        EXPECT_TRUE(seen.insert(m).second) << "duplicate mask";
      });
      EXPECT_EQ(seen.size(), binomial_u64(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Bits, SubsetOfEnumeration) {
  const Mask super = 0b10110;
  std::set<Mask> seen;
  for_each_subset_of(super, [&](Mask s) {
    EXPECT_TRUE(is_subset(s, super));
    EXPECT_TRUE(seen.insert(s).second);
  });
  EXPECT_EQ(seen.size(), 8u);  // 2^3 subsets of a 3-element set
}

TEST(Bits, BitsOfMaskOfRoundtrip) {
  const Mask m = 0b1010011;
  EXPECT_EQ(mask_of(bits_of(m)), m);
  EXPECT_EQ(bits_of(m), (std::vector<int>{0, 1, 4, 6}));
}

TEST(Bits, ScatterGatherRoundtrip) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Mask mask = rng() & full_mask(20);
    const int k = popcount(mask);
    const std::uint64_t value = rng() & full_mask(k);
    const std::uint64_t scattered = scatter_bits(value, mask);
    EXPECT_TRUE(is_subset(scattered, mask));
    EXPECT_EQ(gather_bits(scattered, mask), value);
  }
}

TEST(Bits, ScatterConcrete) {
  // Place bits 0b101 into positions {1, 3, 6}: bit0->1, bit1->3, bit2->6.
  EXPECT_EQ(scatter_bits(0b101, 0b1001010), (1u << 1) | (1u << 6));
}

TEST(Combinatorics, BinomialMatchesPascal) {
  for (int n = 0; n <= 30; ++n) {
    for (int k = 0; k <= n; ++k) {
      const std::uint64_t expected =
          (k == 0 || k == n)
              ? 1
              : binomial_u64(n - 1, k - 1) + binomial_u64(n - 1, k);
      EXPECT_EQ(binomial_u64(n, k), expected);
      EXPECT_NEAR(binomial(n, k), static_cast<double>(expected),
                  1e-6 * static_cast<double>(expected) + 1e-9);
    }
  }
}

TEST(Combinatorics, BinomialEdges) {
  EXPECT_EQ(binomial_u64(5, -1), 0u);
  EXPECT_EQ(binomial_u64(5, 6), 0u);
  EXPECT_EQ(binomial_u64(0, 0), 1u);
}

// Regression: the 64-bit-guarded implementation spuriously threw on
// binom(62, 31) — the running product momentarily exceeds 64 bits even
// though every binomial coefficient along the way (and the result) fits.
// The 128-bit intermediates must return every representable value exactly
// and throw only when the result itself does not fit.
TEST(Combinatorics, BinomialNearOverflowBoundary) {
  EXPECT_EQ(binomial_u64(62, 31), 465428353255261088ull);
  EXPECT_EQ(binomial_u64(64, 32), 1832624140942590534ull);
  EXPECT_EQ(binomial_u64(66, 33), 7219428434016265740ull);
  // The largest central coefficient that fits in 64 bits.
  EXPECT_EQ(binomial_u64(67, 33), 14226520737620288370ull);
  EXPECT_EQ(binomial_u64(67, 34), 14226520737620288370ull);
  // binom(68, 34) ~ 2.8e19 > 2^64 - 1: a true overflow.
  EXPECT_THROW(binomial_u64(68, 34), CheckError);
  // Far off-center coefficients of huge n still fit and must not throw.
  EXPECT_EQ(binomial_u64(500, 2), 124750u);
  EXPECT_EQ(binomial_u64(200, 5), 2535650040ull);
}

// choose() must hard-throw (not silently read out of bounds in NDEBUG
// builds) when n exceeds the table.
TEST(Combinatorics, BinomialTableRejectsOutOfRangeN) {
  const BinomialTable& table = BinomialTable::instance();
  EXPECT_EQ(table.choose(BinomialTable::kMaxN, 1),
            static_cast<std::uint64_t>(BinomialTable::kMaxN));
  EXPECT_THROW(table.choose(BinomialTable::kMaxN + 1, 1), CheckError);
  EXPECT_THROW(table.choose(-1, 0), CheckError);
}

TEST(Combinatorics, EntropyBasics) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.25), 0.811278, 1e-6);
  EXPECT_THROW(binary_entropy(-0.1), CheckError);
}

// The paper's Sec. 2.1 bound: binom(n, k) <= 2^{n H(k/n)}.
TEST(Combinatorics, EntropyBoundDominatesBinomial) {
  for (int n = 1; n <= 40; ++n)
    for (int k = 0; k <= n; ++k)
      EXPECT_LE(binomial(n, k), entropy_bound(n, k) * (1.0 + 1e-12))
          << "n=" << n << " k=" << k;
}

TEST(Combinatorics, CombinationRankUnrankRoundtrip) {
  for (int n = 1; n <= 12; ++n) {
    for (int k = 0; k <= n; ++k) {
      std::uint64_t expected_rank = 0;
      for_each_subset_of_size(n, k, [&](Mask m) {
        EXPECT_EQ(combination_rank(m), expected_rank);
        EXPECT_EQ(combination_unrank(n, k, expected_rank), m);
        ++expected_rank;
      });
    }
  }
}

TEST(Combinatorics, UnrankOutOfRangeThrows) {
  EXPECT_THROW(combination_unrank(5, 2, binomial_u64(5, 2)), CheckError);
}

TEST(Combinatorics, BinomialTableMatchesBinomialU64) {
  const BinomialTable& table = BinomialTable::instance();
  for (int n = 0; n <= 32; ++n)
    for (int k = -1; k <= n + 1; ++k)
      EXPECT_EQ(table.choose(n, k), binomial_u64(n, k))
          << "n=" << n << " k=" << k;
}

// The property the colex-ordered DP layers rely on: Gosper enumeration of
// k-subsets visits exactly ranks 0, 1, 2, ... (colex order), and the
// table-driven rank/unrank agree with combination_rank/unrank on every
// subset of every size, n <= 16.
TEST(Combinatorics, BinomialTableRankUnrankRoundtripAllSubsets) {
  const BinomialTable& table = BinomialTable::instance();
  for (int n = 1; n <= 16; ++n) {
    for (int k = 0; k <= n; ++k) {
      std::uint64_t expected_rank = 0;
      for_each_subset_of_size(n, k, [&](Mask m) {
        EXPECT_EQ(table.rank(m), expected_rank);
        EXPECT_EQ(table.rank(m), combination_rank(m));
        EXPECT_EQ(table.unrank(n, k, expected_rank), m);
        ++expected_rank;
      });
      EXPECT_EQ(expected_rank, table.choose(n, k));
    }
  }
}

TEST(Combinatorics, FactorialValues) {
  EXPECT_DOUBLE_EQ(factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(factorial(5), 120.0);
  EXPECT_DOUBLE_EQ(factorial(10), 3628800.0);
}

TEST(Combinatorics, AllPermutationsCountAndUniqueness) {
  const auto perms = all_permutations(4);
  EXPECT_EQ(perms.size(), 24u);
  std::set<std::vector<int>> unique(perms.begin(), perms.end());
  EXPECT_EQ(unique.size(), 24u);
  for (const auto& p : perms) EXPECT_TRUE(is_permutation(p));
}

TEST(Combinatorics, PermutationUnrankLexOrder) {
  const auto perms = all_permutations(5);
  for (std::uint64_t r = 0; r < perms.size(); ++r)
    EXPECT_EQ(permutation_unrank(5, r), perms[r]);
  EXPECT_THROW(permutation_unrank(3, 6), CheckError);
}

TEST(Combinatorics, InversePermutation) {
  const std::vector<int> p{2, 0, 3, 1};
  const std::vector<int> inv = inverse_permutation(p);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_EQ(inv[static_cast<std::size_t>(p[i])], static_cast<int>(i));
}

TEST(Combinatorics, IsPermutationRejectsBadInputs) {
  EXPECT_TRUE(is_permutation({0, 1, 2}));
  EXPECT_FALSE(is_permutation({0, 0, 2}));
  EXPECT_FALSE(is_permutation({0, 1, 3}));
  EXPECT_FALSE(is_permutation({-1, 0, 1}));
  EXPECT_TRUE(is_permutation({}));
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowRespectsBound) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(2);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Fit, RecoversExactExponential) {
  std::vector<int> n;
  std::vector<double> y;
  for (int i = 4; i <= 14; ++i) {
    n.push_back(i);
    y.push_back(7.5 * std::pow(3.0, i));
  }
  const ExponentFit fit = fit_exponent(n, y);
  EXPECT_NEAR(fit.base, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, std::log2(7.5), 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Fit, RejectsDegenerateInputs) {
  EXPECT_THROW(fit_exponent({1}, {2.0}), CheckError);
  EXPECT_THROW(fit_exponent({1, 2}, {1.0, -1.0}), CheckError);
  EXPECT_THROW(fit_exponent({3, 3}, {1.0, 2.0}), CheckError);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    OVO_CHECK_MSG(false, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ovo::util
