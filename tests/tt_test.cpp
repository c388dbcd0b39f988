// Tests for the truth-table representation and the benchmark function zoo.

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "tt/function_zoo.hpp"
#include "tt/truth_table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

TEST(TruthTable, ConstructsFalse) {
  const TruthTable t(4);
  EXPECT_EQ(t.num_vars(), 4);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.count_ones(), 0u);
  EXPECT_TRUE(t.is_constant());
}

TEST(TruthTable, SetGetRoundtrip) {
  TruthTable t(5);
  t.set(7, true);
  t.set(31, true);
  t.set(7, false);
  EXPECT_FALSE(t.get(7));
  EXPECT_TRUE(t.get(31));
  EXPECT_EQ(t.count_ones(), 1u);
}

TEST(TruthTable, TabulateMatchesPredicate) {
  const auto t = TruthTable::tabulate(
      6, [](std::uint64_t a) { return std::popcount(a) % 3 == 0; });
  for (std::uint64_t a = 0; a < 64; ++a)
    EXPECT_EQ(t.get(a), std::popcount(a) % 3 == 0);
}

TEST(TruthTable, FromBitsRoundtrip) {
  const std::string bits = "0110100110010110";  // 4-var parity-ish pattern
  const TruthTable t = TruthTable::from_bits(4, bits);
  EXPECT_EQ(t.to_bit_string(), bits);
  EXPECT_THROW(TruthTable::from_bits(4, "01"), util::CheckError);
  EXPECT_THROW(TruthTable::from_bits(1, "0x"), util::CheckError);
}

TEST(TruthTable, ZeroVariableTables) {
  TruthTable t(0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.is_constant());
  t.set(0, true);
  EXPECT_EQ(t.count_ones(), 1u);
}

TEST(TruthTable, DependsOnAndSupport) {
  // f = x0 & x2 on 4 variables.
  const auto t = TruthTable::tabulate(4, [](std::uint64_t a) {
    return (a & 1u) && ((a >> 2) & 1u);
  });
  EXPECT_TRUE(t.depends_on(0));
  EXPECT_FALSE(t.depends_on(1));
  EXPECT_TRUE(t.depends_on(2));
  EXPECT_FALSE(t.depends_on(3));
  EXPECT_EQ(t.support(), 0b0101u);
}

TEST(TruthTable, RestrictVar) {
  const auto t = TruthTable::tabulate(3, [](std::uint64_t a) {
    return ((a & 1u) != 0) != (((a >> 1) & 1u) != 0);  // x0 xor x1
  });
  const TruthTable r0 = t.restrict_var(0, false);  // = x1
  const TruthTable r1 = t.restrict_var(0, true);   // = !x1
  for (std::uint64_t a = 0; a < 8; ++a) {
    EXPECT_EQ(r0.get(a), ((a >> 1) & 1u) != 0);
    EXPECT_EQ(r1.get(a), ((a >> 1) & 1u) == 0);
  }
  EXPECT_FALSE(r0.depends_on(0));
}

TEST(TruthTable, CofactorShrinksArity) {
  const auto t = TruthTable::tabulate(3, [](std::uint64_t a) {
    return std::popcount(a) >= 2;  // majority of 3
  });
  const TruthTable c1 = t.cofactor(1, true);  // maj with x1=1: x0 | x2
  EXPECT_EQ(c1.num_vars(), 2);
  for (std::uint64_t a = 0; a < 4; ++a)
    EXPECT_EQ(c1.get(a), a != 0);
}

TEST(TruthTable, CofactorConsistentWithRestrict) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const TruthTable t = random_function(5, rng);
    for (int v = 0; v < 5; ++v) {
      for (const bool val : {false, true}) {
        const TruthTable full = t.restrict_var(v, val);
        const TruthTable small = t.cofactor(v, val);
        // Re-expand: small over remaining vars == full with v dropped.
        for (std::uint64_t a = 0; a < small.size(); ++a) {
          const util::Mask low = util::full_mask(v);
          const std::uint64_t expanded =
              ((a & ~low) << 1) | (a & low) |
              (val ? (std::uint64_t{1} << v) : 0);
          EXPECT_EQ(small.get(a), full.get(expanded));
        }
      }
    }
  }
}

TEST(TruthTable, PermuteInputsIsGroupAction) {
  util::Xoshiro256 rng(3);
  const TruthTable t = random_function(4, rng);
  const std::vector<int> p{2, 0, 3, 1};
  const std::vector<int> inv{1, 3, 0, 2};
  EXPECT_EQ(t.permute_inputs(p).permute_inputs(inv), t);
  // Identity permutation is a no-op.
  EXPECT_EQ(t.permute_inputs({0, 1, 2, 3}), t);
}

TEST(TruthTable, PermuteInputsSemantics) {
  // f = x0 (projection). After permute with perm[0] = 2, the new variable 0
  // reads the old variable 2's role: result(a) = f(b), bit2 of b = bit0 of a.
  const auto f = TruthTable::tabulate(3, [](std::uint64_t a) {
    return (a & 1u) != 0;
  });
  const TruthTable g = f.permute_inputs({2, 0, 1});
  // g(a) = f(b) with b2 = a0, b0 = a1, b1 = a2 => g = [a1]
  for (std::uint64_t a = 0; a < 8; ++a)
    EXPECT_EQ(g.get(a), ((a >> 1) & 1u) != 0);
}

TEST(TruthTable, LogicOperators) {
  util::Xoshiro256 rng(5);
  const TruthTable a = random_function(5, rng);
  const TruthTable b = random_function(5, rng);
  const TruthTable conj = a & b;
  const TruthTable disj = a | b;
  const TruthTable exor = a ^ b;
  const TruthTable nega = ~a;
  for (std::uint64_t x = 0; x < 32; ++x) {
    EXPECT_EQ(conj.get(x), a.get(x) && b.get(x));
    EXPECT_EQ(disj.get(x), a.get(x) || b.get(x));
    EXPECT_EQ(exor.get(x), a.get(x) != b.get(x));
    EXPECT_EQ(nega.get(x), !a.get(x));
  }
}

// Below 6 variables the complement must leave the word's unused cells
// clear, or operator== (whole words) disagrees with hash()/count_ones().
TEST(TruthTable, ComplementKeepsPaddingClear) {
  for (int n = 0; n < 6; ++n) {
    const TruthTable f(n);
    const TruthTable g = ~f;
    EXPECT_EQ(g.count_ones(), f.size());
    EXPECT_EQ(~g, f) << n;
    EXPECT_EQ(g, ~TruthTable(n)) << n;
  }
  EXPECT_EQ(~TruthTable::from_bits(2, "0110"), TruthTable::from_bits(2, "1001"));
  EXPECT_EQ(~TruthTable::from_bits(0, "0"), TruthTable::from_bits(0, "1"));
}

TEST(TruthTable, HashDistinguishesAndMatches) {
  util::Xoshiro256 rng(9);
  const TruthTable a = random_function(6, rng);
  TruthTable b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.set(13, !b.get(13));
  EXPECT_NE(a.hash(), b.hash());
}

TEST(TruthTable, CountDistinctSubfunctions) {
  // Parity: every prefix restriction gives parity or its complement => for
  // any bottom set of size k, exactly 2 distinct subfunctions.
  const TruthTable p = parity(5);
  EXPECT_EQ(p.count_distinct_subfunctions(0b00111), 2u);
  EXPECT_EQ(p.count_distinct_subfunctions(0b10101), 2u);
  // Full bottom set: one subfunction (f itself).
  EXPECT_EQ(p.count_distinct_subfunctions(0b11111), 1u);
  // Empty bottom set: restrictions are the 2 constants.
  EXPECT_EQ(p.count_distinct_subfunctions(0), 2u);
}

// --- function zoo -----------------------------------------------------------

TEST(Zoo, PairSumDefinition) {
  const TruthTable f = pair_sum(3);
  EXPECT_EQ(f.num_vars(), 6);
  for (std::uint64_t a = 0; a < 64; ++a) {
    const bool expected = ((a & 1) && (a & 2)) || ((a & 4) && (a & 8)) ||
                          ((a & 16) && (a & 32));
    EXPECT_EQ(f.get(a), expected);
  }
}

TEST(Zoo, PairSumOrders) {
  EXPECT_EQ(pair_sum_natural_order(3), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(pair_sum_interleaved_order(3),
            (std::vector<int>{0, 2, 4, 1, 3, 5}));
}

TEST(Zoo, ParityCountsHalf) {
  for (int n = 1; n <= 8; ++n)
    EXPECT_EQ(parity(n).count_ones(), std::uint64_t{1} << (n - 1));
}

TEST(Zoo, ConjunctionDisjunction) {
  EXPECT_EQ(conjunction(5).count_ones(), 1u);
  EXPECT_EQ(disjunction(5).count_ones(), 31u);
}

TEST(Zoo, MajorityThresholdConsistency) {
  for (int n = 1; n <= 7; ++n) {
    const TruthTable maj = majority(n);
    const TruthTable thr = threshold(n, n / 2 + 1);
    EXPECT_EQ(maj, thr) << "n=" << n;
  }
}

TEST(Zoo, ThresholdMonotoneInK) {
  const int n = 6;
  for (int k = 1; k <= n; ++k) {
    const TruthTable hi = threshold(n, k);
    const TruthTable lo = threshold(n, k - 1);
    // Raising k can only shrink the onset.
    EXPECT_EQ((hi & lo), hi);
  }
  EXPECT_EQ(threshold(n, 0).count_ones(), 64u);
}

TEST(Zoo, HiddenWeightedBitDefinition) {
  const TruthTable h = hidden_weighted_bit(4);
  EXPECT_FALSE(h.get(0));  // weight 0 => false
  // a = 0b0010: weight 1, selects x1 (1-based), bit 0 of a = 0 => false.
  EXPECT_FALSE(h.get(0b0010));
  // a = 0b0011: weight 2, selects bit 1 of a = 1 => true.
  EXPECT_TRUE(h.get(0b0011));
  // a = 0b1111: weight 4, selects bit 3 = 1 => true.
  EXPECT_TRUE(h.get(0b1111));
}

TEST(Zoo, MultiplierBitMatchesArithmetic) {
  const int n = 6;  // 3x3 multiplier
  for (int bit = 0; bit < n; ++bit) {
    const TruthTable f = multiplier_bit(n, bit);
    for (std::uint64_t a = 0; a < 64; ++a) {
      const std::uint64_t u = a & 7u;
      const std::uint64_t v = (a >> 3) & 7u;
      EXPECT_EQ(f.get(a), ((u * v) >> bit) & 1u);
    }
  }
  EXPECT_THROW(multiplier_bit(5, 0), util::CheckError);
}

TEST(Zoo, AdderCarryMatchesArithmetic) {
  const TruthTable f = adder_carry(6);  // 3-bit operands, interleaved
  for (std::uint64_t a = 0; a < 64; ++a) {
    std::uint64_t u = 0, v = 0;
    for (int i = 0; i < 3; ++i) {
      u |= ((a >> (2 * i)) & 1u) << i;
      v |= ((a >> (2 * i + 1)) & 1u) << i;
    }
    EXPECT_EQ(f.get(a), ((u + v) >> 3) & 1u);
  }
}

TEST(Zoo, IndirectStorageAccess) {
  // n = 6: 2 selector bits, 4 data bits.
  const TruthTable f = indirect_storage_access(6);
  for (std::uint64_t a = 0; a < 64; ++a) {
    const std::uint64_t idx = a & 3u;
    EXPECT_EQ(f.get(a), ((a >> (2 + idx)) & 1u) != 0);
  }
}

TEST(Zoo, RandomSparseHasExactOnes) {
  util::Xoshiro256 rng(17);
  for (const std::uint64_t ones : {0ull, 1ull, 5ull, 32ull, 64ull}) {
    const TruthTable t = random_sparse_function(6, ones, rng);
    EXPECT_EQ(t.count_ones(), ones);
  }
  EXPECT_THROW(random_sparse_function(3, 9, rng), util::CheckError);
}

TEST(Zoo, RandomReadOnceIsNonConstantUsually) {
  util::Xoshiro256 rng(23);
  int non_constant = 0;
  for (int i = 0; i < 20; ++i)
    non_constant += random_read_once(6, rng).is_constant() ? 0 : 1;
  EXPECT_GE(non_constant, 15);
}

}  // namespace
}  // namespace ovo::tt
