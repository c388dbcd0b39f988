// Tests for DNF/CNF representations (Corollary 2 input forms).

#include <gtest/gtest.h>

#include "tt/function_zoo.hpp"
#include "tt/normal_forms.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ovo::tt {
namespace {

TEST(Dnf, EmptyIsFalse) {
  Dnf d;
  d.num_vars = 3;
  EXPECT_EQ(d.to_truth_table().count_ones(), 0u);
}

TEST(Cnf, EmptyIsTrue) {
  Cnf c;
  c.num_vars = 3;
  EXPECT_EQ(c.to_truth_table().count_ones(), 8u);
}

TEST(Dnf, EvalBasic) {
  // x0 & !x1  |  x2
  Dnf d;
  d.num_vars = 3;
  d.terms = {{Literal{0, true}, Literal{1, false}}, {Literal{2, true}}};
  const TruthTable t = d.to_truth_table();
  EXPECT_TRUE(t.get(0b001));
  EXPECT_FALSE(t.get(0b011));
  EXPECT_TRUE(t.get(0b100));
  EXPECT_FALSE(t.get(0b010));
  d.terms.push_back({Literal{3, true}});
  EXPECT_THROW(d.to_truth_table(), util::CheckError);  // x4 of 3 variables
}

TEST(Cnf, EvalBasic) {
  // (x0 | x1) & (!x0 | x2)
  Cnf c;
  c.num_vars = 3;
  c.clauses = {{Literal{0, true}, Literal{1, true}},
               {Literal{0, false}, Literal{2, true}}};
  const TruthTable t = c.to_truth_table();
  EXPECT_FALSE(t.get(0b000));
  EXPECT_TRUE(t.get(0b010));
  EXPECT_FALSE(t.get(0b001));
  EXPECT_TRUE(t.get(0b101));
}

class NormalFormRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(NormalFormRoundtrip, MintermDnfReproducesFunction) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const TruthTable t = random_function(5, rng);
  EXPECT_EQ(minterm_dnf(t).to_truth_table(), t);
}

TEST_P(NormalFormRoundtrip, MaxtermCnfReproducesFunction) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const TruthTable t = random_function(5, rng);
  EXPECT_EQ(maxterm_cnf(t).to_truth_table(), t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormRoundtrip,
                         ::testing::Range(0, 25));

TEST(NormalForms, CanonicalFormsOfZooFunctions) {
  for (const TruthTable& t :
       {pair_sum(2), parity(4), majority(5), hidden_weighted_bit(4)}) {
    EXPECT_EQ(minterm_dnf(t).to_truth_table(), t);
    EXPECT_EQ(maxterm_cnf(t).to_truth_table(), t);
  }
}

TEST(NormalForms, RandomDnfShape) {
  util::Xoshiro256 rng(7);
  const Dnf d = random_dnf(8, 10, 3, rng);
  EXPECT_EQ(d.terms.size(), 10u);
  for (const Clause& c : d.terms) {
    EXPECT_EQ(c.size(), 3u);
    // Distinct variables within a term.
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j)
        EXPECT_NE(c[i].var, c[j].var);
  }
}

TEST(NormalForms, RandomCnfTabulates) {
  util::Xoshiro256 rng(8);
  const Cnf c = random_cnf(6, 8, 3, rng);
  const TruthTable t = c.to_truth_table();
  for (std::uint64_t a = 0; a < t.size(); ++a) {
    bool all = true;
    for (const Clause& clause : c.clauses) {
      bool any = false;
      for (const Literal& lit : clause)
        any = any || (((a >> lit.var) & 1u) != 0) == lit.positive;
      all = all && any;
    }
    EXPECT_EQ(t.get(a), all) << a;
  }
}

TEST(NormalForms, ToString) {
  Dnf d;
  d.num_vars = 3;
  d.terms = {{Literal{0, true}, Literal{1, false}}};
  EXPECT_EQ(to_string(d), "x1 & !x2");
  Cnf c;
  c.num_vars = 2;
  c.clauses = {{Literal{0, true}, Literal{1, true}}};
  EXPECT_EQ(to_string(c), "(x1 | x2)");
  EXPECT_EQ(to_string(Dnf{}), "0");
  EXPECT_EQ(to_string(Cnf{}), "1");
}

}  // namespace
}  // namespace ovo::tt
