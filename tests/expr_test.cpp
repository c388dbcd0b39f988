// Tests for the Boolean expression representation and its parser
// (one of the Corollary 2 input forms).

#include <gtest/gtest.h>

#include <string>

#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "tt/parse_error.hpp"
#include "util/check.hpp"

namespace ovo::tt {
namespace {

/// Cell `a` of e's table over its own variables.
bool cell(const ExprPtr& e, std::uint64_t a) {
  return expr_to_truth_table(*e, expr_num_vars(*e)).get(a);
}

TEST(ExprBuild, Constructors) {
  const ExprPtr v = make_var(2);
  EXPECT_EQ(v->op, ExprOp::kVar);
  EXPECT_EQ(v->var, 2);
  const ExprPtr c = make_const(true);
  EXPECT_TRUE(c->value);
  const ExprPtr n = make_not(v);
  EXPECT_EQ(n->op, ExprOp::kNot);
  EXPECT_THROW(make_var(-1), util::CheckError);
  EXPECT_THROW(make_not(nullptr), util::CheckError);
}

TEST(ExprEval, BasicOperators) {
  const ExprPtr e = make_xor(make_and(make_var(0), make_var(1)),
                             make_or(make_var(2), make_const(false)));
  // (x0 & x1) ^ x2
  for (std::uint64_t a = 0; a < 8; ++a) {
    const bool expected = (((a & 1) && (a & 2)) != ((a & 4) != 0));
    EXPECT_EQ(cell(e, a), expected);
  }
}

TEST(ExprParse, Simple) {
  const ExprPtr e = parse_expr("x1 & x2");
  EXPECT_TRUE(cell(e, 0b11));
  EXPECT_FALSE(cell(e, 0b01));
}

TEST(ExprParse, Precedence) {
  // & binds tighter than ^, which binds tighter than |.
  const ExprPtr e = parse_expr("x1 | x2 & x3");
  EXPECT_TRUE(cell(e, 0b001));   // x1
  EXPECT_FALSE(cell(e, 0b010));  // x2 alone
  EXPECT_TRUE(cell(e, 0b110));   // x2 & x3

  const ExprPtr x = parse_expr("x1 ^ x2 & x3");
  EXPECT_TRUE(cell(x, 0b001));
  EXPECT_TRUE(cell(x, 0b110));
  EXPECT_FALSE(cell(x, 0b111));
}

TEST(ExprParse, ParensAndNot) {
  const ExprPtr e = parse_expr("!(x1 | x2) & x3");
  EXPECT_TRUE(cell(e, 0b100));
  EXPECT_FALSE(cell(e, 0b101));
  const ExprPtr d = parse_expr("!!x1");
  EXPECT_TRUE(cell(d, 1));
}

TEST(ExprParse, Constants) {
  EXPECT_TRUE(cell(parse_expr("1"), 0));
  EXPECT_FALSE(cell(parse_expr("0 | 0"), 0));
  EXPECT_TRUE(cell(parse_expr("0 ^ 1"), 0));
}

TEST(ExprParse, Whitespace) {
  const ExprPtr e = parse_expr("  x1   &\n x2\t| x3 ");
  EXPECT_TRUE(cell(e, 0b100));
}

TEST(ExprParse, Errors) {
  // Syntax errors are the typed input error, never internal-check text.
  EXPECT_THROW(parse_expr(""), ParseError);
  EXPECT_THROW(parse_expr("x"), ParseError);
  EXPECT_THROW(parse_expr("x0"), ParseError);  // 1-based
  EXPECT_THROW(parse_expr("x1 &"), ParseError);
  EXPECT_THROW(parse_expr("x1 & & x2"), ParseError);
  EXPECT_THROW(parse_expr("(x1"), ParseError);
  EXPECT_THROW(parse_expr("x1 x2"), ParseError);
  EXPECT_THROW(parse_expr("y1"), ParseError);
  try {
    parse_expr("x1 & & x2");
    FAIL() << "no error";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()),
              "expression column 6: unexpected character '&'");
  }
}

TEST(ExprMeta, NumVarsAndSize) {
  const ExprPtr e = parse_expr("x1 & x5 | !x3");
  EXPECT_EQ(expr_num_vars(*e), 5);
  EXPECT_EQ(expr_size(*e), 6u);  // 3 vars + not + and + or
  EXPECT_EQ(expr_num_vars(*parse_expr("1")), 0);
}

TEST(ExprRoundtrip, ToStringParsesBack) {
  const char* samples[] = {
      "x1 & x2 | x3 ^ !x4",
      "!(x1 | !(x2 & x3))",
      "x1 ^ x2 ^ x3 ^ x4",
      "(x1 | x2) & (x3 | x4) & 1",
  };
  for (const char* s : samples) {
    const ExprPtr e = parse_expr(s);
    const ExprPtr r = parse_expr(expr_to_string(*e));
    const int n = expr_num_vars(*e);
    EXPECT_EQ(expr_to_truth_table(*e, n), expr_to_truth_table(*r, n)) << s;
  }
}

TEST(ExprTabulate, MatchesZoo) {
  // The paper's Fig. 1 function as an expression.
  const ExprPtr e = parse_expr("x1 & x2 | x3 & x4 | x5 & x6");
  EXPECT_EQ(expr_to_truth_table(*e, 6), pair_sum(3));
}

TEST(ExprTabulate, PadsExtraVariables) {
  const ExprPtr e = parse_expr("x1");
  const TruthTable t = expr_to_truth_table(*e, 3);
  EXPECT_EQ(t.num_vars(), 3);
  EXPECT_FALSE(t.depends_on(1));
  EXPECT_THROW(expr_to_truth_table(*parse_expr("x4"), 2), util::CheckError);
}

}  // namespace
}  // namespace ovo::tt
