#pragma once
// Boolean expression trees with a small parser — one of the alternative
// input representations covered by Corollary 2 of the paper (any
// representation evaluable in poly(n) per assignment can be tabulated in
// O*(2^n) and then minimized).
//
// Grammar (precedence low to high):
//   expr   := xorexp ('|' xorexp)*
//   xorexp := term ('^' term)*
//   term   := factor ('&' factor)*
//   factor := '!' factor | '(' expr ')' | '0' | '1' | var
//   var    := 'x' digits        (1-based, paper style: x1 is variable 0)

#include <memory>
#include <string>
#include <vector>

#include "tt/circuit.hpp"
#include "tt/truth_table.hpp"

namespace ovo::tt {

enum class ExprOp { kVar, kConst, kNot, kAnd, kOr, kXor };

/// Immutable expression node. Children are shared so common subexpressions
/// can be reused when building formulas programmatically.
struct Expr {
  ExprOp op = ExprOp::kConst;
  int var = -1;        ///< for kVar: 0-based variable index
  bool value = false;  ///< for kConst
  std::shared_ptr<const Expr> lhs;
  std::shared_ptr<const Expr> rhs;  ///< unused for kNot
};

using ExprPtr = std::shared_ptr<const Expr>;

ExprPtr make_var(int var);
ExprPtr make_const(bool value);
ExprPtr make_not(ExprPtr a);
ExprPtr make_and(ExprPtr a, ExprPtr b);
ExprPtr make_or(ExprPtr a, ExprPtr b);
ExprPtr make_xor(ExprPtr a, ExprPtr b);

/// Parses the grammar above.  Throws tt::ParseError (a util::CheckError)
/// naming the column on any syntax error.
ExprPtr parse_expr(const std::string& text);

/// Highest variable index used, plus one (0 for constant expressions).
int expr_num_vars(const Expr& e);

/// Number of nodes in the expression tree.
std::size_t expr_size(const Expr& e);

/// Render back to the parser's syntax.
std::string expr_to_string(const Expr& e);

/// Lowers to a single-output circuit on n inputs (n >= expr_num_vars).
Circuit expr_to_circuit(const Expr& e, int n);

/// Tabulate on n variables (n >= expr_num_vars).
inline TruthTable expr_to_truth_table(const Expr& e, int n) {
  return expr_to_circuit(e, n).to_truth_table();
}

}  // namespace ovo::tt
