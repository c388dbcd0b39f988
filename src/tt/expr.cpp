#include "tt/expr.hpp"

#include <algorithm>

#include "tt/parse_error.hpp"
#include "util/check.hpp"

namespace ovo::tt {

namespace {

ExprPtr node(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

}  // namespace

ExprPtr make_var(int var) {
  OVO_CHECK(var >= 0);
  Expr e;
  e.op = ExprOp::kVar;
  e.var = var;
  return node(std::move(e));
}

ExprPtr make_const(bool value) {
  Expr e;
  e.op = ExprOp::kConst;
  e.value = value;
  return node(std::move(e));
}

ExprPtr make_not(ExprPtr a) {
  OVO_CHECK(a != nullptr);
  Expr e;
  e.op = ExprOp::kNot;
  e.lhs = std::move(a);
  return node(std::move(e));
}

namespace {
ExprPtr binary(ExprOp op, ExprPtr a, ExprPtr b) {
  OVO_CHECK(a != nullptr && b != nullptr);
  Expr e;
  e.op = op;
  e.lhs = std::move(a);
  e.rhs = std::move(b);
  return node(std::move(e));
}
}  // namespace

ExprPtr make_and(ExprPtr a, ExprPtr b) {
  return binary(ExprOp::kAnd, std::move(a), std::move(b));
}
ExprPtr make_or(ExprPtr a, ExprPtr b) {
  return binary(ExprOp::kOr, std::move(a), std::move(b));
}
ExprPtr make_xor(ExprPtr a, ExprPtr b) {
  return binary(ExprOp::kXor, std::move(a), std::move(b));
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ExprPtr parse() {
    ExprPtr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input");
    return e;
  }

 private:
  /// Malformed input is the caller's data error, never an invariant
  /// violation: every syntax error is a ParseError naming its column.
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("expression column " + std::to_string(pos_ + 1) + ": " +
                     msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n'))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  ExprPtr parse_or() {
    ExprPtr e = parse_xor();
    while (eat('|')) e = make_or(std::move(e), parse_xor());
    return e;
  }

  ExprPtr parse_xor() {
    ExprPtr e = parse_and();
    while (eat('^')) e = make_xor(std::move(e), parse_and());
    return e;
  }

  ExprPtr parse_and() {
    ExprPtr e = parse_factor();
    while (eat('&')) e = make_and(std::move(e), parse_factor());
    return e;
  }

  ExprPtr parse_factor() {
    // Recursive descent: each '(' and '!' adds a stack frame, so an
    // adversarial "((((..." must hit a typed error before it hits the
    // process stack guard.  The cap also bounds the recursion depth of
    // the eventual shared_ptr destruction chain.
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    ExprPtr e = parse_factor_inner();
    --depth_;
    return e;
  }

  ExprPtr parse_factor_inner() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '!') {
      ++pos_;
      return make_not(parse_factor());
    }
    if (c == '(') {
      ++pos_;
      ExprPtr e = parse_or();
      if (!eat(')')) fail("expected ')'");
      return e;
    }
    if (c == '0' || c == '1') {
      ++pos_;
      return make_const(c == '1');
    }
    if (c == 'x') {
      ++pos_;
      std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      if (pos_ == start) fail("expected variable number");
      // Bound the digit count before std::stoi so an oversized index is
      // a typed error, not std::out_of_range; then bound the index by
      // what a truth table can hold, as the PLA reader does.
      if (pos_ - start > 6) fail("variable number out of range");
      const int idx = std::stoi(text_.substr(start, pos_ - start));
      if (idx < 1) fail("variables are 1-based (x1, x2, ...)");
      if (idx > TruthTable::kMaxVars) fail("variable number out of range");
      return make_var(idx - 1);
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  static constexpr int kMaxDepth = 2000;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

ExprPtr parse_expr(const std::string& text) { return Parser(text).parse(); }

int expr_num_vars(const Expr& e) {
  switch (e.op) {
    case ExprOp::kVar:
      return e.var + 1;
    case ExprOp::kConst:
      return 0;
    case ExprOp::kNot:
      return expr_num_vars(*e.lhs);
    default:
      return std::max(expr_num_vars(*e.lhs), expr_num_vars(*e.rhs));
  }
}

std::size_t expr_size(const Expr& e) {
  switch (e.op) {
    case ExprOp::kVar:
    case ExprOp::kConst:
      return 1;
    case ExprOp::kNot:
      return 1 + expr_size(*e.lhs);
    default:
      return 1 + expr_size(*e.lhs) + expr_size(*e.rhs);
  }
}

std::string expr_to_string(const Expr& e) {
  switch (e.op) {
    case ExprOp::kVar:
      return "x" + std::to_string(e.var + 1);
    case ExprOp::kConst:
      return e.value ? "1" : "0";
    case ExprOp::kNot:
      return "!(" + expr_to_string(*e.lhs) + ")";
    case ExprOp::kAnd:
      return "(" + expr_to_string(*e.lhs) + " & " + expr_to_string(*e.rhs) +
             ")";
    case ExprOp::kOr:
      return "(" + expr_to_string(*e.lhs) + " | " + expr_to_string(*e.rhs) +
             ")";
    case ExprOp::kXor:
      return "(" + expr_to_string(*e.lhs) + " ^ " + expr_to_string(*e.rhs) +
             ")";
  }
  OVO_CHECK(false);
  return {};
}

namespace {

/// Post-order tree walk: one gate per operator node.
int lower(const Expr& e, Circuit& c) {
  if (e.op == ExprOp::kVar) return e.var;
  if (e.op == ExprOp::kConst)
    return c.add_gate(e.value ? GateOp::kConst1 : GateOp::kConst0);
  const int a = lower(*e.lhs, c);
  if (e.op == ExprOp::kNot) return c.add_gate(GateOp::kNot, a);
  const GateOp op = e.op == ExprOp::kAnd  ? GateOp::kAnd
                    : e.op == ExprOp::kOr ? GateOp::kOr
                                          : GateOp::kXor;
  return c.add_gate(op, a, lower(*e.rhs, c));
}

}  // namespace

Circuit expr_to_circuit(const Expr& e, int n) {
  OVO_CHECK_MSG(n >= expr_num_vars(e),
                "expr_to_circuit: n smaller than expression support");
  Circuit c(n);
  c.add_output(lower(e, c));
  return c;
}

}  // namespace ovo::tt
