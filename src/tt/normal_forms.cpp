#include "tt/normal_forms.hpp"

#include "util/check.hpp"

namespace ovo::tt {

namespace {

/// The `outer` of `inner`s of literals: OR of ANDs for a DNF, AND of ORs
/// for a CNF.
Circuit two_level(int n, const std::vector<Clause>& clauses, GateOp inner,
                  GateOp outer) {
  Circuit c(n);
  std::vector<int> lits, parts;
  for (const Clause& clause : clauses) {
    lits.clear();
    for (const Literal& lit : clause) {
      OVO_CHECK_MSG(lit.var >= 0 && lit.var < n,
                    "normal form: literal variable out of range");
      lits.push_back(c.literal(lit.var, lit.positive));
    }
    parts.push_back(c.add_nary(inner, lits));
  }
  c.add_output(c.add_nary(outer, parts));
  return c;
}

Clause random_clause(int n, int k, util::Xoshiro256& rng) {
  OVO_CHECK(k >= 1 && k <= n);
  // Sample k distinct variables.
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(k));
  while (static_cast<int>(vars.size()) < k) {
    const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    bool dup = false;
    for (int u : vars) dup |= (u == v);
    if (!dup) vars.push_back(v);
  }
  Clause c;
  c.reserve(vars.size());
  for (int v : vars) c.push_back(Literal{v, rng.coin()});
  return c;
}

}  // namespace

Circuit Dnf::to_circuit() const {
  return two_level(num_vars, terms, GateOp::kAnd, GateOp::kOr);
}

Circuit Cnf::to_circuit() const {
  return two_level(num_vars, clauses, GateOp::kOr, GateOp::kAnd);
}

Dnf minterm_dnf(const TruthTable& t) {
  Dnf d;
  d.num_vars = t.num_vars();
  for (std::uint64_t a = 0; a < t.size(); ++a) {
    if (!t.get(a)) continue;
    Clause term;
    term.reserve(static_cast<std::size_t>(t.num_vars()));
    for (int v = 0; v < t.num_vars(); ++v)
      term.push_back(Literal{v, ((a >> v) & 1u) != 0});
    d.terms.push_back(std::move(term));
  }
  return d;
}

Cnf maxterm_cnf(const TruthTable& t) {
  Cnf c;
  c.num_vars = t.num_vars();
  for (std::uint64_t a = 0; a < t.size(); ++a) {
    if (t.get(a)) continue;
    Clause clause;
    clause.reserve(static_cast<std::size_t>(t.num_vars()));
    // Exclude assignment a: the clause is violated exactly at a.
    for (int v = 0; v < t.num_vars(); ++v)
      clause.push_back(Literal{v, ((a >> v) & 1u) == 0});
    c.clauses.push_back(std::move(clause));
  }
  return c;
}

Dnf random_dnf(int n, int terms, int k, util::Xoshiro256& rng) {
  Dnf d;
  d.num_vars = n;
  d.terms.reserve(static_cast<std::size_t>(terms));
  for (int i = 0; i < terms; ++i) d.terms.push_back(random_clause(n, k, rng));
  return d;
}

Cnf random_cnf(int n, int clauses, int k, util::Xoshiro256& rng) {
  Cnf c;
  c.num_vars = n;
  c.clauses.reserve(static_cast<std::size_t>(clauses));
  for (int i = 0; i < clauses; ++i)
    c.clauses.push_back(random_clause(n, k, rng));
  return c;
}

namespace {
std::string clause_string(const Clause& c, const char* joiner) {
  std::string s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) s += joiner;
    if (!c[i].positive) s += '!';
    s += 'x';
    s += std::to_string(c[i].var + 1);
  }
  return s;
}
}  // namespace

std::string to_string(const Dnf& d) {
  if (d.terms.empty()) return "0";
  std::string s;
  for (std::size_t i = 0; i < d.terms.size(); ++i) {
    if (i > 0) s += " | ";
    s += clause_string(d.terms[i], " & ");
  }
  return s;
}

std::string to_string(const Cnf& c) {
  if (c.clauses.empty()) return "1";
  std::string s;
  for (std::size_t i = 0; i < c.clauses.size(); ++i) {
    if (i > 0) s += " & ";
    s += "(" + clause_string(c.clauses[i], " | ") + ")";
  }
  return s;
}

}  // namespace ovo::tt
