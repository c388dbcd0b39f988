#pragma once
// DNF / CNF representations (Corollary 2 input forms) with lowering to
// circuits, tabulation, random generation, and extraction from truth
// tables.

#include <string>
#include <vector>

#include "tt/circuit.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace ovo::tt {

/// A literal: 0-based variable index plus polarity (true = positive).
struct Literal {
  int var = 0;
  bool positive = true;

  bool operator==(const Literal&) const = default;
};

/// A clause is a set of literals; interpretation depends on the form
/// (conjunction of literals in DNF terms, disjunction in CNF clauses).
using Clause = std::vector<Literal>;

struct Dnf {
  int num_vars = 0;
  std::vector<Clause> terms;  ///< OR of ANDs; empty => constant false

  Circuit to_circuit() const;
  TruthTable to_truth_table() const { return to_circuit().to_truth_table(); }
};

struct Cnf {
  int num_vars = 0;
  std::vector<Clause> clauses;  ///< AND of ORs; empty => constant true

  Circuit to_circuit() const;
  TruthTable to_truth_table() const { return to_circuit().to_truth_table(); }
};

/// Canonical (minterm) DNF of a truth table — one term per satisfying
/// assignment.
Dnf minterm_dnf(const TruthTable& t);

/// Canonical (maxterm) CNF of a truth table.
Cnf maxterm_cnf(const TruthTable& t);

/// Random k-DNF with `terms` random width-k terms.
Dnf random_dnf(int n, int terms, int k, util::Xoshiro256& rng);

/// Random k-CNF with `clauses` random width-k clauses.
Cnf random_cnf(int n, int clauses, int k, util::Xoshiro256& rng);

/// Human-readable rendering, e.g. "x1 & !x2 | x3".
std::string to_string(const Dnf& d);
std::string to_string(const Cnf& c);

}  // namespace ovo::tt
