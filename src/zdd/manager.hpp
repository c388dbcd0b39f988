#pragma once
// Zero-suppressed Binary Decision Diagram (ZDD) package [Min93].
//
// Same arena/canonicity design as bdd::Manager, but with Minato's
// zero-suppression rule: a node whose 1-edge points to the false terminal
// is removed (replaced by its 0-child).  A skipped level on a path means
// "this variable must be 0".  ZDDs canonically represent families of sets
// (the satisfying assignments viewed as subsets of the variable set) and
// are the paper's second minimization target (Remark 2 / Appendix D).
//
// Storage lives in the shared ovo::ds node-store layer (arena, per-level
// open-addressed unique tables, bounded op cache); see docs/INTERNALS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "ds/computed_cache.hpp"
#include "ds/diagram_store.hpp"
#include "tt/truth_table.hpp"
#include "util/check.hpp"

namespace ovo::zdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kEmpty = 0;  ///< false terminal: the empty family {}
inline constexpr NodeId kUnit = 1;   ///< true terminal: the family { {} }

struct Node {
  std::int32_t level;
  NodeId lo = kEmpty;
  NodeId hi = kEmpty;
};

class Manager : public ds::DiagramStoreBase<Manager> {
  using Base = ds::DiagramStoreBase<Manager>;
  friend Base;

 public:
  explicit Manager(int num_vars);
  Manager(int num_vars, std::vector<int> order);

  bool is_terminal(NodeId id) const { return id <= kUnit; }
  Node node(NodeId id) const {
    return Node{arena_.level(id), arena_.lo(id), arena_.hi(id)};
  }

  struct Stats {
    std::size_t pool_nodes = 0;
    std::size_t unique_entries = 0;
    std::size_t cache_entries = 0;  ///< live op-cache entries
    ds::TableStats unique;
    ds::CacheStats cache;
  };
  Stats stats() const;

  /// Reduced unique node; applies the zero-suppression rule (hi == kEmpty
  /// => lo) and hash consing.
  NodeId make(int level, NodeId lo, NodeId hi) {
    return make_node(level, lo, hi);
  }

  /// Canonical ZDD of the characteristic function `t` under this ordering.
  NodeId from_truth_table(const tt::TruthTable& t);

  /// ZDD of an explicit family of sets (each set a variable mask).
  NodeId from_family(const std::vector<util::Mask>& sets);

  /// The family containing exactly one set.
  NodeId single_set(util::Mask set);

  // --- family algebra [Min93] ------------------------------------------------
  NodeId family_union(NodeId p, NodeId q);
  NodeId family_intersection(NodeId p, NodeId q);
  NodeId family_difference(NodeId p, NodeId q);
  /// Minato's cofactor operators: subset0 = members not containing var;
  /// subset1 = members containing var, with var factored out (removed),
  /// i.e. { A \ {var} : A ∈ f, var ∈ A }.
  NodeId subset0(NodeId f, int var);
  NodeId subset1(NodeId f, int var);
  /// Toggles membership of var in every set.
  NodeId change(NodeId f, int var);

  // --- queries ---------------------------------------------------------------
  bool eval(NodeId f, std::uint64_t assignment) const;
  tt::TruthTable to_truth_table(NodeId f) const;

  /// Number of sets in the family (= satisfying assignments).
  std::uint64_t count(NodeId f) const;

  /// All member sets, ascending by mask value. Intended for small families.
  std::vector<util::Mask> enumerate(NodeId f) const;

  // size(f) and level_widths(f) are inherited from ds::DiagramStoreBase.

  std::string to_dot(NodeId f, const std::string& name = "zdd") const;

 private:
  /// Zero-suppression: a suppressed 1-edge collapses to the 0-child.
  static bool reduce_edge(NodeId lo, NodeId hi, NodeId* out) {
    if (hi == kEmpty) {
      *out = lo;
      return true;
    }
    return false;
  }

  ds::ComputedCache op_cache_;
};

}  // namespace ovo::zdd
