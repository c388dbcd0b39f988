#pragma once
// Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// A Manager owns a node pool for one fixed variable ordering (the paper's
// pi).  Levels are numbered top-down: level 0 is read first (the root
// level), level n-1 last; `order()[l]` is the 0-based variable read at
// level l.  Note the paper numbers levels bottom-up (its level n is the
// root); conversions happen in ovo::core.
//
// Nodes are referenced by NodeId.  Ids 0 and 1 are the false/true
// terminals.  All diagrams in one manager are fully reduced and share
// structure, so two NodeIds are equal iff they represent the same function
// (canonicity).  Nodes are never freed (arena style); managers are cheap
// to create per task, which is how the ordering search uses them.
//
// Storage lives in the shared ovo::ds node-store layer
// (ds::DiagramStoreBase): a struct-of-arrays node arena, per-level
// open-addressed unique tables, and a bounded generation-evicting ITE
// computed table.  Only the BDD reduction rule (a) and the Boolean
// operations live here.  See docs/INTERNALS.md for the layer's layout,
// eviction policy, and counters.

#include <cstdint>
#include <string>
#include <vector>

#include "ds/computed_cache.hpp"
#include "ds/diagram_store.hpp"
#include "tt/truth_table.hpp"
#include "util/check.hpp"

namespace ovo::bdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kFalse = 0;
inline constexpr NodeId kTrue = 1;

struct Node {
  std::int32_t level;  ///< top-down level; terminals use level = n
  NodeId lo = kFalse;  ///< 0-edge destination
  NodeId hi = kFalse;  ///< 1-edge destination
};

class Manager : public ds::DiagramStoreBase<Manager> {
  using Base = ds::DiagramStoreBase<Manager>;
  friend Base;

 public:
  /// Identity ordering: variable i at level i.
  explicit Manager(int num_vars);

  /// `order[l]` = variable read at level l (a permutation of 0..n-1).
  Manager(int num_vars, std::vector<int> order);

  bool is_terminal(NodeId id) const { return id <= kTrue; }
  Node node(NodeId id) const {
    return Node{arena_.level(id), arena_.lo(id), arena_.hi(id)};
  }

  struct Stats {
    std::size_t pool_nodes = 0;      ///< arena size incl. terminals
    std::size_t unique_entries = 0;  ///< hash-consing table entries
    std::size_t cache_entries = 0;   ///< live ITE computed-table entries
    ds::TableStats unique;           ///< unique-table probe/hit counters
    ds::CacheStats cache;            ///< ITE computed-table counters
  };
  Stats stats() const;

  /// Garbage-collects the arena: drops every node unreachable from
  /// `roots`, renumbers the survivors densely, rebuilds the unique
  /// tables, and invalidates the operation cache.  Each entry of `roots`
  /// is rewritten to its new id; all other NodeIds become invalid.
  /// Returns the number of nodes discarded.  (The main source of garbage
  /// is dynamic reordering.)
  std::size_t collect_garbage(std::vector<NodeId>* roots) {
    return gc_two_terminals(roots);
  }

  // --- construction -------------------------------------------------------

  NodeId constant(bool v) const { return v ? kTrue : kFalse; }

  /// The single-variable function x_var.
  NodeId var_node(int var);

  /// The literal x_var or !x_var.
  NodeId literal(int var, bool positive);

  /// Reduced unique node with the given children at `level`; applies
  /// reduction rule (a) (lo == hi) and hash-consing (rule (b)).
  /// Children must live at strictly greater levels.
  NodeId make(int level, NodeId lo, NodeId hi) {
    return make_node(level, lo, hi);
  }

  /// Builds the ROBDD of a truth table under this manager's ordering by
  /// bottom-up table compaction; O(2^n) time.
  NodeId from_truth_table(const tt::TruthTable& t);

  /// In-place swap of the variables at `level` and `level + 1` (dynamic
  /// reordering primitive). Every existing NodeId keeps denoting the same
  /// Boolean function; superseded nodes become arena garbage. Returns the
  /// number of nodes created. See bdd/dynamic_reorder.hpp for the sifting
  /// driver built on top.
  std::size_t swap_adjacent_levels(int level);

  // --- Boolean operations --------------------------------------------------

  /// If-then-else: the workhorse; all binary ops route through it.
  NodeId ite(NodeId f, NodeId g, NodeId h);

  NodeId apply_not(NodeId f) { return ite(f, kFalse, kTrue); }
  NodeId apply_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  NodeId apply_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  NodeId apply_xor(NodeId f, NodeId g) { return ite(f, apply_not(g), g); }
  NodeId apply_xnor(NodeId f, NodeId g) { return apply_not(apply_xor(f, g)); }
  NodeId apply_implies(NodeId f, NodeId g) { return ite(f, g, kTrue); }

  /// f with x_var fixed to val.
  NodeId restrict_var(NodeId f, int var, bool val);

  /// Existential / universal quantification of one variable.
  NodeId exists(NodeId f, int var);
  NodeId forall(NodeId f, int var);

  /// Functional composition: f with x_var replaced by g.
  NodeId compose(NodeId f, int var, NodeId g);

  // --- queries --------------------------------------------------------------

  bool eval(NodeId f, std::uint64_t assignment) const;

  tt::TruthTable to_truth_table(NodeId f) const;

  /// Number of satisfying assignments over all n variables.
  std::uint64_t satcount(NodeId f) const;

  // size(f) and level_widths(f) — the paper's OBDD size and Cost profile —
  // are inherited from ds::DiagramStoreBase.

  /// Variables f depends on, as a mask.
  util::Mask support(NodeId f) const;

  /// One satisfying assignment, if any. Returns false if f == kFalse.
  bool find_sat_assignment(NodeId f, std::uint64_t* assignment) const;

  /// Graphviz rendering for debugging / documentation.
  std::string to_dot(NodeId f, const std::string& name = "bdd") const;

 private:
  /// Reduction rule (a): equal children collapse to the child.
  static bool reduce_edge(NodeId lo, NodeId hi, NodeId* out) {
    if (lo == hi) {
      *out = lo;
      return true;
    }
    return false;
  }

  /// Base hook: swaps and GC renumbering make cached ids stale.
  void on_garbage_collected() { ite_cache_.invalidate_all(); }

  int top_level(NodeId f, NodeId g, NodeId h) const;

  NodeId restrict_rec(NodeId f, int level, bool val, ds::UniqueTable& memo);

  ds::ComputedCache ite_cache_;
};

/// Structural isomorphism across managers (levels must carry the same
/// variables). Used by tests to compare diagrams built under the same
/// ordering by different construction paths.
bool structurally_equal(const Manager& ma, NodeId a, const Manager& mb,
                        NodeId b);

}  // namespace ovo::bdd
