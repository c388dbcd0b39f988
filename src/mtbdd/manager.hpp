#pragma once
// Multi-terminal BDD (MTBDD / ADD) package for functions
// f: {0,1}^n -> Z (Remark 2 of the paper: the FS machinery minimizes these
// with the truth table replaced by a value table).
//
// Terminals are interned per distinct value; internal nodes follow the BDD
// reduction rules (lo == hi merged, hash consing).  Storage lives in the
// shared ovo::ds node-store layer; the per-terminal value column is a
// parallel vector kept in sync through the base's node-creation hook.
// See docs/INTERNALS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "ds/diagram_store.hpp"
#include "ds/hash.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace ovo::mtbdd {

using NodeId = std::uint32_t;
using Value = std::int64_t;

struct Node {
  std::int32_t level;   ///< n for terminals
  NodeId lo = 0;
  NodeId hi = 0;
  Value value = 0;      ///< meaningful for terminals only
};

class Manager : public ds::DiagramStoreBase<Manager> {
  using Base = ds::DiagramStoreBase<Manager>;
  friend Base;

 public:
  explicit Manager(int num_vars);
  Manager(int num_vars, std::vector<int> order);

  bool is_terminal(NodeId id) const { return arena_.level(id) == n_; }
  Node node(NodeId id) const {
    return Node{arena_.level(id), arena_.lo(id), arena_.hi(id), values_[id]};
  }

  struct Stats {
    std::size_t pool_nodes = 0;
    std::size_t unique_entries = 0;
    std::size_t terminal_entries = 0;  ///< distinct interned values
    ds::TableStats unique;
  };
  Stats stats() const;

  /// Interned terminal for `v`.
  NodeId terminal(Value v);

  /// Number of distinct terminal values created so far.
  std::size_t num_terminals() const { return terminals_.size(); }

  /// Reduced unique internal node.
  NodeId make(int level, NodeId lo, NodeId hi) {
    return make_node(level, lo, hi);
  }

  /// Builds the MTBDD of the value table `values` (size 2^n, cell a =
  /// f(assignment a), assignment bit i = variable i).
  NodeId from_value_table(const std::vector<Value>& values);

  /// Pointwise combination h(a) = op(f(a), g(a)).
  template <typename Op>
  NodeId apply(NodeId f, NodeId g, Op&& op) {
    ds::UniqueTable memo;
    return apply_rec(f, g, op, memo);
  }

  Value eval(NodeId f, std::uint64_t assignment) const;

  std::vector<Value> to_value_table(NodeId f) const;

  // size(f) and level_widths(f) are inherited from ds::DiagramStoreBase.

  std::string to_dot(NodeId f, const std::string& name = "mtbdd") const;

 private:
  /// BDD reduction rule (a); terminal interning is separate (terminal()).
  static bool reduce_edge(NodeId lo, NodeId hi, NodeId* out) {
    if (lo == hi) {
      *out = lo;
      return true;
    }
    return false;
  }

  /// Base hook: keeps the value column aligned with the arena.
  void on_node_created(NodeId) { values_.push_back(0); }

  template <typename Op>
  NodeId apply_rec(NodeId f, NodeId g, Op&& op, ds::UniqueTable& memo) {
    if (is_terminal(f) && is_terminal(g))
      return terminal(op(values_[f], values_[g]));
    const std::uint64_t key = ds::pack_pair(f, g);
    if (const std::uint32_t* hit = memo.find(key)) return *hit;
    const int level = std::min(arena_.level(f), arena_.level(g));
    const auto cof = [&](NodeId u, bool hi_branch) {
      if (arena_.level(u) != level) return u;
      return hi_branch ? arena_.hi(u) : arena_.lo(u);
    };
    const NodeId lo = apply_rec(cof(f, false), cof(g, false), op, memo);
    const NodeId hi = apply_rec(cof(f, true), cof(g, true), op, memo);
    const NodeId out = make(level, lo, hi);
    memo.insert(key, out);
    return out;
  }

  /// Terminal value column, parallel to the arena (0 for internal nodes).
  std::vector<Value> values_;
  /// Interns values: key = the value's bit pattern, entry = terminal id.
  ds::UniqueTable terminals_;
};

}  // namespace ovo::mtbdd
