#pragma once
// The Friedman–Supowit dynamic-programming state and the table-compaction
// primitive (paper Sec. 2.3.1/2.3.2 and Appendix D's COMPACT).
//
// A PrefixTable is the paper's (TABLE_I, MINCOST_I) pair for a prefix set I
// of variables — the variables occupying the *bottom* |I| levels of the
// OBDD.  TABLE_I has one cell per assignment to the free variables
// [n] \ I (packed densely, ascending variable index), holding the id of
// the node representing the corresponding subfunction f|_{x_{[n]\I}=b}.
//
// Node ids are the paper's scheme: ids < num_terminals are terminals
// (0 = false, 1 = true for BDD/ZDD; interned value indices for MTBDD) and
// each created node takes the next free integer, so MINCOST_I equals
// next_id - num_terminals.  Within one chain of compactions the ids are
// canonical: two cells hold the same id iff their subfunctions are equal.
//
// NODE_I note: the paper stores the set NODE_I of all created triples and
// membership-tests (u0, u1) against the whole set.  Node equivalence
// (Sec. 2.2 rule (b)) requires var(u) = var(v), and a compaction with
// respect to x_k can never collide with a triple created for another
// variable (no triple with var = k exists before the compaction, and ids
// are canonical), so the membership test reduces to a map local to the
// current compaction.  We exploit that: the local map replaces NODE_I,
// which keeps the same O*(2^{n-|I|}) complexity with a much smaller
// constant.  (A literal whole-set (u0,u1) lookup ignoring var(u) would
// actually be incorrect: e.g. f = (x1 xor x2 plugged at x4=0) and
// (x1 xor x3 at x4=1) makes the pair (id(x1), id(!x1)) appear under both
// x2 and x3 — distinct functions that must not be merged.)

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "ds/unique_table.hpp"
#include "obs/metrics.hpp"
#include "rt/budget.hpp"
#include "tt/truth_table.hpp"
#include "util/bits.hpp"

namespace ovo::core {

/// Which reduction rule the compaction applies (paper Sec. 2.3.2 for BDDs,
/// Appendix D's two-line modification for ZDDs, Remark 2 for MTBDDs).
enum class DiagramKind { kBdd, kZdd, kMtbdd };

/// Ledger of the bound-pruned FS* execution mode (all zero when pruning
/// is off).  A DP state is *dead* when every predecessor was pruned (it
/// is skipped without computing its table), *generated* when its table
/// was computed, and then either *pruned* (its admissible lower bound
/// exceeded the incumbent upper bound; the table is freed immediately)
/// or *surviving* (published into the layer).  Cell counts compare the
/// cells the dense engine would have materialized for the same layers
/// against what the sparse layers actually held; the difference times
/// sizeof(cell) is the bytes pruning saved.
struct PruneStats {
  std::uint64_t upper_bound = 0;       ///< incumbent the DP pruned against
  std::uint64_t states_generated = 0;  ///< tables computed (pruned + surviving)
  std::uint64_t states_pruned = 0;     ///< generated, then cut by the bound
  std::uint64_t states_dead = 0;       ///< skipped: no surviving predecessor
  std::uint64_t states_surviving = 0;  ///< published into sparse layers
  std::uint64_t dense_cells = 0;       ///< cells a dense run would have held
  std::uint64_t sparse_cells = 0;      ///< cells actually materialized

  /// All states a dense run would have expanded for the same layers.
  std::uint64_t states_enumerated() const {
    return states_generated + states_dead;
  }
  /// Fraction of enumerated states that never reached a layer (dead or
  /// bound-pruned); 0 when pruning never ran.
  double prune_ratio() const {
    const std::uint64_t total = states_enumerated();
    return total == 0 ? 0.0
                      : static_cast<double>(states_pruned + states_dead) /
                            static_cast<double>(total);
  }

  /// Accumulates this struct into `l` under the fs.prune.* metric IDs
  /// (upper_bound is a kMax metric, the counts are kSum).
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kFsPruneUpperBound, upper_bound);
    l.record(obs::Metric::kFsPruneGenerated, states_generated);
    l.record(obs::Metric::kFsPrunePruned, states_pruned);
    l.record(obs::Metric::kFsPruneDead, states_dead);
    l.record(obs::Metric::kFsPruneSurviving, states_surviving);
    l.record(obs::Metric::kFsPruneDenseCells, dense_cells);
    l.record(obs::Metric::kFsPruneSparseCells, sparse_cells);
  }
  void from_ledger(const obs::Ledger& l) {
    upper_bound = l.get(obs::Metric::kFsPruneUpperBound);
    states_generated = l.get(obs::Metric::kFsPruneGenerated);
    states_pruned = l.get(obs::Metric::kFsPrunePruned);
    states_dead = l.get(obs::Metric::kFsPruneDead);
    states_surviving = l.get(obs::Metric::kFsPruneSurviving);
    dense_cells = l.get(obs::Metric::kFsPruneDenseCells);
    sparse_cells = l.get(obs::Metric::kFsPruneSparseCells);
  }

  /// Merge across runs, defined by the registry's policies: counts add,
  /// the incumbent keeps the loosest (largest) bound seen.
  PruneStats& operator+=(const PruneStats& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }
};

/// Work accounting: the paper measures time as table cells processed (each
/// compaction is linear in the table size up to log factors), and Remark 1
/// observes that space is of the same order — peak_cells tracks the
/// largest number of table cells simultaneously alive in the DP.
///
/// table_cells and compactions are the paper's logical counts: a sweep
/// that stopped at its id limit (compact_into_bounded) still adds its
/// whole input table and one compaction.  cut_cells counts the cells of
/// table_cells that no sweep read, so cells swept = table_cells -
/// cut_cells; the dedup counters count the lookups the sweeps made.
/// states counts the FS* DP states whose table was built: every
/// canonical state of a dense run but the empty set.
struct OpCounter {
  std::uint64_t table_cells = 0;  ///< cells of the tables compacted
  std::uint64_t cut_cells = 0;    ///< cells of table_cells never read
  std::uint64_t states = 0;       ///< DP states whose table was built
  std::uint64_t compactions = 0;  ///< number of COMPACT invocations
  std::uint64_t peak_cells = 0;   ///< max cells resident at once (Remark 1)
  ds::TableStats dedup;           ///< merged COMPACT dedup-table counters
  PruneStats prune;               ///< bound-pruned DP ledger (see above)

  void observe_resident(std::uint64_t cells) {
    if (cells > peak_cells) peak_cells = cells;
  }
  void reset() { *this = OpCounter{}; }

  /// Accumulates this counter — including its dedup and prune ledgers —
  /// into `l` under fs.* / ds.unique.* / fs.prune.*.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kFsTableCells, table_cells);
    l.record(obs::Metric::kFsCutCells, cut_cells);
    l.record(obs::Metric::kFsStates, states);
    l.record(obs::Metric::kFsCompactions, compactions);
    l.record(obs::Metric::kFsPeakCells, peak_cells);
    dedup.to_ledger(l);
    prune.to_ledger(l);
  }
  void from_ledger(const obs::Ledger& l) {
    table_cells = l.get(obs::Metric::kFsTableCells);
    cut_cells = l.get(obs::Metric::kFsCutCells);
    states = l.get(obs::Metric::kFsStates);
    compactions = l.get(obs::Metric::kFsCompactions);
    peak_cells = l.get(obs::Metric::kFsPeakCells);
    dedup.from_ledger(l);
    prune.from_ledger(l);
  }

  /// Merges a shard (e.g. a per-thread counter from a parallel DP layer)
  /// into this counter under the registry's policies: sums are added,
  /// peaks maxed.  All fields commute, so merged totals are exact and
  /// independent of which thread did what.
  OpCounter& operator+=(const OpCounter& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }
};

struct PrefixTable {
  int n = 0;                         ///< total number of variables
  util::Mask vars = 0;               ///< the prefix set I
  std::uint32_t num_terminals = 2;   ///< ids below this are terminals
  std::uint32_t next_id = 2;         ///< next fresh node id
  std::vector<std::uint32_t> cells;  ///< TABLE_I, size 2^{n - |I|}

  /// MINCOST_I along this chain: number of nodes created so far.
  std::uint64_t mincost() const { return next_id - num_terminals; }

  int free_count() const { return n - util::popcount(vars); }
  util::Mask free_mask() const { return util::full_mask(n) & ~vars; }
};

/// Bytes per cell of a table whose ids all lie below `next_id`: 1 for up
/// to 256 ids, 2 for up to 65,536, else 4.  The one width rule: the FS*
/// layers store each table at it, the governor admits a layer at it, and
/// a snapshot encodes each table's cells at it.
constexpr int cell_width(std::uint64_t next_id) {
  return next_id <= (std::uint64_t{1} << 8)    ? 1
         : next_id <= (std::uint64_t{1} << 16) ? 2
                                                : 4;
}

/// Cells stored at 1, 2 or 4 bytes each (see NarrowTable).
class NarrowCells {
 public:
  /// `count` zero cells of `width` bytes (1, 2 or 4).
  void resize(std::size_t count, int width);
  std::size_t size() const {
    return std::visit([](const auto& v) { return v.size(); }, cells_);
  }
  int width() const { return 1 << cells_.index(); }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(size()) *
           static_cast<std::uint64_t>(width());
  }
  /// Returns f(data, size) over the cells at their stored type.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit([&](const auto& v) { return f(v.data(), v.size()); },
                      cells_);
  }
  template <typename F>
  decltype(auto) visit(F&& f) {
    return std::visit([&](auto& v) { return f(v.data(), v.size()); },
                      cells_);
  }
  bool operator==(const NarrowCells&) const = default;

 private:
  std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
               std::vector<std::uint32_t>>
      cells_;
};

/// A PrefixTable stored at cell_width(next_id) bytes per cell: the form
/// in which the FS* DP keeps its layers, returns its stop layer and
/// snapshots a fence.  Compacting one reads it at its width and writes a
/// PrefixTable; a caller that compacts a result table further widens it.
struct NarrowTable {
  int n = 0;
  util::Mask vars = 0;
  std::uint32_t num_terminals = 2;
  std::uint32_t next_id = 2;
  NarrowCells cells;

  std::uint64_t mincost() const { return next_id - num_terminals; }

  /// The same table with u32 cells.
  PrefixTable widen() const;
};

/// Stores `t` into `out` at cell_width(t.next_id).
void narrow_into(NarrowTable& out, const PrefixTable& t);
NarrowTable narrow(const PrefixTable& t);

/// TABLE_{emptyset}: the truth table itself (paper Sec. 2.3.1).
PrefixTable initial_table(const tt::TruthTable& f);

/// MTBDD variant: TABLE_{emptyset} over a value table of size 2^n; distinct
/// values are interned as terminal ids 0..t-1 in order of first appearance.
/// `terminal_values` (optional out) receives the interned values.
PrefixTable initial_table_values(const std::vector<std::int64_t>& values,
                                 int n,
                                 std::vector<std::int64_t>* terminal_values =
                                     nullptr);

/// The paper's COMPACT: produces (TABLE_{(I,k)}, MINCOST_{(I,k)}) from
/// (TABLE_I, MINCOST_I) by compacting with respect to variable `var`
/// (which must be free in `t`).  Linear in |TABLE_I|.
///
/// The (u0, u1) pairs are numbered through a pair table owned by the
/// calling thread and kept across calls (docs/INTERNALS.md, "FS
/// compaction kernel").  Each call is one rt kAlloc fault event and adds
/// its counts to `*ops` once.
///
/// A non-null `gov` charges |TABLE_I| work units (one per cell read —
/// the paper's own work measure) before the sweep.  The compaction
/// always runs to completion either way; governed callers check the
/// governor *between* compactions, so a finished table is never left
/// half-built.  Callers that pre-admit whole batches (the DP layers,
/// the candidate evaluators) pass gov = nullptr here and charge the
/// closed-form batch total instead.
PrefixTable compact(const PrefixTable& t, int var, DiagramKind kind,
                    OpCounter* ops = nullptr, rt::Governor* gov = nullptr);

/// compact() writing into `out`, reusing out's cells buffer (no
/// allocation once out's capacity covers |TABLE_I| / 2 and the thread's
/// pair table has reached the call's size).  The workhorse
/// of the DP inner loop and the chain evaluator, where a fresh table per
/// compaction would churn the allocator.  `out` must not alias `t`.
void compact_into(PrefixTable& out, const PrefixTable& t, int var,
                  DiagramKind kind, OpCounter* ops = nullptr,
                  rt::Governor* gov = nullptr);

/// compact_into with an id limit, for callers that only want the table
/// if its next_id stays below `id_limit` (its mincost below id_limit -
/// num_terminals).  The sweep stops as soon as the pair that hands out
/// id id_limit - 1 is read, and before reading a cell if t.next_id >=
/// id_limit; it returns false then, and out's cells are unspecified.
/// Otherwise it returns true and `out` is compact_into's table.  Either
/// way the call is one kAlloc fault event and adds t's whole table and
/// one compaction to `*ops`, the cells it did not read to cut_cells and
/// the lookups it made to the dedup counters.
bool compact_into_bounded(PrefixTable& out, const PrefixTable& t, int var,
                          DiagramKind kind, std::uint32_t id_limit,
                          OpCounter* ops = nullptr);

/// compact_into and compact_into_bounded reading a narrow table: the same
/// kernel, instantiated for the table's cell width.
void compact_into(PrefixTable& out, const NarrowTable& t, int var,
                  DiagramKind kind, OpCounter* ops = nullptr);
bool compact_into_bounded(PrefixTable& out, const NarrowTable& t, int var,
                          DiagramKind kind, std::uint32_t id_limit,
                          OpCounter* ops = nullptr);

/// The width Cost_var(f, pi_{(I,var)}) this compaction would add, without
/// materializing the new table (same cost; used when only the size matters).
std::uint64_t compaction_width(const PrefixTable& t, int var,
                               DiagramKind kind, OpCounter* ops = nullptr);

// ---------------------------------------------------------------------------
// The admissible completion bound both exact searches prune with: the
// bound-pruned FS* DP per state, branch and bound per child.  By Lemma 3
// a state's completion cost depends on its table alone, so one bound
// serves any chain's table.

/// Free variables of `base` that label a node in every diagram of the
/// remaining block, computed once per search on the base table.
///  * BDD and MTBDD: the variables whose assignment can change a cell id.
///    Because ids are canonical per table, v is in the support iff two
///    cells differing only in v's coordinate differ — i.e. some pair of
///    subfunctions over the placed variables differs, a property
///    invariant under compacting *other* variables.  So the support on
///    the base table is each later state's exact remaining-dependence set.
///  * ZDD: a variable that no satisfying assignment sets is suppressed at
///    every level, whatever it depends on (f = ¬x1 ∧ g), while one that
///    some assignment sets lies on that assignment's path.  So the
///    support is the variables with a cell whose coordinate is 1 and
///    whose id is not the 0-terminal — also placement-invariant.
util::Mask bound_support(const PrefixTable& base, DiagramKind kind);

/// completion_bound's scratch, one per thread: a generation-stamped
/// array over node ids, so a count is O(|cells|) with no clearing
/// between states.
struct BoundScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t gen = 0;
};

/// Admissible completion bound: the nodes ANY placement of `remaining`
/// (free in `t`) must still create from a state with table `t`, the max
/// of two terms that hold for every completion order.
///  * Sink bound: the q nodes the completed block adds carry 2q outgoing
///    pointers, the finished block's table contributes `final_cells`
///    root pointers, and each of the q nodes plus each of t's d distinct
///    cell ids needs at least one incoming pointer — so 2q + final_cells
///    >= q + d, i.e. q >= d - final_cells.  A ZDD reaches the 0-terminal
///    through suppressed hi edges, which need no pointer, so for ZDDs d
///    leaves id 0 out.
///  * Dependence bound: every variable of `remaining` in `support`
///    (bound_support of the search's base) labels at least one node.
std::uint64_t completion_bound(const PrefixTable& t, util::Mask remaining,
                               util::Mask support, std::uint64_t final_cells,
                               DiagramKind kind, BoundScratch& scratch);

/// Completes `t` upward greedily: repeatedly compacts the free variable
/// whose compaction adds the fewest nodes (ties to the smallest index),
/// appending each to `order_bottom_up`, until no variable is free.
/// Deterministic and O(n^2 · |cells|); each width probe and each
/// compaction counts into `*ops`.
void greedy_complete(PrefixTable& t, DiagramKind kind,
                     std::vector<int>* order_bottom_up,
                     OpCounter* ops = nullptr);

}  // namespace ovo::core
