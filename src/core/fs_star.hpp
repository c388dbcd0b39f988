#pragma once
// Algorithm FS* (paper Lemma 8 / Appendix D): the composable form of the
// Friedman–Supowit dynamic program.  Starting from FS(I) (a PrefixTable for
// prefix set I), it computes FS(<I, K>) for all K ⊆ J of a given
// cardinality — or FS(<I, J>) when run to completion.  Algorithm FS itself
// (Theorem 5) is the special case I = ∅, J = [n], run to completion; see
// minimize.hpp for that entry point.
//
// One engine runs every call.  Layer k holds its states' tables packed
// in colexicographic order of the subset (over J's bit positions), with
// a sorted-mask index for predecessor lookup.  Subsets within a layer
// only read the previous layer, so each layer is one parallel_for over
// its states (the per-subset best-last-variable searches are
// independent) followed by a serial publish epilogue — the layer fence —
// that publishes each state's record (tie set and cost) in colex order,
// merges the per-thread OpCounter shards, charges the governor, and may
// encode a checkpoint, which a writer thread commits to disk while the
// next layer runs.  Every state writes to its own slot, so orders, sizes,
// tie-breaks, and merged OpCounter totals are bit-identical at every
// thread count.  The default policy is serial and bit-identical to the
// original single-threaded implementation.
//
// A dense run is the case that keeps every state.  Bound-pruned mode
// (ExecPolicy.prune = PruneMode::kBounds): full-block runs (stop_k ==
// |J|) additionally compute an admissible per-state lower bound — cost
// so far plus core::completion_bound, from the table's distinct-
// subfunction count and the block variables the function still depends
// on (the bound branch and bound prunes with too) — and
// drop every state whose bound exceeds a seeded upper bound (callers
// pass one from a cheap heuristic; 0 self-seeds from one ascending chain
// over J).  Dropped states cost zero bytes.  Because the incumbent is
// fixed before the DP starts and every state's bound is local, the
// surviving set — and therefore the optimal order, size, and every
// tie-break — is bit-identical to the dense run at every thread count
// (see docs/INTERNALS.md for the admissibility and determinism
// arguments).  A caller that also hands over the incumbent's order asks
// for less: the run stops at the first layer fence (layer 0 included)
// whose certified lower bound equals the incumbent, since from there the
// order is proven optimal (Lemma 4) and the later layers would only
// rebuild the dense DP's tie-break; the caller answers with its own
// order, which has the dense optimum's size.  Stop-early runs
// (stop_k < |J|) ignore the prune flag: their contract is one table per
// subset at the stop layer.  The default
// mode is kOff: every state kept, the prune ledger all zero.
//
// Symmetry orbits: when swapping two inputs of J leaves the base table
// unchanged, MINCOST(K) depends only on how many members of each such
// symmetry class K holds.  So a full-block run detects J's classes on the
// base and builds canonical states only — the sets holding the
// lowest-index members of each class — each with one transition per
// class present (remove that class's highest member in K).  Each state's
// record holds the classes whose candidates tie at its minimum, which
// recovers the dense DP's choice of top variable for any K ⊆ J
// (FsStarResult::choice).  Orders, sizes and tie-breaks are the dense DP's for every
// function; a function without a symmetric pair runs the dense DP state
// for state (docs/INTERNALS.md, "A DP over symmetry orbits").

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fs_checkpoint.hpp"
#include "core/prefix_table.hpp"
#include "parallel/exec_policy.hpp"
#include "rt/budget.hpp"

namespace ovo::core {

struct FsStarResult {
  /// Tables at the stop layer: one entry per canonical K ⊆ J with
  /// |K| = stop_k (a single entry with key J when run to completion).
  /// Keys are variable masks; each table's chain cost is table.mincost().
  /// They stay at the widths the layer stored them at, so a tripped or
  /// stop-early run returns its layer in the bytes it was admitted at; a
  /// caller that compacts one further widens that one.
  std::unordered_map<util::Mask, NarrowTable> tables;

  /// J's symmetry classes: every variable of J in exactly one class, as
  /// variable masks ascending by lowest member.  Two variables share a
  /// class iff swapping them leaves the base table unchanged; stop-early
  /// runs (stop_k < |J|) keep every subset, so their classes are
  /// singletons.
  std::vector<util::Mask> classes;

  /// One record per canonical K ⊆ J with |K| <= stop_k (FsState: K's
  /// tie set and MINCOST_{<I,K>}), in strictly ascending mask order; the
  /// empty set comes first, with no ties.  A run without a symmetric
  /// pair never sweeps a tying candidate to its end, so there a tie set
  /// is the winner's class alone — the lowest-index tied variable, which
  /// is all choice() reads.  Look a K up with state(); a set in the same
  /// orbit has the same record.  Each layer fence appends its states,
  /// which arrive in ascending order, and merges them into the records
  /// before it, so the vector is sorted as it is built: a snapshot
  /// encodes it as it stands (FsSnapshotView) and a resume moves the
  /// snapshot's vector in.
  std::vector<FsState> states;

  /// Deepest fully built layer.  Equals the requested stop_k when the run
  /// completed; smaller iff a governor tripped or the certified bound
  /// proved the incumbent order optimal, in which case `tables` holds the
  /// last *completed* layer (partial layers are discarded).  The two are
  /// told apart by the bound: a run handed an incumbent order stops on a
  /// proof exactly when certified_lower_bound == prune.upper_bound, and
  /// every trip leaves the bound below the incumbent.
  int completed_layers = 0;

  /// Bound-pruned runs only (all-zero otherwise).  In pruned mode,
  /// `tables` and `states` hold the *surviving* states of each layer;
  /// every chain the dense engine would reconstruct survives, so
  /// reconstruct_block_order works unchanged.
  PruneStats prune;

  /// Certified lower bound on MINCOST_{<I,J>}: the minimum, over the
  /// deepest completed layer's surviving states, of cost-so-far plus the
  /// admissible completion bound.  Valid even when a budget interrupted
  /// the run (the optimal chain's bottom-k state always survives); equals
  /// the optimal mincost when the pruned DP completed or stopped on a
  /// proof.  0 in dense mode —
  /// dense callers derive bounds from the tables themselves.
  std::uint64_t certified_lower_bound = 0;

  /// The state of K's orbit the DP built, canonical_mask(classes, K).
  /// Every lookup of an arbitrary K ⊆ J goes through it.
  util::Mask canonical(util::Mask K) const;

  /// The record of K ⊆ J, stored at canonical(K), by binary search; null
  /// when the run kept none (a pruned or never-built state).
  const FsState* state(util::Mask K) const;

  /// The variable the dense DP places on top of K ⊆ J, pi_{<I,K>}
  /// [|I|+|K|] (Lemma 7's argmin, lowest index among the tied): the
  /// lowest-index member of K among the classes tied at canonical(K).
  int choice(util::Mask K) const;
};

/// J's symmetry classes on `base` (see FsStarResult::classes): x_i and x_j
/// share a class iff every cell equals the cell with their coordinates
/// swapped.  Equal ids mean equal subfunctions, so the test holds for
/// BDD, ZDD and MTBDD tables alike, and over any prefix.
std::vector<util::Mask> symmetry_classes(const PrefixTable& base,
                                         util::Mask J);

/// Runs the FS* DP from `base` over block J (disjoint from base.vars),
/// stopping after layer `stop_k` (0 <= stop_k <= |J|).  `exec` controls
/// the per-layer fan-out over subsets; the default is serial.  Results
/// and merged OpCounter totals are identical for every thread count.
///
/// When `gov` is non-null the run is budgeted: each layer's work (its
/// canonical states' transitions — C(|J|,k)·k without a symmetric pair —
/// × predecessor cells) and projected residency are admitted *before* the
/// layer is built — a deterministic decision independent of thread count
/// — and cancellation/deadline are polled per state, discarding any
/// partially built layer.  Residency is admitted in cells against the
/// node limit and in bytes against the byte limit: the previous layer's
/// tables at their stored widths, the next layer's at the width of the
/// largest id it can reach.  In pruned
/// mode the admission estimate uses the *running sparse counts* (actual
/// surviving predecessors and candidate states) instead of the dense
/// closed form; the two agree while no state has been pruned.  On a trip
/// the result holds every layer up to `completed_layers` and remains
/// fully consistent (valid tables and records for all published
/// subsets) and — in pruned mode — still carries a consistent prune
/// ledger and a certified lower bound.
///
/// `prune_upper_bound` is the pruning incumbent: the exact size of some
/// real completion of the block (chain totals, including base.mincost()),
/// typically seeded from a cheap heuristic by the reorder layer.  0 means
/// "self-seed" (one ascending-order chain over J).  Ignored in dense
/// mode.  Passing a bound below the true optimum is a contract violation
/// (every state could be pruned) and is caught by an OVO_CHECK.
///
/// `incumbent_order` (the last argument; optional; null or empty: none)
/// is that completion: J's variables, root first, whose chain costs
/// prune_upper_bound.  A pruned full-block run that holds it stops at the
/// first fence whose certified bound equals the incumbent
/// (FsStarResult::completed_layers), writes it into its snapshots as
/// their seed provenance (FsStarSnapshot::seed_order), and needs no more
/// of the order than that.  Callers that read the DP's J table or its
/// records pass none and run every layer.  Ignored in dense mode; an order that is not
/// a permutation of J is caught by an OVO_CHECK.
///
/// `ckpt` (optional) turns on durable checkpoint/resume (see
/// fs_checkpoint.hpp): with a path (or byte hook), a snapshot of the full
/// fence state is emitted at each qualifying layer fence and on a
/// governor trip (a proof stop is none).  A fence's file is committed on
/// a writer thread while the next layer computes, and is on disk before the next snapshot is
/// encoded and before fs_star returns or throws; a failed commit is
/// thrown ahead of any error raised after it.  With a resume snapshot,
/// the DP restarts from that fence
/// and replays the remaining layers bit-identically — same order, sizes,
/// tie-breaks, ledgers (`*ops` gains the snapshot's fence totals, `gov`
/// is credited the snapshot's charged work), at any thread count.  The
/// run moves the snapshot's layer out of it, so one decoded snapshot
/// seeds one run; resuming it again is a contract violation (OVO_CHECK).  A
/// snapshot whose fingerprint does not match (base, J, stop_k, kind,
/// effective prune mode) throws rt::CheckpointError(kWrongInstance).
FsStarResult fs_star(const PrefixTable& base, util::Mask J, int stop_k,
                     DiagramKind kind, OpCounter* ops = nullptr,
                     const par::ExecPolicy& exec = {},
                     rt::Governor* gov = nullptr,
                     std::uint64_t prune_upper_bound = 0,
                     const FsCheckpointOptions* ckpt = nullptr,
                     const std::vector<int>* incumbent_order = nullptr);

/// Convenience: run to completion and return the single FS(<I, J>) table
/// (it hands fs_star no incumbent order, so a pruned run builds every
/// layer).
PrefixTable fs_star_full(const PrefixTable& base, util::Mask J,
                         DiagramKind kind, OpCounter* ops = nullptr,
                         std::vector<int>* block_order_bottom_up = nullptr,
                         const par::ExecPolicy& exec = {},
                         std::uint64_t prune_upper_bound = 0,
                         const FsCheckpointOptions* ckpt = nullptr);

/// Recovers the optimal within-block variable order of K ⊆ J (J itself
/// after a completed run) from the DP's tie sets, by r.choice: result[0]
/// is the variable at the lowest level of the block, result[|K|-1] the
/// one at its top (the paper's pi restricted to the block, bottom-up).
std::vector<int> reconstruct_block_order(const FsStarResult& r, util::Mask J);

}  // namespace ovo::core
