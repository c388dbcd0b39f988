#pragma once
// Durable FS*/FS DP snapshots (the payload inside rt's checkpoint
// container) — layer-fence state of the Friedman–Supowit dynamic program,
// complete enough to resume a run bit-identically.
//
// A snapshot is taken only at a *layer fence*: every layer up to `layer`
// is fully published, nothing deeper exists.  That is the one program
// point where the DP's state is a pure value — the layer's tables (dense:
// all its canonical states; pruned: the packed survivors), J's symmetry
// classes, one record per state published so far (its tie set and
// MINCOST), the certified lower bound, and the fence's pinned counters
// (obs/metrics.hpp), each stored once by dotted name.
// Resuming re-seeds the engine with exactly that state, so the remaining
// layers — and every tie-break, pinned counter, and budget-trip decision
// after them — replay as if the run had never stopped, at any thread
// count (see docs/INTERNALS.md, "Checkpoint format & resume protocol").
// Measured counters are not stored: after a resume they cover only the
// work since.  Every layer of the one FS* engine ends at such a fence,
// so every run can write snapshots.
//
// The fingerprint binds a snapshot to its instance: a content hash of the
// base table plus every input that shapes the DP (J, stop layer, diagram
// kind, prune mode).  The thread count is deliberately *not*
// fingerprinted — the determinism contract makes results identical across
// thread counts, so resuming under a different execution policy is legal.
// Resuming against a non-matching fingerprint is a typed
// CheckpointError(kWrongInstance), never silent corruption.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/prefix_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/exec_policy.hpp"
#include "rt/checkpoint.hpp"
#include "util/bits.hpp"

namespace ovo::core {

/// Payload format version (the rt container carries it).  v3 stores the
/// counters as two keyed sections of pinned metrics (see encode_snapshot).
/// v4 keeps that layout; its fence section holds fs.cut_cells, and its
/// dedup counters count the lookups of the DP's bounded sweeps, so they
/// differ from a v3 file's for the same fence.  v5 runs the DP over
/// symmetry orbits: it stores J's symmetry classes and each state's tie
/// set, every mask in it is canonical, and a dense layer holds the
/// canonical states only; its fence section holds fs.states, and a ZDD
/// pruned run prunes against the ZDD bound.  v6 keeps v5's layout; its
/// seed section holds the counters of a sift seed that sizes each step's
/// insertion positions from one prefix chain, so they differ from a v5
/// file's for the same fence.  v7 stores each table's cells at
/// cell_width(next_id) bytes (prefix_table.hpp), with no width field.
/// v8 keeps v7's layout; its seed section holds the counters of a window,
/// restarts or anneal seed that sizes its candidates from one prefix
/// chain, with no order memo, so they differ from a v7 file's for the
/// same fence.  v9 stores each state once, as one 24-byte FsState record,
/// where v8 wrote a best-last entry with its tie set and a separate
/// mincost entry, and it drops v8's RNG seed and seed name.  Older files
/// load as kVersionSkew.
inline constexpr std::uint32_t kFsSnapshotVersion = 9;

/// What the DP keeps of one canonical state K ⊆ J it published: the
/// union of the classes whose candidates reach K's minimum (`ties`, as a
/// variable mask; the lowest member of K in it is the variable the dense
/// DP places on top of K, FsStarResult::choice) and MINCOST_{<I,K>}
/// (chain totals, including the base's mincost).  The empty set, layer
/// 0, has no ties.  FsStarResult and FsStarSnapshot keep their records
/// in strictly ascending mask order.
struct FsState {
  util::Mask mask = 0;
  util::Mask ties = 0;
  std::uint64_t mincost = 0;

  bool operator==(const FsState&) const = default;
};

/// The canonical state of K's symmetry orbit under `classes` (disjoint
/// masks): K with its members of each class replaced by as many of the
/// class's lowest members — the numerically smallest mask in the orbit.
/// K is canonical iff canonical_mask(classes, K) == K.
inline util::Mask canonical_mask(const std::vector<util::Mask>& classes,
                                 util::Mask K) {
  for (const util::Mask c : classes) {
    util::Mask low = 0;
    util::Mask rest = c;
    for (int m = util::popcount(K & c); m > 0; --m, rest &= rest - 1)
      low |= rest & (~rest + 1);
    K = (K & ~c) | low;
  }
  return K;
}

/// Identity of the DP instance a snapshot belongs to.
struct FsFingerprint {
  std::uint64_t base_hash = 0;  ///< FNV-1a over the base table's content
  std::uint32_t n = 0;          ///< variable universe size
  util::Mask prefix_vars = 0;   ///< the base's prefix set I
  util::Mask block = 0;         ///< the DP block J
  std::uint32_t stop_k = 0;     ///< requested stop layer
  std::uint8_t kind = 0;        ///< DiagramKind
  std::uint8_t prune = 0;       ///< par::PruneMode

  bool operator==(const FsFingerprint&) const = default;
};

/// Fingerprint of a run about to start (or to resume).
FsFingerprint fs_fingerprint(const PrefixTable& base, util::Mask J,
                             int stop_k, DiagramKind kind,
                             par::PruneMode prune);

/// One decoded layer-fence snapshot.  `dense` holds the layer's canonical
/// subsets as dense masks over J's bit positions in colex (== ascending
/// numeric) order; `tables[i]` is the table at `dense[i]`, at its width.
/// In dense mode the vectors cover the whole canonical layer; in pruned
/// mode they hold the packed survivors.  A run that resumes from the
/// snapshot moves `dense`, `tables` and `states` out of it.
struct FsStarSnapshot {
  FsFingerprint fingerprint;
  std::uint32_t num_terminals = 2;
  int layer = 0;  ///< deepest completed layer at the fence

  std::vector<util::Mask> dense;
  std::vector<NarrowTable> tables;

  /// J's symmetry classes (FsStarResult::classes), which fix the
  /// canonical states.
  std::vector<util::Mask> classes;

  /// The records of every state published through `layer`
  /// (FsStarResult::states), in strictly ascending mask order.
  std::vector<FsState> states;

  std::uint64_t certified_lower_bound = 0;

  /// The fence's pinned counters, each stored once: the caller's
  /// OpCounter (fs.*, ds.unique.*; none when it tracked none), the run's
  /// prune ledger (fs.prune.*, whose upper_bound is the *effective*
  /// incumbent after self-seeding, so a resume prunes against the
  /// identical bound without re-running the seed) and rt.work_charged
  /// (restored so later admit decisions replay the uninterrupted run's).
  /// The engine adds the run's prune ledger into the OpCounter only on
  /// return, and a checkpointing caller passes a fresh OpCounter, so the
  /// one fs.prune.* group here is exactly the run's prune ledger.
  obs::Ledger counters;

  /// Provenance: the heuristic order that seeded the incumbent (the
  /// order fs_star was handed, root first; empty in dense mode and for a
  /// self-seeded incumbent, else a permutation of the block).  Lets a
  /// resumed ladder skip its seeding stage yet hand the DP the same
  /// order, so the resumed run stops at the straight run's fence and
  /// keeps the order as a salvage candidate.
  std::vector<int> seed_order;
  /// The seed stage's pinned oracle ledger (reorder::OracleStats::
  /// to_ledger), restored into the resumed run's reported ledger.
  obs::Ledger seed_counters;
};

/// Borrowed view of fence state for zero-copy encoding: the engine points
/// it at its live layer vectors and at FsStarResult's records instead of
/// materializing an FsStarSnapshot.  The records must already be in
/// strictly ascending mask order — the engine keeps them that way as it
/// builds them — so the encoder writes them straight through, copying
/// and sorting nothing, and identical state encodes to identical bytes.
struct FsSnapshotView {
  const FsFingerprint* fingerprint = nullptr;
  std::uint32_t num_terminals = 2;
  int layer = 0;
  const std::vector<util::Mask>* dense = nullptr;
  const std::vector<NarrowTable>* tables = nullptr;
  const std::vector<util::Mask>* classes = nullptr;
  const std::vector<FsState>* states = nullptr;
  std::uint64_t certified_lower_bound = 0;
  const obs::Ledger* counters = nullptr;
  const std::vector<int>* seed_order = nullptr;  ///< null encodes empty
  const obs::Ledger* seed_counters = nullptr;
};

/// Bytes encode_snapshot_into reserves for a fence of `tables` layer
/// tables whose cells take `cell_bytes` bytes in all at their widths,
/// `states` records, and a seed order of `seed_order_len` variables.
/// Exact for those parts; the fixed fields, the classes (at most 64) and
/// the two counter sections (at most one entry per registry metric) are
/// bounded.  A writer that already holds this much beyond its contents
/// encodes the fence without regrowth.
std::uint64_t snapshot_payload_bound(std::uint64_t tables,
                                     std::uint64_t cell_bytes,
                                     std::uint64_t states,
                                     std::uint64_t seed_order_len);

/// Appends a fence view's payload bytes (deterministic) to `w`, in one
/// pass: `w` is reserved once for the whole payload, the layer's cells go
/// out in bulk and the records in their stored order.  Each counter ledger
/// becomes one keyed section: a u32 count, then (name, u64 bits) pairs
/// for its nonzero pinned metrics in strictly ascending dotted-name
/// order; measured slots are never written.  The engine appends into its
/// run-long frame right after the container header (rt::begin_frame).
void encode_snapshot_into(const FsSnapshotView& view, rt::ByteWriter& w);

/// The payload bytes alone, in a fresh buffer: encode_snapshot_into on an
/// empty writer.
std::vector<std::uint8_t> encode_snapshot(const FsSnapshotView& view);

/// Parses and *semantically validates* payload bytes: every structural
/// inconsistency the CRC cannot catch (mask order, a mask outside the
/// block, layer cardinality, classes that do not partition the block, a
/// mask that is not canonical, a dense layer short of its canonical
/// states, a tie set that is not a union of classes or misses its mask,
/// an empty set with ties, a cell array shorter than its count at its
/// table's width, a cell id at or past its table's next_id, table sizes
/// that disagree with the fingerprint, a seed order that is neither
/// empty nor a permutation of the block, a keyed section naming an
/// unknown or measured metric, repeating or misordering a name, storing
/// a zero, or holding more entries than the registry) throws a typed
/// CheckpointError — a decoded snapshot is safe to resume from without
/// further bounds checks.
FsStarSnapshot decode_snapshot(const std::uint8_t* data, std::size_t len);

/// Loads, CRC-verifies, decodes, and validates a snapshot file.
FsStarSnapshot load_snapshot(const std::string& path);

/// Checkpoint/resume configuration threaded into fs_star (and from there
/// into the engine, whose every layer fence holds a merged ledger).  Any
/// run may write or resume, at any thread count and prune mode; the
/// OpCounter passed alongside must start fresh, both when writing and
/// when resuming (see FsStarSnapshot::counters).
struct FsCheckpointOptions {
  /// Non-empty: write a snapshot here (atomically) at qualifying fences.
  std::string path;
  /// Snapshot at fences where layer is a multiple of `every`, and always
  /// when the governor trips, so a budgeted run persists its salvage
  /// state.
  int every = 1;
  /// Resume from this decoded snapshot (fingerprint-checked in fs_star).
  /// The run moves the snapshot's layer out of it: a snapshot seeds one
  /// run, and a caller that resumes twice decodes or copies it per run.
  FsStarSnapshot* resume = nullptr;
  /// Test/observer hook: receives every emitted payload (encoded bytes),
  /// before it is checksummed and written, and after the previous
  /// fence's file was committed.  The engine encodes into one frame
  /// buffer for the whole run, so a hook gets a copy of the payload;
  /// without a hook nothing is copied.
  std::function<void(const std::vector<std::uint8_t>&)> on_bytes;
  /// The seed stage's ledger, recorded verbatim into written snapshots
  /// beside the incumbent order fs_star was handed
  /// (FsStarSnapshot::seed_order).
  obs::Ledger seed_counters;

  bool writes() const {
    return !path.empty() || static_cast<bool>(on_bytes);
  }
  bool active() const { return resume != nullptr || writes(); }
};

}  // namespace ovo::core
