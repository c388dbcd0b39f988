#pragma once
// Durable FS*/FS DP snapshots (the payload inside rt's checkpoint
// container) — layer-fence state of the Friedman–Supowit dynamic program,
// complete enough to resume a run bit-identically.
//
// A snapshot is taken only at a *layer fence*: every layer up to `layer`
// is fully published, nothing deeper exists.  That is the one program
// point where the DP's state is a pure value — the layer's tables (dense:
// all C(|J|,k) of them; pruned: the packed survivors), the accumulated
// back-pointer/mincost maps, the prune ledger and certified lower bound,
// the merged OpCounter at the fence, and the governor work charged so
// far.  Resuming re-seeds the engine with exactly that state, so the
// remaining layers — and every tie-break, ledger total, and budget-trip
// decision after them — replay as if the run had never stopped, at any
// thread count (see docs/INTERNALS.md, "Checkpoint format & resume
// protocol").  Every layer of the one FS* engine ends at such a fence,
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prefix_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/exec_policy.hpp"
#include "rt/checkpoint.hpp"
#include "util/bits.hpp"

namespace ovo::core {

/// Payload format version (the rt container carries it).  v2 appends the
/// unified obs ledger section (see encode_snapshot) after the DP maps.
inline constexpr std::uint32_t kFsSnapshotVersion = 2;

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

/// Oracle-side counters of the heuristic stage that seeded the pruning
/// incumbent (stage 0 of the governed ladder).  Recorded into snapshots
/// so a resumed run — which skips that stage — still reports the
/// uninterrupted run's ledger totals.
struct FsSeedStats {
  std::uint64_t queries = 0;    ///< size queries the seed stage answered
  std::uint64_t evals = 0;      ///< chain evaluations it performed
  std::uint64_t memo_hits = 0;  ///< queries served from its memo
  OpCounter ops;                ///< its chain-evaluation work ledger

  /// Accumulates the seed-stage counters into `l` under fs.seed.*.  Only
  /// the headline table-cell total of `ops` is projected (fs.seed.
  /// table_cells); its dedup shards stay seed-local so they never mix
  /// with the DP's own ds.unique.* totals.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kFsSeedQueries, queries);
    l.record(obs::Metric::kFsSeedEvals, evals);
    l.record(obs::Metric::kFsSeedMemoHits, memo_hits);
    l.record(obs::Metric::kFsSeedTableCells, ops.table_cells);
  }
  void from_ledger(const obs::Ledger& l) {
    queries = l.get(obs::Metric::kFsSeedQueries);
    evals = l.get(obs::Metric::kFsSeedEvals);
    memo_hits = l.get(obs::Metric::kFsSeedMemoHits);
    ops.table_cells = l.get(obs::Metric::kFsSeedTableCells);
  }
};

/// One decoded layer-fence snapshot.  `dense` holds the layer's subsets
/// as dense masks over J's bit positions in colex (== ascending numeric)
/// order; `tables[i]` is the table at `dense[i]`.  In dense mode the
/// vectors cover the whole layer; in pruned mode they hold the packed
/// survivors.
struct FsStarSnapshot {
  FsFingerprint fingerprint;
  std::uint32_t num_terminals = 2;
  int layer = 0;  ///< deepest completed layer at the fence

  std::vector<util::Mask> dense;
  std::vector<PrefixTable> tables;

  /// Accumulated DP maps through `layer`, sorted by variable mask.
  std::vector<std::pair<util::Mask, int>> best_last;
  std::vector<std::pair<util::Mask, std::uint64_t>> mincost;

  PruneStats prune;
  std::uint64_t certified_lower_bound = 0;

  /// Merged OpCounter at the fence (zeros when the run tracked none).
  OpCounter ops;
  /// Governor work charged through the fence; restored on resume so
  /// later admit decisions replay the uninterrupted run's.
  std::uint64_t work_charged = 0;

  /// The *effective* pruning incumbent (after self-seeding), so a resume
  /// prunes against the identical bound without re-running the seed.
  std::uint64_t prune_upper_bound = 0;

  /// Provenance: the heuristic order that seeded the incumbent (root
  /// first; empty in dense mode), its RNG seed, and the seed strategy
  /// name.  Lets a resumed ladder skip its seeding stage yet keep the
  /// seed order as a salvage candidate.
  std::vector<int> seed_order;
  std::uint64_t rng_seed = 0;
  std::string seed_name;
  /// The seed stage's oracle counters, restored into the resumed run's
  /// reported ledger.
  FsSeedStats seed_stats;

  /// The unified obs ledger at the fence (payload v2 section).  Always
  /// derivable from the legacy fields above — decode_snapshot verifies
  /// that equivalence, so a loaded snapshot's ledger is trustworthy.
  obs::Ledger ledger;
};

/// Borrowed view of fence state for zero-copy encoding: the engine points
/// it at its live layer vectors instead of materializing an
/// FsStarSnapshot.  Map entries are sorted by mask during encoding, so
/// identical state always encodes to identical bytes.
struct FsSnapshotView {
  const FsFingerprint* fingerprint = nullptr;
  std::uint32_t num_terminals = 2;
  int layer = 0;
  const std::vector<util::Mask>* dense = nullptr;
  const std::vector<PrefixTable>* tables = nullptr;
  const std::unordered_map<util::Mask, int>* best_last = nullptr;
  const std::unordered_map<util::Mask, std::uint64_t>* mincost = nullptr;
  const PruneStats* prune = nullptr;
  std::uint64_t certified_lower_bound = 0;
  const OpCounter* ops = nullptr;  ///< null encodes as zeros
  std::uint64_t work_charged = 0;
  std::uint64_t prune_upper_bound = 0;
  const std::vector<int>* seed_order = nullptr;  ///< null encodes empty
  std::uint64_t rng_seed = 0;
  const std::string* seed_name = nullptr;      ///< null encodes empty
  const FsSeedStats* seed_stats = nullptr;     ///< null encodes zeros
};

/// Serializes a fence view to payload bytes (deterministic).
std::vector<std::uint8_t> encode_snapshot(const FsSnapshotView& view);

/// Parses and *semantically validates* payload bytes: every structural
/// inconsistency the CRC cannot catch (mask order, layer cardinality,
/// cell ids out of range, table sizes that disagree with the fingerprint)
/// throws a typed CheckpointError — a decoded snapshot is safe to resume
/// from without further bounds checks.
FsStarSnapshot decode_snapshot(const std::uint8_t* data, std::size_t len);

/// Frames `payload` (see rt::save_checkpoint) and writes it atomically.
void save_snapshot(const std::string& path,
                   const std::vector<std::uint8_t>& payload);

/// Loads, CRC-verifies, decodes, and validates a snapshot file.
FsStarSnapshot load_snapshot(const std::string& path);

/// Checkpoint/resume configuration threaded into fs_star (and from there
/// into the engine, whose every layer fence holds a merged ledger).  Any
/// run may write or resume, at any thread count and prune mode.
struct FsCheckpointOptions {
  /// Non-empty: write a snapshot here (atomically) at qualifying fences.
  std::string path;
  /// Snapshot at fences where layer is a multiple of `every` (and always
  /// on a trip).
  int every = 1;
  /// Also snapshot when the governor trips, so a budgeted run persists
  /// its salvage state.
  bool on_trip = true;
  /// Resume from this decoded snapshot (fingerprint-checked in fs_star).
  const FsStarSnapshot* resume = nullptr;
  /// Test/observer hook: receives every emitted payload (encoded bytes).
  std::function<void(const std::vector<std::uint8_t>&)> on_bytes;
  /// Provenance recorded verbatim into written snapshots.
  std::vector<int> seed_order;
  std::uint64_t rng_seed = 0;
  std::string seed_name;
  FsSeedStats seed_stats;

  bool writes() const {
    return !path.empty() || static_cast<bool>(on_bytes);
  }
  bool active() const { return resume != nullptr || writes(); }
};

}  // namespace ovo::core
