#include "core/fs_star.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <limits>
#include <new>
#include <optional>
#include <system_error>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

/// Subsets per work chunk: per-subset work is exponential in the
/// free-variable count, so a chunk is a single subset.
constexpr std::uint64_t kGrain = 1;

/// Expands a dense subset of J's bit positions into a variable mask.
util::Mask spread_mask(util::Mask dense, const std::vector<int>& j_vars) {
  util::Mask K = 0;
  util::for_each_bit(dense, [&](int b) {
    K |= util::Mask{1} << j_vars[static_cast<std::size_t>(b)];
  });
  return K;
}

std::uint64_t engine_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Checkpoint/resume plumbing (see fs_checkpoint.hpp for the contract).

/// Trace slot of the commit thread: one past the last slot a parallel
/// region's participants use, so its spans get a lane of their own.
constexpr int kWriterLane = par::ThreadPool::kMaxThreads;

/// Dispatch-resolved checkpoint plan handed to the engine: the caller's
/// options, the run's fingerprint, the incumbent's order (the snapshots'
/// seed provenance), the one frame buffer every fence of the run encodes
/// into, and the commit of the last sealed frame.
struct CkptPlan {
  const FsCheckpointOptions* opts = nullptr;
  FsFingerprint fp;
  const std::vector<int>* seed_order = nullptr;  ///< null encodes empty
  std::uint32_t num_terminals = 2;
  /// Container header + payload of the latest snapshot.  Cleared, never
  /// freed, between fences; a dense run sizes it once for its widest
  /// fence (reserve_dense_frame).
  rt::ByteWriter frame;
  /// The sealed frame's rt::write_file_atomic — temp write, fsync,
  /// close, rename, directory fsync — on a thread of its own while the
  /// next layer computes.  It only reads `frame`.
  std::future<void> commit;
  int commit_layer = 0;

  CkptPlan() = default;
  CkptPlan(const CkptPlan&) = delete;
  CkptPlan& operator=(const CkptPlan&) = delete;
  /// The engine joins every commit, on its exception paths too; waiting
  /// here as well keeps the writer from outliving `frame` regardless.
  ~CkptPlan() {
    if (commit.valid()) commit.wait();
  }

  bool writes() const { return opts != nullptr && opts->writes(); }
  FsStarSnapshot* resume() const {
    return opts != nullptr ? opts->resume : nullptr;
  }

  /// Waits for the pending commit, if any, and rethrows its failure.
  void join() {
    if (!commit.valid()) return;
    OVO_TRACE_SPAN_ARGS("fs.checkpoint.wait", "rt", 0, "layer",
                        commit_layer, nullptr, 0);
    commit.get();
  }
};

/// Smallest piece of a payload whose CRC is worth a pool participant.
constexpr std::size_t kCrcChunkBytes = std::size_t{1} << 20;

/// rt::crc32 of `len` bytes, computed by the pool threads that sit idle
/// at a fence: at most one chunk per thread and only as many chunks as
/// each hold about kCrcChunkBytes, their CRCs folded in order with
/// rt::crc32_combine — the same value bit for bit.  A payload under two
/// chunks (or a serial run) is one chunk: it runs on the caller with no
/// region, so no kTaskDispatch event fires.  Otherwise each chunk is one
/// kTaskDispatch fault site, and an injected fault throws before the
/// caller opens the temp file.
std::uint32_t pooled_crc32(const std::uint8_t* data, std::size_t len,
                           int threads) {
  struct Piece {
    std::uint32_t crc = 0;  // crc32 of the empty string
    std::uint64_t len = 0;
  };
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(threads), len / kCrcChunkBytes));
  const std::uint64_t grain = (len + chunks - 1) / chunks;
  return par::ThreadPool::shared()
      .parallel_reduce(
          0, len, grain, threads, Piece{},
          [&](std::uint64_t lo, std::uint64_t hi) {
            return Piece{rt::crc32(data + lo, hi - lo), hi - lo};
          },
          [](Piece a, Piece b) {
            return Piece{rt::crc32_combine(a.crc, b.crc, b.len),
                         a.len + b.len};
          })
      .crc;
}

/// Emits one layer-fence snapshot from live engine state.  Only called at
/// a layer fence, where `dense`/`tables` hold the completed layer, the
/// result maps and prune ledger are published through it, and
/// `ops`/`gov` hold merged totals.  The counters stored are `*ops`, the
/// run's prune ledger (its upper_bound is the effective incumbent) and
/// the governor's work.  The previous fence's commit is joined first:
/// the frame is about to be reused, and a hook may read the committed
/// file.  The payload is encoded once, straight after a zeroed container
/// header in the plan's frame; the header is filled in place and the
/// whole frame is committed by one atomic write, which runs on the
/// plan's writer while the engine goes on to the next layer.
void emit_fence_snapshot(CkptPlan& plan, int layer,
                         const std::vector<util::Mask>& dense,
                         const std::vector<NarrowTable>& tables,
                         const FsStarResult& result, const OpCounter* ops,
                         const rt::Governor* gov, int threads) {
  plan.join();
  rt::ByteWriter& frame = plan.frame;
  {
    OVO_TRACE_SPAN_NAMED(span, "fs.checkpoint", "rt", 0, "layer", layer,
                         "bytes", 0);
    FsSnapshotView v;
    v.fingerprint = &plan.fp;
    v.num_terminals = plan.num_terminals;
    v.layer = layer;
    v.dense = &dense;
    v.tables = &tables;
    v.classes = &result.classes;
    v.best_last = &result.best_last;
    v.ties = &result.ties;
    v.mincost = &result.mincost;
    v.certified_lower_bound = result.certified_lower_bound;
    obs::Ledger counters;
    if (ops != nullptr) ops->to_ledger(counters);
    result.prune.to_ledger(counters);
    if (gov != nullptr)
      counters.record(obs::Metric::kRtWorkCharged, gov->stats().work_units);
    v.counters = &counters;
    v.seed_order = plan.seed_order;
    v.rng_seed = plan.opts->rng_seed;
    v.seed_name = &plan.opts->seed_name;
    v.seed_counters = &plan.opts->seed_counters;
    rt::begin_frame(frame);
    encode_snapshot_into(v, frame);
    OVO_TRACE_SET_ARG_B(span, frame.size());
    const std::uint8_t* payload = frame.data().data() + rt::kFrameHeaderSize;
    const std::size_t len = frame.size() - rt::kFrameHeaderSize;
    if (plan.opts->on_bytes)
      plan.opts->on_bytes(std::vector<std::uint8_t>(payload, payload + len));
    if (plan.opts->path.empty()) return;
    rt::seal_frame(frame, kFsSnapshotVersion,
                   pooled_crc32(payload, len, threads));
  }
  const auto write = [path = &plan.opts->path, data = frame.data().data(),
                      size = frame.size(), layer] {
    OVO_TRACE_SPAN_ARGS("fs.checkpoint.write", "rt", kWriterLane, "layer",
                        layer, "bytes", size);
    rt::write_file_atomic(*path, data, size);
  };
  plan.commit_layer = layer;
  try {
    plan.commit = std::async(std::launch::async, write);
  } catch (const std::system_error&) {
    write();  // no thread to spare: commit in line
  }
}

/// Bound on the next_id of a compaction of a table whose ids lie below
/// `next_id` and whose sweep reads `pairs` cell pairs: each new id is a
/// distinct pair of old ids, so at most min(pairs, next_id^2) are handed
/// out.  next_id >= 1, and the test avoids the square's overflow.
std::uint64_t compacted_id_bound(std::uint64_t next_id, std::uint64_t pairs) {
  return next_id + (next_id > pairs / next_id ? pairs : next_id * next_id);
}

/// Sizes the plan's frame once for the widest fence a dense run's
/// cadence will write, so the buffer is allocated, and its pages faulted
/// in, once per run rather than at every new widest fence.  A dense
/// layer k holds all its canonical states (C(|J|,k) without a symmetric
/// pair) of (base cells >> k) cells each, stored at no more than the
/// width of compacted_id_bound applied k times to the base's next_id,
/// and the maps hold every state of layers 0..k (a dense run records no
/// seed order), so each fence's frame follows from closed forms (the
/// base is resident and has at least 2^|J| cells, so none of them
/// overflows).  Under a governor with a
/// byte or node limit the reservation is capped at the byte limit and at
/// 4 bytes per cell of the node limit; if the allocator refuses it, the
/// frame grows fence by fence, as a pruned run's does.
void reserve_dense_frame(CkptPlan& plan, const PrefixTable& base,
                         const util::OrbitCounts& counts, int start_layer,
                         int stop_k, const rt::Governor* gov) {
  if (!plan.writes() || plan.opts->every <= 0) return;
  const FsCheckpointOptions& o = *plan.opts;
  std::uint64_t widest = 0;
  std::uint64_t map_states = 1;  // layers 0..k; layer 0 is the empty set
  std::uint64_t id_bound = base.next_id;
  for (int k = 1; k < stop_k; ++k) {
    const std::uint64_t states = counts.states[static_cast<std::size_t>(k)];
    const std::uint64_t cells_per_table =
        static_cast<std::uint64_t>(base.cells.size()) >> k;
    map_states += states;
    id_bound = compacted_id_bound(id_bound, cells_per_table);
    if (k <= start_layer || k % o.every != 0) continue;
    const std::uint64_t cell_bytes =
        states * cells_per_table *
        static_cast<std::uint64_t>(cell_width(id_bound));
    widest = std::max<std::uint64_t>(
        widest, rt::kFrameHeaderSize +
                    snapshot_payload_bound(states, cell_bytes,
                                           map_states - 1, map_states,
                                           o.seed_name.size(), 0));
  }
  if (gov != nullptr) {
    const rt::Budget& b = gov->budget();
    if (b.bytes_limit != 0) widest = std::min(widest, b.bytes_limit);
    if (b.node_limit != 0 && b.node_limit < widest / 4)
      widest = 4 * b.node_limit;
  }
  try {
    plan.frame.reserve(static_cast<std::size_t>(widest));
  } catch (const std::bad_alloc&) {
    // The encoder grows the frame per fence instead.
  }
}

/// True at a fence that should persist: the cadence hit (or a trip, which
/// the engine handles separately).
bool fence_due(const CkptPlan& plan, int layer, int stop_k) {
  return plan.writes() && layer < stop_k && plan.opts->every > 0 &&
         layer % plan.opts->every == 0;
}

/// Seeds a result with a snapshot's accumulated maps and ledgers.  The
/// engine then replays layers `snapshot.layer + 1 ..` exactly as the
/// uninterrupted run would have.
void apply_resume(FsStarResult& result, const FsStarSnapshot& s) {
  result.best_last = s.best_last;
  result.ties = s.ties;
  result.mincost = s.mincost;
  result.prune.from_ledger(s.counters);
  result.certified_lower_bound = s.certified_lower_bound;
  result.completed_layers = s.layer;
}

/// Merges the entries appended since `old_size` — one layer's states,
/// ascending by mask — into the ascending entries before them.  Two
/// layers never share a mask, so the map stays strictly ascending; the
/// merge is linear in the map's size, with no lookups and no sort.
template <typename V>
void merge_layer(std::vector<std::pair<util::Mask, V>>& map,
                 std::size_t old_size) {
  std::inplace_merge(
      map.begin(), map.begin() + static_cast<std::ptrdiff_t>(old_size),
      map.end(), [](const std::pair<util::Mask, V>& a,
                    const std::pair<util::Mask, V>& b) {
        return a.first < b.first;
      });
}

// ---------------------------------------------------------------------------
// Symmetry orbits (see FsStarResult::classes).

/// Whether swapping the free-variable coordinates of strides `si` and
/// `sj` leaves every cell unchanged; stops at the first mismatch.
bool swap_invariant(const std::vector<std::uint32_t>& cells, std::size_t si,
                    std::size_t sj) {
  for (std::size_t a = 0; a < cells.size(); ++a)
    if ((a & si) != 0 && (a & sj) == 0 && cells[a] != cells[a ^ si ^ sj])
      return false;
  return true;
}

/// The engine's view of J's classes, over dense positions into j_vars.
/// A canonical state holds the lowest members of each class, and its
/// transitions are the tops of the classes present in it (each class's
/// highest member in the state).  When every class is a singleton every
/// subset is canonical and every member a top: the dense DP.
struct Orbits {
  /// Classes of two or more members, as dense masks.
  std::vector<util::Mask> multi;
  /// Per position: its whole class, and the next higher member of its
  /// class (0 at the class's highest member).
  std::vector<util::Mask> whole;
  std::vector<util::Mask> next;

  Orbits(const std::vector<util::Mask>& classes, util::Mask J) {
    const int j_size = util::popcount(J);
    whole.assign(static_cast<std::size_t>(j_size), 0);
    next.assign(static_cast<std::size_t>(j_size), 0);
    for (const util::Mask c : classes) {
      const util::Mask dc = util::gather_bits(c, J);
      if (util::popcount(dc) > 1) multi.push_back(dc);
      util::for_each_bit(dc, [&](int b) {
        whole[static_cast<std::size_t>(b)] = dc;
        const util::Mask above = dc & ~util::full_mask(b + 1);
        next[static_cast<std::size_t>(b)] = above & (~above + 1);
      });
    }
  }

  bool symmetric() const { return !multi.empty(); }

  bool canonical(util::Mask d) const {
    return canonical_mask(multi, d) == d;
  }

  /// The transitions of canonical d: its members whose class has no
  /// higher member in d.
  util::Mask tops(util::Mask d) const {
    if (!symmetric()) return d;
    util::Mask t = 0;
    util::for_each_bit(d, [&](int b) {
      if ((d & next[static_cast<std::size_t>(b)]) == 0)
        t |= util::Mask{1} << b;
    });
    return t;
  }
};

/// All of J's variables as singleton classes: a stop-early run's.
std::vector<util::Mask> singleton_classes(util::Mask J) {
  std::vector<util::Mask> classes;
  util::for_each_bit(J, [&](int v) { classes.push_back(util::Mask{1} << v); });
  return classes;
}

/// The layer counts of the DP over `classes`.
util::OrbitCounts class_counts(const std::vector<util::Mask>& classes) {
  std::vector<int> sizes;
  for (const util::Mask c : classes) sizes.push_back(util::popcount(c));
  return util::orbit_counts(sizes);
}

// ---------------------------------------------------------------------------
// The engine.

/// The per-state kernel: finds the best last variable for canonical
/// dense state `d` by compacting, for each class top b of d, the
/// predecessor table of d \ b in the previous layer (packed states, found
/// by binary search in their strictly ascending masks `prev_dense`, and
/// read at their stored widths), writing the winner into `best` (Lemma
/// 7's argmin).  `cand` and `best` are the calling thread's u32 tables;
/// the caller narrows the winner into the state's slot.  A predecessor
/// missing from `prev_dense` was pruned: every chain through it already
/// exceeds the incumbent, so skipping it never changes the argmin on a
/// surviving state.  Candidates are visited in ascending bit order, and
/// the first to reach the minimum keeps its table.
///
/// Every member of a class yields the same cost (the swap maps one
/// candidate onto the other), so K's argmin over its variables is an
/// argmin over its classes.  `*ties_out` collects the whole classes whose
/// candidate reaches the minimum, and `*best_var_out` is the dense DP's
/// choice: the lowest member of d in them.
///
/// Branch and bound: a candidate's cost is its predecessor's mincost plus
/// the ids its sweep hands out, so it only grows as the sweep goes on.
/// The first candidate is swept in full; every later one is swept with an
/// id limit and stopped once it reaches it — skipped before its first
/// cell when the predecessor's mincost is already there.  Without a
/// symmetric class the limit is best.next_id (best cost +
/// num_terminals): a later candidate wins only with a strictly lower
/// cost, so a stopped one could never have won, and the lowest bit wins a
/// tie.  With one the limit is best.next_id + 1, so a tying candidate is
/// swept to its end and joins the ties; it never replaces `best`, since
/// every minimum-cost table of K has the same partition and next_id.
/// Either way the winner is never stopped: `best` and the costs are the
/// full sweep's.
void best_last_for_subset(util::Mask d, const std::vector<NarrowTable>& prev,
                          const std::vector<util::Mask>& prev_dense,
                          bool prev_complete, const std::vector<int>& j_vars,
                          const Orbits& orbits, DiagramKind kind,
                          OpCounter* shard, PrefixTable& cand,
                          PrefixTable& best, int* best_var_out,
                          std::uint64_t* best_cost_out,
                          util::Mask* ties_out) {
  const std::uint32_t slack = orbits.symmetric() ? 1 : 0;
  std::uint64_t bc = std::numeric_limits<std::uint64_t>::max();
  util::Mask tied = 0;  // tops whose candidate reaches bc
  util::for_each_bit(orbits.tops(d), [&](int b) {
    const util::Mask pd = d & ~(util::Mask{1} << b);
    const auto it = std::lower_bound(prev_dense.begin(), prev_dense.end(), pd);
    if (it == prev_dense.end() || *it != pd) {
      // A complete previous layer never misses a predecessor.
      OVO_DCHECK(!prev_complete);
      return;  // predecessor pruned
    }
    const NarrowTable& pred =
        prev[static_cast<std::size_t>(it - prev_dense.begin())];
    const int var = j_vars[static_cast<std::size_t>(b)];
    if (tied == 0) {
      compact_into(cand, pred, var, kind, shard);
    } else if (!compact_into_bounded(cand, pred, var, kind,
                                     best.next_id + slack, shard)) {
      return;  // cost > bc, or >= bc without a symmetric class
    } else if (cand.next_id == best.next_id) {
      tied |= util::Mask{1} << b;
      return;
    }
    bc = cand.mincost();
    tied = util::Mask{1} << b;
    std::swap(best, cand);
  });
  util::Mask ties = 0;
  util::for_each_bit(tied, [&](int b) {
    ties |= orbits.whole[static_cast<std::size_t>(b)];
  });
  *best_var_out = tied == 0 ? -1
                            : j_vars[static_cast<std::size_t>(
                                  util::lowest_bit(d & ties))];
  *best_cost_out = bc;
  *ties_out = ties;
}

/// The FS* engine: one parallel_for per layer over the layer's candidate
/// states, then a serial publish epilogue (the layer fence).  Layers are
/// stored packed — the kept states in colex order, beside their strictly
/// ascending masks — so a dense run is the case that keeps every state:
/// with `ub` empty every candidate is kept, no bound is computed, and the
/// prune ledger and certified bound stay zero.
///
/// Symmetry orbits: the candidates are the canonical states of `orbits`,
/// and each state's transitions its class tops (see Orbits); without a
/// symmetric class that is every subset and every member.  The layer
/// counts come from `counts`, the closed form for `classes`.
///
/// Bound pruning (`ub` set): each state's admissible bound is tested
/// against the fixed incumbent *ub.  The incumbent never moves during the
/// DP and each bound depends only on its own state's table, so the
/// surviving set is a pure function of (base, J, ub) — identical at every
/// thread count.  The bound is invariant under the symmetry, so the
/// survivors are closed under it.  The kernel sees the dense DP's
/// candidates in the same order along every surviving chain, so the
/// optimal order, size, and every tie-break match the dense run bit for
/// bit.
///
/// Proof stop (`stop_on_proof`, pruned runs whose caller holds the
/// incumbent's order): the run ends at the first fence — layer 0, or the
/// resumed fence, included — whose certified bound equals *ub.  Every
/// completion costs at least that bound, so the incumbent's order is
/// optimal (Lemma 4), and the layers after it would only rebuild the
/// dense DP's tie-break.  The bound is serial fence state, tested after
/// the fence's snapshot, so the run stops at the same fence at every
/// thread count and on a resume, and a proof writes no trip snapshot.
///
/// Determinism: every candidate writes its table/best-var/best-cost/ties
/// into its own slot, shards merge at each fence, and governor admission
/// is made serially per layer from the layer's exact work — surviving
/// predecessors × predecessor cells, the closed form transitions[k]·cells
/// when nothing was pruned — so trips, orders, sizes, tie-breaks, and
/// merged OpCounter totals are identical at every thread count.
///
/// Barrier-wait accounting: charged time is the layer-boundary
/// serialization the per-layer barrier imposes — the publish epilogue
/// after every fanned-out region plus the final extraction, each costing
/// (threads - 1) x its duration in parked participants.  Serial setup
/// before the fan-out (admission, enumeration, allocation) is overhead
/// visible in wall clock, not barrier stall, and is not charged.
FsStarResult fs_star_layers(const PrefixTable& base, util::Mask J,
                            int stop_k, DiagramKind kind, OpCounter* ops,
                            int threads, rt::Governor* gov,
                            std::optional<std::uint64_t> ub,
                            bool stop_on_proof,
                            std::vector<util::Mask> classes,
                            const util::OrbitCounts& counts, CkptPlan& plan) {
  const bool prune = ub.has_value();
  const int j_size = util::popcount(J);
  const std::vector<int> j_vars = util::bits_of(J);
  const Orbits orbits(classes, J);
  par::ThreadPool& pool = par::ThreadPool::shared();

  FsStarResult result;
  result.classes = std::move(classes);
  if (prune) result.prune.upper_bound = *ub;
  result.mincost.emplace_back(util::Mask{0}, base.mincost());

  // Placement-invariant bound inputs, computed once per pruned run.
  const util::Mask base_support = prune ? bound_support(base, kind) & J : 0;
  const std::uint64_t final_cells =
      static_cast<std::uint64_t>(base.cells.size()) >> j_size;

  // Layer k holds the kept k-subsets of J (over dense positions into
  // j_vars) in colex order, with one NarrowTable each.  Layer 0 is the
  // base.  A resume snapshot's layer stands in for layers
  // 0..snapshot.layer, moved out of the snapshot; its ledger (including
  // the restored layer-fence lower bound) replaces the layer-0
  // certification below.
  FsStarSnapshot* resume = plan.resume();
  const int start_layer = resume != nullptr ? resume->layer : 0;
  if (!prune) reserve_dense_frame(plan, base, counts, start_layer, stop_k, gov);
  std::vector<NarrowTable> prev;
  std::vector<util::Mask> prev_dense;

  // Per-thread-slot state: two u32 tables the kernel sweeps candidates
  // into, so the inner loop reuses the same buffers on every state and
  // only the winner is stored, once, at its width; OpCounter shards
  // merged after each layer (exact: all fields commute); bound scratch.
  struct SweepScratch {
    PrefixTable cand, best;
  };
  std::vector<SweepScratch> scratch(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  std::vector<BoundScratch> bounds(static_cast<std::size_t>(threads));

  if (resume != nullptr) {
    apply_resume(result, *resume);
    prev = std::move(resume->tables);
    prev_dense = std::move(resume->dense);
    resume->tables.clear();
    resume->dense.clear();
  } else {
    prev.push_back(narrow(base));
    prev_dense.push_back(util::Mask{0});
    // The run may trip before layer 1: layer 0's bound is still
    // certified.
    if (prune)
      result.certified_lower_bound =
          base.mincost() +
          completion_bound(base, J, base_support, final_cells, kind,
                           bounds[0]);
  }

  const std::atomic<bool>* stop_flag =
      gov != nullptr ? gov->stop_flag() : nullptr;
  // The previous layer's cells, its bytes at their widths, and the
  // largest next_id among its tables, which bounds the next layer's.
  std::uint64_t prev_resident = 0;
  std::uint64_t prev_bytes = 0;
  std::uint64_t prev_top_id = 0;
  for (const NarrowTable& t : prev) {
    prev_resident += t.cells.size();
    prev_bytes += t.cells.bytes();
    prev_top_id = std::max<std::uint64_t>(prev_top_id, t.next_id);
  }
  std::uint64_t serial_ns = 0;
  int last_snapshot_layer = -1;
  const auto proved = [&] {
    return stop_on_proof && result.certified_lower_bound == *ub;
  };
  for (int layer = start_layer + 1; layer <= stop_k && !proved(); ++layer) {
    const std::uint64_t layer_size =
        counts.states[static_cast<std::size_t>(layer)];
    const std::uint64_t pred_cells =
        static_cast<std::uint64_t>(base.cells.size()) >> (layer - 1);

    // Serial candidate enumeration: canonical states with at least one
    // kept predecessor, in colex order (Gosper enumeration yields masks
    // in increasing numeric order, which for fixed popcount IS colex rank
    // order; without a symmetric class every state is canonical).  The
    // kept-predecessor total is the layer's exact compaction work.  A
    // complete previous layer — every dense layer — keeps every
    // predecessor, so its lookups per state are skipped.
    const bool prev_complete =
        prev_dense.size() == counts.states[static_cast<std::size_t>(layer) - 1];
    OVO_DCHECK(std::adjacent_find(prev_dense.begin(), prev_dense.end(),
                                  std::greater_equal<>()) ==
               prev_dense.end());
    std::vector<util::Mask> cand;
    cand.reserve(static_cast<std::size_t>(layer_size));
    std::uint64_t n_dead = 0;
    std::uint64_t n_comp = 0;
    util::for_each_subset_of_size(j_size, layer, [&](util::Mask m) {
      if (!orbits.canonical(m)) return;
      const util::Mask tops = orbits.tops(m);
      int live = util::popcount(tops);
      if (!prev_complete) {
        live = 0;
        util::for_each_bit(tops, [&](int b) {
          if (std::binary_search(prev_dense.begin(), prev_dense.end(),
                                 m & ~(util::Mask{1} << b)))
            ++live;
        });
      }
      if (live > 0) {
        cand.push_back(m);
        n_comp += static_cast<std::uint64_t>(live);
      } else {
        ++n_dead;
      }
    });
    OVO_CHECK_MSG(cand.size() + n_dead == layer_size,
                  "fs_star: layer enumeration incomplete");

    const std::uint64_t layer_work = n_comp * pred_cells;
    if (gov != nullptr) {
      // Deterministic pre-admission from the layer's exact cost, made
      // before any allocation.  Both layers are resident while the next
      // one is built (Remark 1): the previous layer at its actual bytes,
      // the next at the width its ids can reach from the previous
      // layer's largest next_id.  Live candidates stand in for the dense
      // closed form, so a pruned run fits budgets a dense run of the same
      // n would trip.
      const std::uint64_t cur_cells =
          static_cast<std::uint64_t>(cand.size()) * (pred_cells >> 1);
      const std::uint64_t cur_width = static_cast<std::uint64_t>(
          cell_width(compacted_id_bound(prev_top_id, pred_cells >> 1)));
      if (!gov->admit_nodes(prev_resident + cur_cells) ||
          !gov->admit_bytes(prev_bytes + cur_cells * cur_width) ||
          !gov->admit_work(layer_work))
        break;
    }

    std::vector<NarrowTable> cur(cand.size());
    std::vector<int> best_var(cand.size(), -1);
    std::vector<std::uint64_t> best_cost(cand.size());
    std::vector<util::Mask> ties(cand.size());
    std::vector<std::uint64_t> bound(prune ? cand.size() : 0);
    std::vector<std::uint8_t> keep(cand.size(), prune ? 0 : 1);

    // A layer of <= kGrain candidates takes parallel_for's serial fast
    // path; its epilogue is not a fan-out seam, so it is not charged.
    const bool fans_out = threads > 1 && cand.size() > kGrain;
    {
      OVO_TRACE_SPAN_ARGS("fs.group", "fs", 0, "layer",
                          static_cast<std::uint64_t>(layer), nullptr, 0);
      pool.parallel_for(
          0, cand.size(), kGrain, threads, stop_flag,
          [&](std::uint64_t i, int slot) {
            if (gov != nullptr) gov->poll();  // cancel/deadline polling
            OpCounter* shard =
                ops != nullptr ? &shards[static_cast<std::size_t>(slot)]
                               : nullptr;
            const std::size_t s = static_cast<std::size_t>(i);
            SweepScratch& sc = scratch[static_cast<std::size_t>(slot)];
            best_last_for_subset(cand[s], prev, prev_dense, prev_complete,
                                 j_vars, orbits, kind, shard, sc.cand,
                                 sc.best, &best_var[s], &best_cost[s],
                                 &ties[s]);
            if (prune) {
              // The prune decision is state-local and the incumbent is
              // fixed, so deciding it inside the parallel body is safe
              // and deterministic; a pruned state is never stored.
              const util::Mask rest = J & ~spread_mask(cand[s], j_vars);
              BoundScratch& bs = bounds[static_cast<std::size_t>(slot)];
              bound[s] = best_cost[s] + completion_bound(sc.best, rest,
                                                         base_support,
                                                         final_cells, kind, bs);
              if (bound[s] > *ub) return;
              keep[s] = 1;
            }
            narrow_into(cur[s], sc.best);
          });
    }
    const std::uint64_t epilogue_t0 = fans_out ? engine_now_ns() : 0;
    if (gov != nullptr && gov->stopped()) break;  // discard partial layer

    {
      // Serial epilogue (the layer fence): publish kept states in colex
      // order — ascending K, since spreading dense positions over the
      // ascending j_vars keeps their order — merge them into the maps,
      // and re-pack the layer in place.
      OVO_TRACE_SPAN_NAMED(fence_span, "fs.fence", "fs", 0, "layer",
                           static_cast<std::uint64_t>(layer), "cut_cells", 0);
      std::size_t kept = 0;
      std::uint64_t cur_resident = 0;
      std::uint64_t cur_bytes = 0;
      std::uint64_t cur_top_id = 0;
      std::uint64_t layer_lb_min = std::numeric_limits<std::uint64_t>::max();
      const std::size_t old_best_last = result.best_last.size();
      const std::size_t old_ties = result.ties.size();
      const std::size_t old_mincost = result.mincost.size();
      for (std::size_t i = 0; i < cand.size(); ++i) {
        OVO_CHECK(best_var[i] >= 0);
        if (keep[i] == 0) continue;
        const util::Mask K = spread_mask(cand[i], j_vars);
        result.best_last.emplace_back(K, best_var[i]);
        result.ties.emplace_back(K, spread_mask(ties[i], j_vars));
        result.mincost.emplace_back(K, best_cost[i]);
        if (prune && bound[i] < layer_lb_min) layer_lb_min = bound[i];
        cur_resident += cur[i].cells.size();
        cur_bytes += cur[i].cells.bytes();
        cur_top_id = std::max<std::uint64_t>(cur_top_id, cur[i].next_id);
        cand[kept] = cand[i];
        if (kept != i) cur[kept] = std::move(cur[i]);
        ++kept;
      }
      OVO_CHECK_MSG(kept > 0,
                    "fs_star: pruning incumbent below the true optimum");
      merge_layer(result.best_last, old_best_last);
      merge_layer(result.ties, old_ties);
      merge_layer(result.mincost, old_mincost);
      const std::uint64_t generated = cand.size();
      if (prune) {
        result.prune.states_generated += generated;
        result.prune.states_pruned += generated - kept;
        result.prune.states_dead += n_dead;
        result.prune.states_surviving += kept;
        result.prune.dense_cells += layer_size * (pred_cells >> 1);
        result.prune.sparse_cells += cur_resident;
        result.certified_lower_bound = layer_lb_min;
      }
      cand.resize(kept);
      cur.resize(kept);
      if (ops != nullptr) {
        ops->states += generated;
        [[maybe_unused]] const std::uint64_t cut_before = ops->cut_cells;
        for (OpCounter& shard : shards) {
          *ops += shard;
          shard.reset();
        }
        OVO_TRACE_SET_ARG_B(fence_span, ops->cut_cells - cut_before);
        ops->observe_resident(prev_resident + cur_resident);
      }
      prev_resident = cur_resident;
      prev_bytes = cur_bytes;
      prev_top_id = cur_top_id;
      prev = std::move(cur);
      prev_dense = std::move(cand);
      result.completed_layers = layer;
      if (gov != nullptr) gov->charge(layer_work);
    }
    if (fans_out) serial_ns += engine_now_ns() - epilogue_t0;
    // Snapshot IO happens after charging, so a resumed run's first
    // admit decision sees exactly the work total recorded here.
    if (fence_due(plan, layer, stop_k)) {
      emit_fence_snapshot(plan, layer, prev_dense, prev, result, ops, gov,
                          threads);
      last_snapshot_layer = layer;
    }
  }

  // Trip snapshot: persist the deepest completed layer even off-cadence,
  // so a budget/cancel trip never loses fence state (a proof stop is no
  // trip: its fence is as far as the run goes).  Must run before
  // extraction moves the tables out, and before the final prune-ledger
  // merge into `ops`: fence-time ops never include the merge (it happens
  // once, at engine end), so a resumed run — which restores the stored
  // OpCounter and result.prune, then merges at its own end — reproduces
  // the uninterrupted run's final totals exactly.
  if (plan.writes() && result.completed_layers < stop_k &&
      result.completed_layers != last_snapshot_layer && !proved())
    emit_fence_snapshot(plan, result.completed_layers, prev_dense, prev,
                        result, ops, gov, threads);

  const std::uint64_t extract_t0 = threads > 1 ? engine_now_ns() : 0;
  for (std::size_t r = 0; r < prev.size(); ++r)
    result.tables.emplace(spread_mask(prev_dense[r], j_vars),
                          std::move(prev[r]));
  if (threads > 1) {
    serial_ns += engine_now_ns() - extract_t0;
    par::charge_barrier_wait(static_cast<std::uint64_t>(threads - 1) *
                             serial_ns);
  }
  if (prune && ops != nullptr) ops->prune += result.prune;
  return result;
}

/// Closed-form total compaction work of a dense run to layer stop_k:
/// each layer-k transition costs one compaction over base_cells >> (k-1)
/// predecessor cells.  Used by the small-n serial fallback — below this
/// threshold the whole DP is cheaper than the fan-out it would buy
/// (BENCH_fs.json shows speedup < 0.5 for n <= 6 on this structure).
std::uint64_t dense_dp_work(const util::OrbitCounts& counts,
                            std::uint64_t base_cells, int stop_k) {
  std::uint64_t total = 0;
  for (int k = 1; k <= stop_k; ++k)
    total += counts.transitions[static_cast<std::size_t>(k)] *
             (base_cells >> (k - 1));
  return total;
}

constexpr std::uint64_t kSerialFallbackWork = std::uint64_t{1} << 13;

/// Self-seed incumbent: the chain cost of placing J's variables in
/// ascending bit order on top of `base` — one real completion, so always
/// an admissible upper bound.  Counted into `ops` like any other chain
/// evaluation; not governor-charged (it replaces work the caller's
/// heuristic seeding would otherwise have spent).
std::uint64_t ascending_chain_bound(const PrefixTable& base, util::Mask J,
                                    DiagramKind kind, OpCounter* ops) {
  PrefixTable cur = base;
  PrefixTable nxt;
  util::for_each_bit(J, [&](int v) {
    compact_into(nxt, cur, v, kind, ops);
    std::swap(cur, nxt);
  });
  return cur.mincost();
}

}  // namespace

FsStarResult fs_star(const PrefixTable& base, util::Mask J, int stop_k,
                     DiagramKind kind, OpCounter* ops,
                     const par::ExecPolicy& exec, rt::Governor* gov,
                     std::uint64_t prune_upper_bound,
                     const FsCheckpointOptions* ckpt,
                     const std::vector<int>* incumbent_order) {
  OVO_CHECK_MSG((base.vars & J) == 0, "fs_star: J overlaps prefix I");
  OVO_CHECK_MSG(util::is_subset(J, util::full_mask(base.n)),
                "fs_star: J outside variable universe");
  const int j_size = util::popcount(J);
  OVO_CHECK_MSG(stop_k >= 0 && stop_k <= j_size, "fs_star: bad stop layer");

  int threads = par::ThreadPool::clamp_threads(exec.resolved_threads());

  // Symmetry orbits, detected once per full-block run; a stop-early run
  // keeps every subset of its stop layer.
  std::vector<util::Mask> classes = stop_k == j_size
                                        ? symmetry_classes(base, J)
                                        : singleton_classes(J);
  const util::OrbitCounts counts = class_counts(classes);

  // Small-n serial fallback: when the whole DP's closed-form work is
  // below the fan-out's break-even, or no layer even fills one chunk,
  // run serially — same engine, same results, no pool round-trip.
  if (threads > 1 && stop_k > 0) {
    const std::uint64_t widest = *std::max_element(
        counts.states.begin() + 1, counts.states.begin() + stop_k + 1);
    if (dense_dp_work(counts, base.cells.size(), stop_k) <
            kSerialFallbackWork ||
        widest <= kGrain)
      threads = 1;
  }

  // Bound pruning applies only to full-block runs: stop-early callers
  // (partition search over block boundaries) require a table for *every*
  // stop-layer subset, which pruning deliberately violates.
  const bool prune = exec.prune == par::PruneMode::kBounds &&
                     stop_k == j_size && j_size > 0;
  // The incumbent's order, like its size, means nothing to a dense run.
  const std::vector<int>* order =
      prune && incumbent_order != nullptr && !incumbent_order->empty()
          ? incumbent_order
          : nullptr;

  // Checkpoint plan: fingerprint the run, validate a resume snapshot
  // against it (a mismatch is the *caller's* instance error, so it is a
  // typed CheckpointError, not an OVO_CHECK), and restore the fence
  // ledgers once, at this serial point — every later charge and admit
  // then replays the uninterrupted run's decisions bit for bit.
  CkptPlan plan;
  if (ckpt != nullptr && ckpt->active()) {
    plan.opts = ckpt;
    plan.num_terminals = base.num_terminals;
    plan.fp = fs_fingerprint(
        base, J, stop_k, kind,
        prune ? par::PruneMode::kBounds : par::PruneMode::kOff);
    plan.seed_order = order;
    if (ckpt->resume != nullptr) {
      if (!(ckpt->resume->fingerprint == plan.fp))
        throw rt::CheckpointError(
            rt::CheckpointErrorKind::kWrongInstance,
            "checkpoint: snapshot fingerprint does not match this run "
            "(different function, block, stop layer, kind, or prune mode)");
      if (ckpt->resume->classes != classes)
        throw rt::CheckpointError(
            rt::CheckpointErrorKind::kMalformed,
            "checkpoint: snapshot symmetry classes disagree with the base "
            "table");
      OVO_CHECK_MSG(!ckpt->resume->tables.empty(),
                    "fs_star: resume snapshot already consumed by a run");
      const obs::Ledger& stored = ckpt->resume->counters;
      if (ops != nullptr) {
        OpCounter restored;  // the stored fs.prune.* are the run's own
        restored.from_ledger(stored);
        restored.prune = PruneStats{};
        *ops += restored;
      }
      if (gov != nullptr)
        gov->restore_work(stored.get(obs::Metric::kRtWorkCharged));
    }
  }

  if (order != nullptr) {
    util::Mask placed = 0;
    for (const int v : *order)
      if (v >= 0 && v < base.n) placed |= util::Mask{1} << v;
    OVO_CHECK_MSG(order->size() == static_cast<std::size_t>(j_size) &&
                      placed == J,
                  "fs_star: incumbent order is not a permutation of J");
  }

  std::optional<std::uint64_t> ub;
  if (prune) {
    // A resume snapshot carries the *effective* incumbent of the original
    // run (post self-seed), so resuming neither re-seeds nor re-runs the
    // ascending chain — bounds and ops replay identically.
    const FsStarSnapshot* resume = plan.resume();
    ub = resume != nullptr
             ? resume->counters.get(obs::Metric::kFsPruneUpperBound)
             : (prune_upper_bound != 0
                    ? prune_upper_bound
                    : ascending_chain_bound(base, J, kind, ops));
  }
  // Fence k's commit runs while layer k+1 computes; it is joined at the
  // next fence and here.  Its failure comes first in program order, so
  // it is rethrown ahead of anything the layers after it threw: exit
  // codes and files on disk are the serial writer's under any fault.
  try {
    FsStarResult result =
        fs_star_layers(base, J, stop_k, kind, ops, threads, gov, ub,
                       order != nullptr, std::move(classes), counts, plan);
    plan.join();
    return result;
  } catch (...) {
    plan.join();
    throw;
  }
}

PrefixTable fs_star_full(const PrefixTable& base, util::Mask J,
                         DiagramKind kind, OpCounter* ops,
                         std::vector<int>* block_order_bottom_up,
                         const par::ExecPolicy& exec,
                         std::uint64_t prune_upper_bound,
                         const FsCheckpointOptions* ckpt) {
  FsStarResult r = fs_star(base, J, util::popcount(J), kind, ops, exec,
                           nullptr, prune_upper_bound, ckpt);
  if (block_order_bottom_up != nullptr)
    *block_order_bottom_up = reconstruct_block_order(r, J);
  auto it = r.tables.find(J);
  OVO_CHECK(it != r.tables.end());
  return it->second.widen();
}

std::vector<int> reconstruct_block_order(const FsStarResult& r,
                                         util::Mask J) {
  std::vector<int> top_down;
  util::Mask K = J;
  while (K != 0) {
    const int var = r.choice(K);
    top_down.push_back(var);
    K &= ~(util::Mask{1} << var);
  }
  return {top_down.rbegin(), top_down.rend()};  // bottom-up
}

util::Mask FsStarResult::canonical(util::Mask K) const {
  return canonical_mask(classes, K);
}

int FsStarResult::choice(util::Mask K) const {
  const util::Mask* tied = find_mask(ties, canonical(K));
  OVO_CHECK_MSG(tied != nullptr && (K & *tied) != 0,
                "reconstruct_block_order: missing back-pointer");
  return util::lowest_bit(K & *tied);
}

std::vector<util::Mask> symmetry_classes(const PrefixTable& base,
                                         util::Mask J) {
  OVO_CHECK_MSG(util::is_subset(J, base.free_mask()),
                "symmetry_classes: J not free in the base table");
  // Cell-index stride of a free variable: 2^(its rank among the free).
  const auto stride = [&](int v) {
    return std::size_t{1}
           << util::popcount(base.free_mask() & util::full_mask(v));
  };
  std::vector<util::Mask> classes;
  util::Mask classed = 0;
  util::for_each_bit(J, [&](int i) {
    if ((classed >> i) & 1) return;
    // Pairwise symmetry is transitive, so testing each later unclassed
    // variable against the class's first member is enough.
    util::Mask c = util::Mask{1} << i;
    util::for_each_bit(J & ~classed & ~util::full_mask(i + 1), [&](int j) {
      if (swap_invariant(base.cells, stride(i), stride(j)))
        c |= util::Mask{1} << j;
    });
    classed |= c;
    classes.push_back(c);
  });
  return classes;
}

}  // namespace ovo::core
