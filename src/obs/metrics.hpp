#pragma once
// ovo::obs — the unified telemetry substrate (counter/ledger registry).
//
// Every counter the repo accounts with — prefix-table cells read by
// compactions, unique-table probes, oracle memo hits, scheduler barrier
// waits — is one *metric* in a single constexpr registry: a typed,
// hierarchical ID (`ds.unique.probes`, `fs.prune.pruned`,
// `oracle.memo_hits`, `sched.barrier_wait_ns`, …) with a declared
// aggregation policy (sum, max, or float sum), a class, and a canonical
// JSON key.  A Ledger is one flat slot array over that registry; merging
// two ledgers applies each metric's policy slot by slot, so merges are
// associative, commutative (per policy), and bit-identical regardless of
// shard order or thread count.
//
// The class splits the registry in two.  *Pinned* metrics are the
// algorithm's ledger — compaction cells (Theorem 5's cost), resident
// cells (Remark 1's space), dedup lookups and inserts, the prune and
// oracle ledgers, governor work — and are a function of the instance
// alone: a resumed run reproduces them bit for bit, and FS snapshots
// store exactly them.  *Measured* metrics (hash-table probe detail,
// scheduler counts) describe how one process ran; they move with table
// sizing and scheduling, are never stored, and after a resume cover only
// the work since.
//
// The per-subsystem stats structs (ds::TableStats, core::OpCounter,
// core::PruneStats, reorder::OracleStats, par::SchedStats) survive as
// *views* over this registry: their fields keep their names and
// zero-cost hot-path increments, but their merge operators round-trip
// through a Ledger, so the registry's per-metric policy is the single
// source of truth for how counters combine and what they are called.
// See docs/INTERNALS.md, "Telemetry & tracing".
//
// Layering: obs sits between util and everything else (it depends on
// nothing but the standard library), so ds, parallel, core and reorder
// can all view their counters through it.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>

namespace ovo::obs {

/// Version of the unified counter schema (metric set + JSON key names).
/// Bump when a metric is renamed, removed, or re-keyed; emitted as
/// "schema_version" in every JSON artifact.
inline constexpr std::uint32_t kSchemaVersion = 3;

/// How two values of one metric combine under Ledger::merge.
enum class Agg : std::uint8_t {
  kSum,     ///< counters: values add
  kMax,     ///< peaks / high-water marks / incumbent bounds: larger wins
  kSumF64,  ///< float counters: slots hold double bit patterns, values add
};

/// Whether a metric belongs to the algorithm's ledger (see above).
enum class Class : std::uint8_t {
  kPinned,    ///< instance-determined; stored in snapshots, kept on resume
  kMeasured,  ///< execution detail; never stored, restarts on resume
};

/// The metric registry: X(enum_id, "dotted.name", "json_key", Agg, Class).
/// Dotted names are the hierarchical IDs (namespace table in
/// docs/INTERNALS.md); JSON keys are the canonical field names every
/// emitter (CLI --json, both scaling benches) must use — they are defined
/// here ONCE so the artifacts cannot drift from one another.
#define OVO_OBS_METRICS(X)                                                   \
  /* ds: unique-table / dedup kernel (ds::TableStats) */                     \
  X(kDsUniqueLookups, "ds.unique.lookups", "ds_unique_lookups",              \
    kSum, kPinned)                                                           \
  X(kDsUniqueHits, "ds.unique.hits", "ds_unique_hits", kSum, kPinned)        \
  X(kDsUniqueInserts, "ds.unique.inserts", "ds_unique_inserts",              \
    kSum, kPinned)                                                           \
  X(kDsUniqueResizes, "ds.unique.resizes", "ds_unique_resizes",              \
    kSum, kMeasured)                                                         \
  X(kDsUniqueProbes, "ds.unique.probes", "ds_unique_probes",                 \
    kSum, kMeasured)                                                         \
  /* fs: the DP / compaction work ledger (core::OpCounter) */                \
  X(kFsTableCells, "fs.table_cells", "table_cells", kSum, kPinned)           \
  X(kFsCutCells, "fs.cut_cells", "cut_cells", kSum, kPinned)                 \
  X(kFsStates, "fs.states", "states", kSum, kPinned)                         \
  X(kFsCompactions, "fs.compactions", "compactions", kSum, kPinned)          \
  X(kFsPeakCells, "fs.peak_cells", "peak_cells", kMax, kPinned)              \
  /* fs.prune: the bound-pruned DP ledger (core::PruneStats) */              \
  X(kFsPruneUpperBound, "fs.prune.upper_bound", "prune_upper_bound",         \
    kMax, kPinned)                                                           \
  X(kFsPruneGenerated, "fs.prune.generated", "states_generated",             \
    kSum, kPinned)                                                           \
  X(kFsPrunePruned, "fs.prune.pruned", "states_pruned", kSum, kPinned)       \
  X(kFsPruneDead, "fs.prune.dead", "states_dead", kSum, kPinned)             \
  X(kFsPruneSurviving, "fs.prune.surviving", "states_surviving",             \
    kSum, kPinned)                                                           \
  X(kFsPruneDenseCells, "fs.prune.dense_cells", "dense_cells",               \
    kSum, kPinned)                                                           \
  X(kFsPruneSparseCells, "fs.prune.sparse_cells", "sparse_cells",            \
    kSum, kPinned)                                                           \
  /* oracle: the unified reorder cost oracle (reorder::OracleStats) */       \
  X(kOracleQueries, "oracle.queries", "oracle_queries", kSum, kPinned)       \
  X(kOracleEvals, "oracle.evals", "oracle_evals", kSum, kPinned)             \
  X(kOracleMemoHits, "oracle.memo_hits", "oracle_memo_hits", kSum, kPinned)  \
  X(kOracleMinFindCalls, "oracle.min_find_calls", "min_find_calls",          \
    kSum, kPinned)                                                           \
  X(kOracleMinFindQueries, "oracle.min_find_queries", "min_find_queries",    \
    kSumF64, kPinned)                                                        \
  /* sched: the parallel-region counters (par::SchedStats) */                \
  X(kSchedGraphs, "sched.graphs", "sched_graphs", kSum, kMeasured)           \
  X(kSchedTasks, "sched.tasks", "sched_tasks", kSum, kMeasured)              \
  X(kSchedChunks, "sched.chunks", "sched_chunks", kSum, kMeasured)           \
  X(kSchedBarrierWaitNs, "sched.barrier_wait_ns", "sched_barrier_wait_ns",   \
    kSum, kMeasured)                                                         \
  /* rt: work the resource governor charged (rt::RunStats) */                \
  X(kRtWorkCharged, "rt.work_charged", "work_units", kSum, kPinned)

enum class Metric : std::uint16_t {
#define OVO_OBS_ENUM(id, name, key, agg, cls) id,
  OVO_OBS_METRICS(OVO_OBS_ENUM)
#undef OVO_OBS_ENUM
      kCount
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

struct MetricInfo {
  const char* name;      ///< hierarchical dotted ID
  const char* json_key;  ///< canonical JSON field name
  Agg agg;               ///< merge policy
  Class cls;             ///< pinned or measured
};

inline constexpr std::array<MetricInfo, kMetricCount> kMetricInfo = {{
#define OVO_OBS_INFO(id, name, key, agg, cls) \
  MetricInfo{name, key, Agg::agg, Class::cls},
    OVO_OBS_METRICS(OVO_OBS_INFO)
#undef OVO_OBS_INFO
}};

constexpr const MetricInfo& info(Metric m) {
  return kMetricInfo[static_cast<std::size_t>(m)];
}
constexpr const char* metric_name(Metric m) { return info(m).name; }
constexpr const char* json_key(Metric m) { return info(m).json_key; }
constexpr Agg agg(Metric m) { return info(m).agg; }
constexpr bool is_pinned(Metric m) { return info(m).cls == Class::kPinned; }

/// memcpy-based bit_cast (the header targets C++20 but stays footloose
/// about <bit> availability on older standard libraries).
inline double slot_to_f64(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}
inline std::uint64_t f64_to_slot(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// One flat value array over the registry.  A zeroed ledger is the
/// identity of merge() for every aggregation policy (0 bits == 0.0).
class Ledger {
 public:
  std::uint64_t get(Metric m) const { return v_[idx(m)]; }
  void set(Metric m, std::uint64_t v) { v_[idx(m)] = v; }
  void add(Metric m, std::uint64_t v) { v_[idx(m)] += v; }
  void max(Metric m, std::uint64_t v) {
    if (v > v_[idx(m)]) v_[idx(m)] = v;
  }

  double get_f64(Metric m) const { return slot_to_f64(v_[idx(m)]); }
  void set_f64(Metric m, double d) { v_[idx(m)] = f64_to_slot(d); }
  void add_f64(Metric m, double d) { set_f64(m, get_f64(m) + d); }

  /// Records `v` under the metric's own policy (sum adds, max maxes).
  void record(Metric m, std::uint64_t v) {
    switch (agg(m)) {
      case Agg::kSum:
        add(m, v);
        break;
      case Agg::kMax:
        max(m, v);
        break;
      case Agg::kSumF64:
        add_f64(m, static_cast<double>(v));
        break;
    }
  }

  /// Merges `o` into this ledger, metric by metric, under each metric's
  /// declared policy.  This is THE merge — every stats view's operator+=
  /// round-trips through it, so shard merges are policy-pure and
  /// deterministic in any order (sums and maxes commute; float sums are
  /// combined in call order, which every caller keeps ascending by
  /// slot).
  Ledger& merge(const Ledger& o) {
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      switch (kMetricInfo[i].agg) {
        case Agg::kSum:
          v_[i] += o.v_[i];
          break;
        case Agg::kMax:
          if (o.v_[i] > v_[i]) v_[i] = o.v_[i];
          break;
        case Agg::kSumF64:
          v_[i] = f64_to_slot(slot_to_f64(v_[i]) + slot_to_f64(o.v_[i]));
          break;
      }
    }
    return *this;
  }

  /// The pinned projection: this ledger with every measured slot zeroed —
  /// what snapshots store and resumed runs reproduce.
  Ledger pinned() const {
    Ledger p;
    for (std::size_t i = 0; i < kMetricCount; ++i)
      if (kMetricInfo[i].cls == Class::kPinned) p.v_[i] = v_[i];
    return p;
  }

  bool operator==(const Ledger&) const = default;

 private:
  static constexpr std::size_t idx(Metric m) {
    return static_cast<std::size_t>(m);
  }
  std::array<std::uint64_t, kMetricCount> v_{};
};

/// Process-wide monotone counter registry (relaxed atomics).  It holds
/// the scheduler totals behind par::sched_stats(); callers diff two
/// snapshots around a run they want to attribute.
class Registry {
 public:
  static Registry& global();

  /// Records `v` atomically: max metrics keep the larger value, all
  /// others add.  Float-sum metrics live in ledgers only; no registry
  /// writer records one.
  void record(Metric m, std::uint64_t v) {
    std::atomic<std::uint64_t>& slot = v_[static_cast<std::size_t>(m)];
    if (agg(m) != Agg::kMax) {
      slot.fetch_add(v, std::memory_order_relaxed);
      return;
    }
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Consistent-enough snapshot of the totals (each slot individually
  /// atomic).
  Ledger snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kMetricCount> v_{};
};

// ---------------------------------------------------------------------------
// The shared JSON serializer: every machine-readable artifact (CLI --json,
// BENCH_fs.json, BENCH_quantum.json) renders registry counters through
// these helpers, so a field's key exists in exactly one place.

void append_json_u64(std::string& s, const char* key, std::uint64_t v);
void append_json_f64(std::string& s, const char* key, double v);
void append_json_str(std::string& s, const char* key, const char* v);

/// Appends `,"<json_key>":<value>` for one metric.
void append_metric_json(std::string& s, const Ledger& l, Metric m);

/// Appends the metrics in `ms`, in order.
void append_metrics_json(std::string& s, const Ledger& l,
                         std::initializer_list<Metric> ms);

/// The canonical unified-counter block shared by the CLI and both scaling
/// benches: oracle queries/evals/memo-hits plus the DP work ledger
/// (table_cells, cut_cells, states), and — when the prune ledger is live
/// (an incumbent was pruned against, or generated + dead > 0) — the full
/// bound-pruning block including the derived "prune_ratio" (0 when no
/// state was enumerated).
void append_counters_json(std::string& s, const Ledger& l);

/// Run-context block: `,"schema_version":N,"git":"...","build":"...",
/// "threads":N`.  Same fields in every artifact (satellite of the obs
/// refactor: artifacts must be attributable to a build).
void append_run_info_json(std::string& s, int threads);

/// Build provenance: `git describe --always --dirty --tags` of the
/// checkout, taken on every build (the source CMake generates from
/// src/obs/build_stamp.cmake; "unknown" outside a git checkout), and the
/// build type, taken at configure time ("unknown" when not built through
/// CMake).
const char* build_git_describe();
const char* build_type();

}  // namespace ovo::obs
