#pragma once
// ovo::obs — the unified telemetry substrate (counter/ledger registry).
//
// Every counter the repo accounts with — prefix-table cells read by
// compactions, unique-table probes, oracle memo hits, scheduler barrier
// waits, quantum oracle queries — is one *metric* in a single constexpr
// registry: a typed, hierarchical ID (`ds.unique.probes`,
// `fs.prune.pruned`, `oracle.memo_hits`, `sched.barrier_wait_ns`,
// `quantum.queries`, …) with a declared aggregation policy (sum, max, or
// float sum) and a canonical JSON key.  A Ledger is one flat slot array
// over that registry; merging two ledgers applies each metric's policy
// slot by slot, so merges are associative, commutative (per policy), and
// bit-identical regardless of shard order or thread count.
//
// The legacy per-subsystem stats structs (ds::TableStats,
// core::OpCounter, reorder::OracleStats, par::SchedStats, …) survive as
// *views* over this registry: their fields keep their names and zero-cost
// hot-path increments, but their merge operators and JSON emission are
// defined by round-tripping through a Ledger, so the registry's per-metric
// policy is the single source of truth for how counters combine and what
// they are called.  See docs/INTERNALS.md, "Telemetry & tracing".
//
// Layering: obs sits between util and everything else (it depends on
// nothing but the standard library), so ds, rt, parallel, core, reorder,
// and quantum can all view their counters through it.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace ovo::obs {

/// Version of the unified counter schema (metric set + JSON key names).
/// Bump when a metric is renamed, removed, or re-keyed; emitted as
/// "schema_version" in every JSON artifact.
inline constexpr std::uint32_t kSchemaVersion = 1;

/// How two values of one metric combine under Ledger::merge.
enum class Agg : std::uint8_t {
  kSum,     ///< counters: values add
  kMax,     ///< peaks / high-water marks / incumbent bounds: larger wins
  kSumF64,  ///< float counters: slots hold double bit patterns, values add
};

/// The metric registry: X(enum_id, "dotted.name", "json_key", Agg).
/// Dotted names are the hierarchical IDs (namespace table in
/// docs/INTERNALS.md); JSON keys are the canonical field names every
/// emitter (CLI --json, both scaling benches) must use — they are defined
/// here ONCE so the artifacts cannot drift from one another.
#define OVO_OBS_METRICS(X)                                                   \
  /* ds: unique-table / dedup kernel (ds::TableStats) */                     \
  X(kDsUniqueLookups, "ds.unique.lookups", "ds_unique_lookups", kSum)        \
  X(kDsUniqueHits, "ds.unique.hits", "ds_unique_hits", kSum)                 \
  X(kDsUniqueInserts, "ds.unique.inserts", "ds_unique_inserts", kSum)        \
  X(kDsUniqueResizes, "ds.unique.resizes", "ds_unique_resizes", kSum)        \
  X(kDsUniqueProbes, "ds.unique.probes", "ds_unique_probes", kSum)           \
  X(kDsUniqueProbeHist0, "ds.unique.probe_hist.1", "ds_unique_probe_hist_1", \
    kSum)                                                                    \
  X(kDsUniqueProbeHist1, "ds.unique.probe_hist.2", "ds_unique_probe_hist_2", \
    kSum)                                                                    \
  X(kDsUniqueProbeHist2, "ds.unique.probe_hist.3", "ds_unique_probe_hist_3", \
    kSum)                                                                    \
  X(kDsUniqueProbeHist3, "ds.unique.probe_hist.4", "ds_unique_probe_hist_4", \
    kSum)                                                                    \
  X(kDsUniqueProbeHist4, "ds.unique.probe_hist.8", "ds_unique_probe_hist_8", \
    kSum)                                                                    \
  X(kDsUniqueProbeHist5, "ds.unique.probe_hist.16",                          \
    "ds_unique_probe_hist_16", kSum)                                         \
  X(kDsUniqueProbeHist6, "ds.unique.probe_hist.32",                          \
    "ds_unique_probe_hist_32", kSum)                                         \
  X(kDsUniqueProbeHist7, "ds.unique.probe_hist.over32",                      \
    "ds_unique_probe_hist_over32", kSum)                                     \
  /* ds: computed caches (ds::CacheStats) */                                 \
  X(kDsCacheLookups, "ds.cache.lookups", "ds_cache_lookups", kSum)           \
  X(kDsCacheHits, "ds.cache.hits", "ds_cache_hits", kSum)                    \
  X(kDsCacheStores, "ds.cache.stores", "ds_cache_stores", kSum)              \
  X(kDsCacheEvictions, "ds.cache.evictions", "ds_cache_evictions", kSum)     \
  X(kDsCacheResizes, "ds.cache.resizes", "ds_cache_resizes", kSum)           \
  X(kDsCacheInvalidations, "ds.cache.invalidations",                         \
    "ds_cache_invalidations", kSum)                                          \
  /* ds: manager residency gauges (bdd/zdd/mtbdd Manager::Stats) */          \
  X(kDsPoolNodes, "ds.pool_nodes", "pool_nodes", kMax)                       \
  X(kDsUniqueEntries, "ds.unique_entries", "unique_entries", kMax)           \
  X(kDsCacheEntries, "ds.cache_entries", "cache_entries", kMax)              \
  X(kDsTerminalEntries, "ds.terminal_entries", "terminal_entries", kMax)     \
  /* fs: the DP / compaction work ledger (core::OpCounter) */                \
  X(kFsTableCells, "fs.table_cells", "table_cells", kSum)                    \
  X(kFsCompactions, "fs.compactions", "compactions", kSum)                   \
  X(kFsPeakCells, "fs.peak_cells", "peak_cells", kMax)                       \
  /* fs.prune: the bound-pruned DP ledger (core::PruneStats) */              \
  X(kFsPruneUpperBound, "fs.prune.upper_bound", "prune_upper_bound", kMax)   \
  X(kFsPruneGenerated, "fs.prune.generated", "states_generated", kSum)       \
  X(kFsPrunePruned, "fs.prune.pruned", "states_pruned", kSum)                \
  X(kFsPruneDead, "fs.prune.dead", "states_dead", kSum)                      \
  X(kFsPruneSurviving, "fs.prune.surviving", "states_surviving", kSum)       \
  X(kFsPruneDenseCells, "fs.prune.dense_cells", "dense_cells", kSum)         \
  X(kFsPruneSparseCells, "fs.prune.sparse_cells", "sparse_cells", kSum)      \
  /* fs.seed: the heuristic stage that seeded the pruning incumbent */       \
  X(kFsSeedQueries, "fs.seed.queries", "seed_queries", kSum)                 \
  X(kFsSeedEvals, "fs.seed.evals", "seed_evals", kSum)                       \
  X(kFsSeedMemoHits, "fs.seed.memo_hits", "seed_memo_hits", kSum)            \
  X(kFsSeedTableCells, "fs.seed.table_cells", "seed_table_cells", kSum)      \
  /* oracle: the unified reorder cost oracle (reorder::OracleStats) */       \
  X(kOracleQueries, "oracle.queries", "oracle_queries", kSum)                \
  X(kOracleEvals, "oracle.evals", "oracle_evals", kSum)                      \
  X(kOracleMemoHits, "oracle.memo_hits", "oracle_memo_hits", kSum)           \
  X(kOracleMinFindCalls, "oracle.min_find_calls", "min_find_calls", kSum)    \
  X(kOracleMinFindQueries, "oracle.min_find_queries", "min_find_queries",    \
    kSumF64)                                                                 \
  /* sched: the parallel-region counters (par::SchedStats).  ready_hwm,   */ \
  /* overlap_tasks, overlap_ns and pruned_chunks have no writer any more, */ \
  /* but keep their slots: FS snapshot v2 ledgers store positional ids,   */ \
  /* and rt.work_charged (id 50) follows this block (ids 42-49).          */ \
  X(kSchedGraphs, "sched.graphs", "sched_graphs", kSum)                      \
  X(kSchedTasks, "sched.tasks", "sched_tasks", kSum)                         \
  X(kSchedChunks, "sched.chunks", "sched_chunks", kSum)                      \
  X(kSchedReadyHwm, "sched.ready_hwm", "sched_ready_hwm", kMax)              \
  X(kSchedOverlapTasks, "sched.overlap_tasks", "sched_overlap_tasks", kSum)  \
  X(kSchedOverlapNs, "sched.overlap_ns", "sched_overlap_ns", kSum)           \
  X(kSchedBarrierWaitNs, "sched.barrier_wait_ns", "sched_barrier_wait_ns",   \
    kSum)                                                                    \
  X(kSchedPrunedChunks, "sched.pruned_chunks", "sched_pruned_chunks", kSum)  \
  /* rt: the resource governor (rt::RunStats) */                             \
  X(kRtWorkCharged, "rt.work_charged", "work_units", kSum)                   \
  X(kRtCheckpoints, "rt.checkpoints", "rt_checkpoints", kSum)                \
  X(kRtPeakNodes, "rt.peak_nodes", "peak_nodes", kMax)                       \
  X(kRtPeakBytes, "rt.peak_bytes", "peak_bytes", kMax)                       \
  /* quantum: the quantum query ledger */                                    \
  X(kQuantumGroverQueries, "quantum.grover_queries", "grover_queries",       \
    kSum)                                                                    \
  X(kQuantumMeasurements, "quantum.measurements", "grover_measurements",     \
    kSum)                                                                    \
  X(kQuantumQueries, "quantum.queries", "quantum_queries", kSumF64)          \
  X(kQuantumMinFindRounds, "quantum.min_find_rounds", "min_find_rounds",     \
    kSum)                                                                    \
  /* rt.fault: the fault-injection framework (appended last so every     */  \
  /* pre-existing metric id stays stable for serialized ledgers)         */  \
  X(kRtFaultEvents, "rt.fault_events", "rt_fault_events", kSum)              \
  X(kRtFaultsInjected, "rt.faults_injected", "rt_faults_injected", kSum)

enum class Metric : std::uint16_t {
#define OVO_OBS_ENUM(id, name, key, agg) id,
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
};

inline constexpr std::array<MetricInfo, kMetricCount> kMetricInfo = {{
#define OVO_OBS_INFO(id, name, key, agg) MetricInfo{name, key, Agg::agg},
    OVO_OBS_METRICS(OVO_OBS_INFO)
#undef OVO_OBS_INFO
}};

constexpr const MetricInfo& info(Metric m) {
  return kMetricInfo[static_cast<std::size_t>(m)];
}
constexpr const char* metric_name(Metric m) { return info(m).name; }
constexpr const char* json_key(Metric m) { return info(m).json_key; }
constexpr Agg agg(Metric m) { return info(m).agg; }

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
  /// declared policy.  This is THE merge — every legacy stats struct's
  /// operator+= round-trips through it, so shard merges are policy-pure
  /// and deterministic in any order (sums and maxes commute; float sums
  /// are combined in call order, which every caller keeps ascending by
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

  bool operator==(const Ledger&) const = default;

  /// Serialization view: the raw slot bits, indexed by Metric value.
  const std::array<std::uint64_t, kMetricCount>& slots() const { return v_; }

 private:
  static constexpr std::size_t idx(Metric m) {
    return static_cast<std::size_t>(m);
  }
  std::array<std::uint64_t, kMetricCount> v_{};
};

/// Per-slot ledger shards for parallel regions: each worker writes its
/// own shard, and merged() folds them in ascending slot order — the one
/// deterministic order every thread count reproduces.
class ShardedLedger {
 public:
  explicit ShardedLedger(int slots) : shards_(static_cast<std::size_t>(
                                          slots > 0 ? slots : 1)) {}

  Ledger& shard(int slot) { return shards_[static_cast<std::size_t>(slot)]; }
  const Ledger& shard(int slot) const {
    return shards_[static_cast<std::size_t>(slot)];
  }
  int slots() const { return static_cast<int>(shards_.size()); }

  Ledger merged() const {
    Ledger total;
    for (const Ledger& s : shards_) total.merge(s);
    return total;
  }

 private:
  std::vector<Ledger> shards_;
};

/// Process-wide monotone counter registry (relaxed atomics).  The
/// scheduler totals behind par::sched_stats() and the governor's work
/// charges live here; benches diff two snapshots around a run they want
/// to attribute.
class Registry {
 public:
  static Registry& global();

  /// Records `v` under the metric's declared policy (atomic).
  void record(Metric m, std::uint64_t v) {
    std::atomic<std::uint64_t>& slot = v_[static_cast<std::size_t>(m)];
    switch (agg(m)) {
      case Agg::kSum:
        slot.fetch_add(v, std::memory_order_relaxed);
        break;
      case Agg::kMax: {
        std::uint64_t cur = slot.load(std::memory_order_relaxed);
        while (v > cur && !slot.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
        break;
      }
      case Agg::kSumF64:
        record_f64(m, static_cast<double>(v));
        break;
    }
  }

  /// Float-sum metrics only: CAS-adds `d` to the slot's double value.
  void record_f64(Metric m, double d) {
    std::atomic<std::uint64_t>& slot = v_[static_cast<std::size_t>(m)];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(
        cur, f64_to_slot(slot_to_f64(cur) + d),
        std::memory_order_relaxed)) {
    }
  }

  /// Folds a whole ledger into the registry (one atomic op per nonzero
  /// slot).
  void merge(const Ledger& l);

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
/// (table_cells), and — when the prune ledger is live (generated + dead
/// > 0) — the full bound-pruning block including the derived
/// "prune_ratio".
void append_counters_json(std::string& s, const Ledger& l);

/// Run-context block: `,"schema_version":N,"git":"...","build":"...",
/// "threads":N`.  Same fields in every artifact (satellite of the obs
/// refactor: artifacts must be attributable to a build).
void append_run_info_json(std::string& s, int threads);

/// Build provenance baked in at configure time (git describe, build
/// type); "unknown" when not built through CMake.
const char* build_git_describe();
const char* build_type();

}  // namespace ovo::obs
