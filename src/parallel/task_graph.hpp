#pragma once
// Task-graph execution layer (ovo::par v2) — the dependency-counting
// scheduler every parallel region in the repo now runs on.
//
// Model: a TaskGraph is a DAG of *nodes*.  Each node owns a work-chunked
// index range [begin, end) with a chunk body (a single-shot task is the
// degenerate range [0, 1)), an atomic count of unmet predecessors, and a
// successor list.  run() seeds the nodes whose dependency count is zero
// into per-worker ready deques; a node with C chunks is published as
// min(C, threads) *tickets*, so several workers can cooperate on one
// large range exactly like the old flat parallel region.  When the last
// chunk of a node retires, the finisher decrements every successor's
// counter and pushes the ones that hit zero onto its own deque (affinity
// first, round-robin for extra tickets); idle workers steal from the
// front of other deques.  parallel_for / parallel_reduce are thin
// wrappers: a one-node graph.
//
// Determinism contract (unchanged from the flat pool, now stated at the
// graph level): which worker runs which chunk — and in what order
// independent nodes execute — is scheduling-dependent.  Callers make
// results deterministic with the *publish protocol*: every task writes
// its results into a pre-assigned slot (the FS* DP writes each subset's
// table at the subset's colex rank), so completion order never affects
// output, and any consumer that truly needs *all* predecessors hangs off
// a seq_epoch() fence instead of an implicit barrier.  Fences are chained
// (fence k+1 depends on fence k), so fence bodies are serialized and may
// touch shared state without locks.
//
// Cooperative cancellation drains the DAG, not a loop: the stop flag is
// checked before every chunk pull; the first participant that observes
// it marks the region stopped and wakes the others, in-flight chunks run
// to completion, unstarted nodes are abandoned (their dependency
// counters simply never reach zero), and run() returns with the graph
// partially executed.  Completed fences have fully published their
// epoch, so the caller keeps everything up to the last completed fence
// and discards the rest — the same "partial layers are discarded"
// contract rt::Governor documents.
//
// Nested graphs: run() issued from inside a pool worker executes the
// whole graph serially inline (slot 0, dependency order, same per-chunk
// stop polling).  This keeps composition deadlock-free; only the
// outermost region fans out.
//
// A TaskGraph is a single-run object: build (add/add_edge/seq_epoch),
// run once, read last_run() stats, destroy.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace ovo::par {

class GraphRegion;

/// Scheduler counters for one graph run (and, accumulated, for the whole
/// process — see sched_stats()).  All times are steady-clock ns.
struct SchedStats {
  std::uint64_t graphs = 0;         ///< graph runs
  std::uint64_t tasks = 0;          ///< nodes run to completion
  std::uint64_t chunks = 0;         ///< chunks executed
  std::uint64_t ready_hwm = 0;      ///< max ready tickets queued at once
  /// Nodes that became ready — and started executing — before the fence
  /// of their preceding epoch had completed: the cross-layer pipelining
  /// the per-layer barrier used to forbid.
  std::uint64_t overlap_tasks = 0;
  std::uint64_t overlap_ns = 0;  ///< chunk time spent in such nodes
  /// Layer-boundary stall: in-region pipeline bubbles (the gap from a
  /// participant's first empty pop to the push that fed it — OS wake
  /// latency excluded) plus engine-charged barrier seams (see
  /// charge_barrier_wait).
  std::uint64_t barrier_wait_ns = 0;

  /// Accumulates this struct into `l` under the sched.* metric IDs
  /// (ready_hwm is a kMax metric, everything else kSum).
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kSchedGraphs, graphs);
    l.record(obs::Metric::kSchedTasks, tasks);
    l.record(obs::Metric::kSchedChunks, chunks);
    l.record(obs::Metric::kSchedReadyHwm, ready_hwm);
    l.record(obs::Metric::kSchedOverlapTasks, overlap_tasks);
    l.record(obs::Metric::kSchedOverlapNs, overlap_ns);
    l.record(obs::Metric::kSchedBarrierWaitNs, barrier_wait_ns);
  }
  void from_ledger(const obs::Ledger& l) {
    graphs = l.get(obs::Metric::kSchedGraphs);
    tasks = l.get(obs::Metric::kSchedTasks);
    chunks = l.get(obs::Metric::kSchedChunks);
    ready_hwm = l.get(obs::Metric::kSchedReadyHwm);
    overlap_tasks = l.get(obs::Metric::kSchedOverlapTasks);
    overlap_ns = l.get(obs::Metric::kSchedOverlapNs);
    barrier_wait_ns = l.get(obs::Metric::kSchedBarrierWaitNs);
  }

  /// Shard merge under the registry's policies (sums add, hwm maxes).
  SchedStats& operator+=(const SchedStats& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }
  /// Delta between two snapshots of the process-wide totals (hwm is a
  /// max, so the delta keeps the later snapshot's value).
  SchedStats operator-(const SchedStats& o) const {
    SchedStats d = *this;
    d.graphs -= o.graphs;
    d.tasks -= o.tasks;
    d.chunks -= o.chunks;
    d.overlap_tasks -= o.overlap_tasks;
    d.overlap_ns -= o.overlap_ns;
    d.barrier_wait_ns -= o.barrier_wait_ns;
    return d;
  }
};

/// Snapshot of the process-wide scheduler totals (monotone; benches diff
/// two snapshots around a run they want to attribute).
SchedStats sched_stats();

/// Adds `ns` to the process-wide barrier_wait_ns total.  Engines call
/// this to attribute *structural* idleness the scheduler cannot observe:
/// a serial layer-boundary seam between parallel regions (a publish
/// epilogue, a final extraction) leaves threads - 1 participants parked
/// in the pool, so the engine charges (threads - 1) x the seam's
/// duration.  Setup work every engine pays identically before fan-out
/// (admission, enumeration, allocation, graph build) is NOT charged —
/// it is overhead visible in wall clock, not barrier stall.  In-region
/// bubbles (waiting with no ready work) are counted automatically;
/// final join waits are not (identical teardown cost in every engine).
void charge_barrier_wait(std::uint64_t ns);

class TaskGraph {
 public:
  using TaskId = std::uint32_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a single-shot task; body(slot) runs once.
  TaskId add(std::function<void(int)> body);

  /// Adds a work-chunked range node: chunk_body(lo, hi, slot) is called
  /// for consecutive chunks of `grain` indices covering [begin, end).
  /// Up to min(chunks, threads) workers cooperate on one node.
  TaskId add_chunked(std::uint64_t begin, std::uint64_t end,
                     std::uint64_t grain,
                     std::function<void(std::uint64_t, std::uint64_t, int)>
                         chunk_body);

  /// Convenience: per-index body fn(i, slot) over [begin, end).
  template <typename Fn>
  TaskId add_range(std::uint64_t begin, std::uint64_t end,
                   std::uint64_t grain, Fn&& fn) {
    return add_chunked(
        begin, end, grain,
        [f = std::forward<Fn>(fn)](std::uint64_t lo, std::uint64_t hi,
                                   int slot) mutable {
          for (std::uint64_t i = lo; i < hi; ++i) f(i, slot);
        });
  }

  /// Declares that `succ` must not start before `pred` completes.
  /// Duplicate edges are the caller's to avoid (each one counts).
  void add_edge(TaskId pred, TaskId succ);

  /// Sequential-epoch fence: a task that depends on every task added
  /// since the previous fence, and on the previous fence itself.  This
  /// is the *only* barrier-like construct: use it where a consumer truly
  /// needs all predecessors (e.g. publishing a completed DP layer in
  /// rank order).  Fence bodies are serialized by the fence chain, and
  /// tasks added *after* a fence do NOT depend on it — they pipeline
  /// past it on their own dependency edges.
  TaskId seq_epoch(std::function<void(int)> body);

  /// Labels a node for the obs trace timeline: `label` names the span
  /// ("fs.group", "oracle.batch", …) and up to two named integer args
  /// annotate it (layer, chunk count, …).  All strings must be literals
  /// (or otherwise outlive the graph); they are stored as pointers.
  /// No-op cost when tracing is disabled; safe to call unconditionally.
  void set_label(TaskId id, const char* label, const char* akey = nullptr,
                 std::uint64_t aval = 0, const char* bkey = nullptr,
                 std::uint64_t bval = 0);

  std::size_t node_count() const { return nodes_.size(); }

  /// Executes the graph over at most `threads` cooperating threads
  /// (caller included, as slot 0).  Checks `stop` (may be null) before
  /// every chunk at every thread count, including the serial fallback.
  /// Rethrows the first exception a task raised after the region drains.
  void run(int threads, const std::atomic<bool>* stop = nullptr);

  /// Counters for the completed run().
  const SchedStats& last_run() const { return last_run_; }

 private:
  friend class GraphRegion;

  struct Node {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t grain = 1;
    std::uint64_t nchunks = 0;
    std::function<void(std::uint64_t, std::uint64_t, int)> chunk_body;
    std::vector<TaskId> succ;
    std::uint32_t preds = 0;   ///< static predecessor count (build time)
    std::int64_t fence = -1;   ///< fence of the preceding epoch, if any
    bool overlap = false;      ///< readied before that fence completed
    /// Trace annotation (see set_label); literals only, not owned.
    const char* label = "task";
    const char* akey = nullptr;
    std::uint64_t aval = 0;
    const char* bkey = nullptr;
    std::uint64_t bval = 0;
    std::atomic<std::uint64_t> cursor{0};       ///< next chunk start
    std::atomic<std::uint64_t> chunks_left{0};  ///< chunks not yet retired
    std::atomic<std::uint32_t> waiting{0};      ///< unmet predecessors
    std::atomic<bool> done{false};
  };

  void run_serial(const std::atomic<bool>* stop);

  /// True while this thread participates in any GraphRegion (including
  /// the dispatching thread, slot 0).  A nested run() must execute
  /// inline: graph participants wait for future ready nodes instead of
  /// returning when idle, so handing a nested region to the pool could
  /// deadlock against participants parked in the outer region.
  static bool& tl_in_region();

  /// Nodes live in a deque so ids stay stable as the graph grows (Node
  /// holds atomics and is neither movable nor copyable).
  std::deque<Node> nodes_;
  std::vector<TaskId> epoch_tasks_;  ///< tasks added since the last fence
  std::int64_t last_fence_ = -1;
  std::uint64_t total_chunks_ = 0;
  bool ran_ = false;
  SchedStats last_run_;
};

}  // namespace ovo::par
