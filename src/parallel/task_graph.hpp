#pragma once
// Scheduler counters of the ovo::par parallel regions (thread_pool.hpp).
// The process-wide totals live in the obs registry's sched.* slots; this
// header only names them, so callers that attribute scheduler work to a
// run can diff two sched_stats() snapshots around it.

#include <cstdint>

#include "obs/metrics.hpp"

namespace ovo::par {

/// Scheduler counters (accumulated over the whole process — see
/// sched_stats()).  All times are steady-clock ns.
struct SchedStats {
  std::uint64_t graphs = 0;  ///< parallel regions fanned out over the pool
  std::uint64_t tasks = 0;   ///< regions that ran every chunk
  std::uint64_t chunks = 0;  ///< chunks executed in those regions
  /// Always 0 (nothing records it); kept because code outside the
  /// library still reads it.
  std::uint64_t overlap_ns = 0;
  /// Layer-boundary stall charged by the engines (see
  /// charge_barrier_wait).
  std::uint64_t barrier_wait_ns = 0;

  /// Accumulates this struct into `l` under the sched.* metric IDs.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kSchedGraphs, graphs);
    l.record(obs::Metric::kSchedTasks, tasks);
    l.record(obs::Metric::kSchedChunks, chunks);
    l.record(obs::Metric::kSchedBarrierWaitNs, barrier_wait_ns);
  }
  void from_ledger(const obs::Ledger& l) {
    graphs = l.get(obs::Metric::kSchedGraphs);
    tasks = l.get(obs::Metric::kSchedTasks);
    chunks = l.get(obs::Metric::kSchedChunks);
    barrier_wait_ns = l.get(obs::Metric::kSchedBarrierWaitNs);
  }

  /// Shard merge under the registry's policies.
  SchedStats& operator+=(const SchedStats& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }
  /// Delta between two snapshots of the process-wide totals.
  SchedStats operator-(const SchedStats& o) const {
    SchedStats d = *this;
    d.graphs -= o.graphs;
    d.tasks -= o.tasks;
    d.chunks -= o.chunks;
    d.overlap_ns -= o.overlap_ns;
    d.barrier_wait_ns -= o.barrier_wait_ns;
    return d;
  }
};

/// Snapshot of the process-wide scheduler totals (monotone; benches diff
/// two snapshots around a run they want to attribute).
SchedStats sched_stats();

/// Adds `ns` to the process-wide barrier_wait_ns total.  Engines call
/// this to attribute *structural* idleness the pool cannot observe: a
/// serial layer-boundary seam between parallel regions (a publish
/// epilogue, a final extraction) leaves threads - 1 participants parked
/// in the pool, so the engine charges (threads - 1) x the seam's
/// duration.  Setup work before fan-out (admission, enumeration,
/// allocation) is NOT charged — it is overhead visible in wall clock,
/// not barrier stall.
void charge_barrier_wait(std::uint64_t ns);

}  // namespace ovo::par
