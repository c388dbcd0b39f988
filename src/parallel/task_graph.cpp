#include "parallel/task_graph.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/trace.hpp"
#include "rt/fault.hpp"
#include "util/check.hpp"

namespace ovo::par {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The process-wide scheduler totals ARE the obs registry's sched.*
/// slots — there is no second accumulator.  Per-run SchedStats fold in
/// via the ledger path, so the registry's per-metric policy (hwm maxes,
/// the rest sum) is the only merge definition.
void accumulate_global(const SchedStats& s) {
  obs::Ledger l;
  s.to_ledger(l);
  obs::Registry::global().merge(l);
}

}  // namespace

void charge_barrier_wait(std::uint64_t ns) {
  obs::Registry::global().record(obs::Metric::kSchedBarrierWaitNs, ns);
}

SchedStats sched_stats() {
  SchedStats s;
  s.from_ledger(obs::Registry::global().snapshot());
  return s;
}

// ---------------------------------------------------------------------------
// Graph construction (single-threaded build phase; no atomics involved).

TaskGraph::TaskId TaskGraph::add(std::function<void(int)> body) {
  return add_chunked(
      0, 1, 1,
      [b = std::move(body)](std::uint64_t, std::uint64_t, int slot) {
        b(slot);
      });
}

TaskGraph::TaskId TaskGraph::add_chunked(
    std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
    std::function<void(std::uint64_t, std::uint64_t, int)> chunk_body) {
  OVO_CHECK_MSG(begin < end, "TaskGraph: empty task range");
  OVO_CHECK_MSG(!ran_, "TaskGraph: add after run");
  if (grain == 0) grain = 1;
  const TaskId id = static_cast<TaskId>(nodes_.size());
  Node& n = nodes_.emplace_back();
  n.begin = begin;
  n.end = end;
  n.grain = grain;
  n.nchunks = (end - begin + grain - 1) / grain;
  n.chunk_body = std::move(chunk_body);
  n.fence = last_fence_;
  total_chunks_ += n.nchunks;
  epoch_tasks_.push_back(id);
  return id;
}

void TaskGraph::add_edge(TaskId pred, TaskId succ) {
  OVO_CHECK_MSG(pred < nodes_.size() && succ < nodes_.size() && pred != succ,
                "TaskGraph: bad edge");
  nodes_[pred].succ.push_back(succ);
  ++nodes_[succ].preds;
}

TaskGraph::TaskId TaskGraph::seq_epoch(std::function<void(int)> body) {
  std::vector<TaskId> epoch = std::move(epoch_tasks_);
  epoch_tasks_.clear();
  const std::int64_t prev = last_fence_;
  const TaskId id = add(std::move(body));
  nodes_[id].label = "fence";
  for (const TaskId t : epoch) add_edge(t, id);
  if (prev >= 0) add_edge(static_cast<TaskId>(prev), id);
  last_fence_ = static_cast<std::int64_t>(id);
  epoch_tasks_.clear();  // the fence itself belongs to no epoch
  return id;
}

void TaskGraph::set_label(TaskId id, const char* label, const char* akey,
                          std::uint64_t aval, const char* bkey,
                          std::uint64_t bval) {
  OVO_CHECK_MSG(id < nodes_.size(), "TaskGraph: set_label on bad id");
  Node& n = nodes_[id];
  n.label = label;
  n.akey = akey;
  n.aval = aval;
  n.bkey = bkey;
  n.bval = bval;
}

// ---------------------------------------------------------------------------
// Parallel execution: one GraphRegion per run, dispatched over the pool.

class GraphRegion final : public ThreadPool::RegionBase {
 public:
  GraphRegion(TaskGraph& g, int threads, const std::atomic<bool>* stop)
      : g_(g), stop_(stop), threads_(threads), deques_(threads) {}

  /// Seeds the zero-dependency nodes round-robin across the deques.
  /// Called before any worker attaches, so no locking is needed.
  void seed() {
    int slot = 0;
    for (TaskId id = 0; id < g_.nodes_.size(); ++id)
      if (g_.nodes_[id].preds == 0) {
        push_tickets_locked(id, slot);
        slot = (slot + 1) % threads_;
      }
  }

  SchedStats stats() const {
    SchedStats s;
    s.graphs = 1;
    s.tasks = tasks_;
    s.chunks = chunks_;
    s.ready_hwm = hwm_;
    s.overlap_tasks = overlap_tasks_;
    s.overlap_ns = overlap_ns_.load(std::memory_order_relaxed);
    s.barrier_wait_ns = wait_ns_;
    return s;
  }

  std::exception_ptr error() const { return error_; }

 private:
  using TaskId = TaskGraph::TaskId;
  using Node = TaskGraph::Node;

  void participate(int slot) override {
    bool& in_region = TaskGraph::tl_in_region();
    const bool was_in_region = in_region;
    in_region = true;
    participate_impl(slot);
    in_region = was_in_region;
  }

  void participate_impl(int slot) {
    for (;;) {
      TaskId id = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        // Waits that end in work are genuine pipeline bubbles; credit
        // the gap from the first failed pop to the push that produced
        // the ticket, NOT to the moment this thread got CPU again — OS
        // wake latency is not scheduler stall.  The final wait before
        // done_/stopped_ is join teardown, identical in every engine,
        // and is dropped.
        std::uint64_t wait_start = 0;
        for (;;) {
          if (try_pop_locked(slot, &id)) {
            if (wait_start != 0 && last_push_ns_ > wait_start)
              wait_ns_ += last_push_ns_ - wait_start;
            break;
          }
          if (done_ || stopped_.load(std::memory_order_relaxed)) return;
          if (wait_start == 0) wait_start = now_ns();
          ready_cv_.wait(lk);
        }
      }
      drain(id, slot);
    }
  }

  /// Pops a ticket: own deque from the back (affinity: newest ready work
  /// is cache-warm), other deques from the front (stealing).
  bool try_pop_locked(int slot, TaskId* id) {
    if (!deques_[slot].empty()) {
      *id = deques_[slot].back();
      deques_[slot].pop_back();
      --tickets_;
      return true;
    }
    for (int d = 1; d < threads_; ++d) {
      std::deque<TaskId>& q = deques_[(slot + d) % threads_];
      if (!q.empty()) {
        *id = q.front();
        q.pop_front();
        --tickets_;
        return true;
      }
    }
    return false;
  }

  /// The chunk-pulling loop one ticket buys on node `id`.  One trace
  /// span per ticket: the timeline shows each worker's slice of each
  /// node, which is exactly where cross-layer pipelining is visible.
  void drain(TaskId id, int slot) {
    Node& n = g_.nodes_[id];
    OVO_TRACE_SPAN_ARGS(n.label, "sched", slot, n.akey, n.aval, n.bkey,
                        n.bval);
    for (;;) {
      if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
        halt();
        return;
      }
      if (stopped_.load(std::memory_order_relaxed)) return;
      const std::uint64_t lo =
          n.cursor.fetch_add(n.grain, std::memory_order_relaxed);
      if (lo >= n.end) return;  // exhausted; another ticket finishes it
      const std::uint64_t hi =
          lo + n.grain < n.end ? lo + n.grain : n.end;
      const std::uint64_t t0 = n.overlap ? now_ns() : 0;
      try {
        // Fault site kTaskDispatch: the injected FaultInjected rides the
        // same first-exception-wins drain as a real chunk failure.
        rt::fault_dispatch_hook();
        n.chunk_body(lo, hi, slot);
      } catch (...) {
        fail(std::current_exception());
        return;
      }
      if (n.overlap)
        overlap_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      chunks_.fetch_add(1, std::memory_order_relaxed);
      // acq_rel chains every chunk's writes into whoever retires the
      // last one, so complete() publishes the whole node downstream.
      if (n.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
        complete(id, slot);
    }
  }

  /// Last chunk of `id` retired: mark done, ready the successors whose
  /// dependency count hits zero, and wake waiters.  Two threads can be
  /// in here at once (completing different nodes), so the ready list is
  /// a local — the dep-counter decrements are the atomic handoff.
  void complete(TaskId id, int slot) {
    Node& n = g_.nodes_[id];
    n.done.store(true, std::memory_order_release);
    tasks_.fetch_add(1, std::memory_order_relaxed);
    std::vector<TaskId> ready_now;
    for (const TaskId s : n.succ)
      if (g_.nodes_[s].waiting.fetch_sub(1, std::memory_order_acq_rel) == 1)
        ready_now.push_back(s);
    std::lock_guard<std::mutex> lk(mu_);
    ++nodes_done_;
    for (const TaskId s : ready_now) push_tickets_locked(s, slot);
    if (nodes_done_ == g_.nodes_.size()) {
      done_ = true;
      ready_cv_.notify_all();
    } else if (tickets_ > 1) {
      // Wake one sleeper per ticket beyond the one this thread is about
      // to pop itself (complete() is always followed by a pop).  A
      // notify_all here would stampede every sleeper at every node
      // completion; waking for the finisher's own ticket is futile and
      // both waste CPU and count as scheduler wait.  During thin
      // stretches with one runnable node, extra workers therefore sleep
      // through to the join — idle exactly like the barrier engine's
      // parked pool workers.
      std::uint64_t wake = tickets_ - 1;
      if (wake > static_cast<std::uint64_t>(threads_ - 1))
        wake = static_cast<std::uint64_t>(threads_ - 1);
      for (; wake > 0; --wake) ready_cv_.notify_one();
    }
  }

  /// Publishes min(chunks, threads) tickets for a newly ready node —
  /// one to the finisher's own deque, the rest round-robin — and
  /// returns how many were pushed.
  std::uint64_t push_tickets_locked(TaskId id, int slot) {
    Node& m = g_.nodes_[id];
    if (m.fence >= 0 &&
        !g_.nodes_[static_cast<TaskId>(m.fence)].done.load(
            std::memory_order_acquire)) {
      m.overlap = true;
      ++overlap_tasks_;
    }
    const std::uint64_t want =
        m.nchunks < static_cast<std::uint64_t>(threads_)
            ? m.nchunks
            : static_cast<std::uint64_t>(threads_);
    for (std::uint64_t i = 0; i < want; ++i)
      deques_[(slot + static_cast<int>(i)) % threads_].push_back(id);
    tickets_ += want;
    if (tickets_ > hwm_) hwm_ = tickets_;
    last_push_ns_ = now_ns();
    return want;
  }

  /// First observer of the external stop flag: mark the region stopped
  /// and wake everyone so the DAG drains.
  void halt() {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_.store(true, std::memory_order_relaxed);
    ready_cv_.notify_all();
  }

  void fail(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!error_) error_ = e;
    stopped_.store(true, std::memory_order_relaxed);
    ready_cv_.notify_all();
  }

  TaskGraph& g_;
  const std::atomic<bool>* stop_;
  const int threads_;

  std::mutex mu_;  ///< guards deques_, tickets_, nodes_done_, done_, error_
  std::condition_variable ready_cv_;
  std::vector<std::deque<TaskId>> deques_;  ///< per-slot ready tickets
  std::uint64_t tickets_ = 0;
  std::uint64_t hwm_ = 0;
  std::uint64_t last_push_ns_ = 0;  ///< guarded by mu_
  std::size_t nodes_done_ = 0;
  bool done_ = false;
  std::exception_ptr error_;
  /// Atomic so drain() can poll it without taking mu_ mid-node.
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::uint64_t overlap_tasks_ = 0;          ///< guarded by mu_
  std::atomic<std::uint64_t> overlap_ns_{0};
  std::uint64_t wait_ns_ = 0;                ///< guarded by mu_
};

// ---------------------------------------------------------------------------

bool& TaskGraph::tl_in_region() {
  thread_local bool flag = false;
  return flag;
}

void TaskGraph::run(int threads, const std::atomic<bool>* stop) {
  OVO_CHECK_MSG(!ran_, "TaskGraph: run() is single-shot");
  ran_ = true;
  last_run_ = SchedStats{};
  if (nodes_.empty()) return;
  threads = ThreadPool::clamp_threads(threads);
  for (Node& n : nodes_) {
    n.cursor.store(n.begin, std::memory_order_relaxed);
    n.chunks_left.store(n.nchunks, std::memory_order_relaxed);
    n.waiting.store(n.preds, std::memory_order_relaxed);
  }
  if (threads <= 1 || ThreadPool::in_pool_worker() || tl_in_region()) {
    run_serial(stop);
    return;
  }
  GraphRegion region(*this, threads, stop);
  region.seed();
  const std::uint64_t extra64 =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads - 1),
                              total_chunks_ - 1);
  ThreadPool::shared().run_region(region, static_cast<int>(extra64));
  last_run_ = region.stats();
  accumulate_global(last_run_);
  if (region.error()) std::rethrow_exception(region.error());
}

/// Serial fallback (threads <= 1, or a graph launched from inside a pool
/// worker): dependency order, slot 0, and the same per-chunk stop
/// polling as pooled execution, so budgets interrupt 1-thread runs no
/// later than pooled ones.  Ready nodes execute in the order they become
/// ready (seeded in id order), which for a graph built in topological
/// order reproduces the build order — callers rely on the publish
/// protocol, not on this order, for determinism.
void TaskGraph::run_serial(const std::atomic<bool>* stop) {
  std::deque<TaskId> ready;
  for (TaskId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id].preds == 0) ready.push_back(id);
  SchedStats s;
  s.graphs = 1;
  bool stopped = false;
  while (!ready.empty() && !stopped) {
    const TaskId id = ready.front();
    ready.pop_front();
    Node& n = nodes_[id];
    OVO_TRACE_SPAN_ARGS(n.label, "sched", 0, n.akey, n.aval, n.bkey,
                        n.bval);
    for (std::uint64_t lo = n.begin; lo < n.end; lo += n.grain) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        stopped = true;
        break;
      }
      const std::uint64_t hi = lo + n.grain < n.end ? lo + n.grain : n.end;
      rt::fault_dispatch_hook();
      n.chunk_body(lo, hi, 0);
      ++s.chunks;
    }
    if (stopped) break;
    n.done.store(true, std::memory_order_relaxed);
    ++s.tasks;
    for (const TaskId succ : n.succ)
      if (nodes_[succ].waiting.fetch_sub(1, std::memory_order_relaxed) == 1)
        ready.push_back(succ);
    if (ready.size() > s.ready_hwm) s.ready_hwm = ready.size();
  }
  last_run_ = s;
  accumulate_global(s);
}

}  // namespace ovo::par
