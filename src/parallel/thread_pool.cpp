#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/task_graph.hpp"
#include "rt/fault.hpp"

namespace ovo::par {

int default_threads() {
  static const int cached = [] {
    if (const char* env = std::getenv("OVO_THREADS")) {
      char* tail = nullptr;
      const long v = std::strtol(env, &tail, 10);
      if (tail != env && *tail == '\0' && v >= 1)
        return ThreadPool::clamp_threads(static_cast<int>(
            v > ThreadPool::kMaxThreads ? ThreadPool::kMaxThreads : v));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1
                   : ThreadPool::clamp_threads(static_cast<int>(hw));
  }();
  return cached;
}

void charge_barrier_wait(std::uint64_t ns) {
  obs::Registry::global().record(obs::Metric::kSchedBarrierWaitNs, ns);
}

/// The process-wide totals ARE the obs registry's sched.* slots — there
/// is no second accumulator.
SchedStats sched_stats() {
  SchedStats s;
  s.from_ledger(obs::Registry::global().snapshot());
  return s;
}

/// One fanned-out region: a chunk cursor over [cursor, end) shared by the
/// caller (slot 0) and `pending` pool workers.
struct ThreadPool::Region {
  Region(std::uint64_t begin, std::uint64_t end, std::uint64_t grain,
         const std::atomic<bool>* stop, const ChunkBody& body)
      : end(end), grain(grain), stop(stop), body(body), cursor(begin) {}

  /// Claims and runs chunks until the cursor passes `end` or the region
  /// halts.  Never throws: the first exception is parked in `error`.
  void participate(int slot) {
    in_region() = true;
    std::uint64_t ran = 0;
    {
      OVO_TRACE_SPAN("task", "sched", slot);
      while (!halted.load(std::memory_order_relaxed)) {
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
          halted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::uint64_t lo =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= end) break;
        const std::uint64_t hi = lo + grain < end ? lo + grain : end;
        try {
          // Fault site kTaskDispatch: the injected FaultInjected takes
          // the same first-exception-wins path as a real chunk failure.
          rt::fault_dispatch_hook();
          body(lo, hi, slot);
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!error) error = std::current_exception();
          halted.store(true, std::memory_order_relaxed);
          break;
        }
        ++ran;
      }
    }
    chunks_run.fetch_add(ran, std::memory_order_relaxed);
    in_region() = false;
  }

  const std::uint64_t end;
  const std::uint64_t grain;
  const std::atomic<bool>* const stop;
  const ChunkBody& body;
  std::atomic<std::uint64_t> cursor;
  std::atomic<std::uint64_t> chunks_run{0};
  /// Set by the first participant that sees the stop flag or a throw.
  std::atomic<bool> halted{false};

  std::mutex mu;  ///< guards error and pending
  std::condition_variable detached;
  std::exception_ptr error;
  int pending = 0;  ///< workers that have not detached yet
};

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool& ThreadPool::in_region() {
  thread_local bool flag = false;
  return flag;
}

void ThreadPool::ensure_workers(int count) {
  std::lock_guard<std::mutex> lk(mu_);
  while (static_cast<int>(workers_.size()) < count &&
         static_cast<int>(workers_.size()) < kMaxThreads - 1)
    workers_.emplace_back([this] { worker_main(); });
}

void ThreadPool::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = queue_.front();
      queue_.pop_front();
    }
    Region& region = *job.region;
    region.participate(job.slot);
    // Detach while holding the region's lock: once pending hits zero the
    // caller may destroy the region, so do not touch it after the unlock.
    std::lock_guard<std::mutex> lk(region.mu);
    if (--region.pending == 0) region.detached.notify_all();
  }
}

void ThreadPool::run_chunked(std::uint64_t begin, std::uint64_t end,
                             std::uint64_t grain, int threads,
                             const std::atomic<bool>* stop,
                             const ChunkBody& body) {
  const std::uint64_t chunks = (end - begin + grain - 1) / grain;
  const int wanted = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(threads - 1),
                              chunks - 1));
  ensure_workers(wanted);
  Region region(begin, end, grain, stop, body);
  {
    std::lock_guard<std::mutex> lk(mu_);
    const int extra = std::min(wanted, static_cast<int>(workers_.size()));
    region.pending = extra;
    for (int s = 1; s <= extra; ++s) queue_.push_back(Job{&region, s});
  }
  cv_.notify_all();
  region.participate(0);
  {
    std::unique_lock<std::mutex> lk(region.mu);
    region.detached.wait(lk, [&] { return region.pending == 0; });
  }
  const std::uint64_t ran = region.chunks_run.load(std::memory_order_relaxed);
  obs::Registry& reg = obs::Registry::global();
  reg.record(obs::Metric::kSchedGraphs, 1);
  reg.record(obs::Metric::kSchedTasks, ran == chunks ? 1 : 0);
  reg.record(obs::Metric::kSchedChunks, ran);
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace ovo::par
