#pragma once
// The ovo::par worker pool: one flat parallel region per call.
//
// Model: a parallel region splits an index range [begin, end) into
// chunks of `grain` consecutive indices.  The calling thread always
// participates (as slot 0), joined by up to min(threads - 1, chunks - 1)
// pool workers; every participant claims the next chunk with one
// fetch_add on a shared cursor and detaches once the cursor passes the
// end.  `threads = t` therefore means the caller plus up to t - 1 pool
// workers.
//
// Determinism contract:
//  * parallel_for(threads <= 1, stop == nullptr) runs a plain serial
//    loop on the calling thread — no pool machinery, bit-identical to
//    pre-parallel code.  With a stop flag, the serial path polls it at
//    the same per-chunk granularity as pooled execution, so budgets
//    interrupt 1-thread runs no later than 4-thread runs.
//  * Which thread runs which chunk is scheduling-dependent; callers make
//    results deterministic by giving every index its own write slot
//    (e.g. the DP writes subset results at the subset's colex rank).
//  * Per-thread scratch is indexed by the `slot` argument passed to the
//    body (0 = caller, 1..t-1 = workers).  Slot-indexed accumulators
//    must be merged with commutative operations (sums, maxes) to stay
//    deterministic, because slot-to-chunk assignment is not.
//  * parallel_reduce computes one partial per *chunk* and folds the
//    partials in chunk order, so its result depends on the grain but not
//    on the thread count — except threads <= 1 (or a nested region)
//    without a stop flag, which maps the whole range as a single chunk
//    (bit-identical to a pre-parallel serial accumulation loop).  A
//    *governed* serial reduce (stop != nullptr) folds chunk by chunk
//    like the pooled path — same fold order, same cancellation
//    granularity at every thread count.
//
// Nested regions: a region issued by a thread that already participates
// in one — a pool worker or the caller as slot 0 — runs inline on that
// thread as slot 0 of the inner region and counts nothing.  Only the
// outermost region fans out.
//
// Cooperative cancellation: the overloads taking a `stop` flag check it
// before every chunk and drain cooperatively when it flips.
// Already-started chunks run to completion, so a stopped region never
// leaves a chunk half-executed; callers discard the region's output when
// the flag is set.  The flag is typically rt::Governor::stop_flag().
// Passing stop == nullptr compiles to the ungoverned code path.
//
// Exceptions: the first exception a chunk throws stops the region (no
// further chunk starts) and is rethrown on the caller after every worker
// has detached.
//
// Counters and tracing: each fanned-out region adds one graph, one task
// if every chunk ran, and its executed chunks to the process-wide
// sched.* totals (task_graph.hpp), and every participant records one
// `task` trace span in category `sched`.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/exec_policy.hpp"

namespace ovo::par {

class ThreadPool {
 public:
  /// Hard ceiling on cooperating threads per region (and on worker slot
  /// ids).  Requests beyond it are clamped.
  static constexpr int kMaxThreads = 64;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by all call sites.  Lazily grows its
  /// worker set to the largest thread count ever requested (minus the
  /// caller), capped at kMaxThreads - 1; a process that only ever runs
  /// serial policies never spawns a thread.
  static ThreadPool& shared();

  /// Clamps a requested thread count into [1, kMaxThreads].
  static int clamp_threads(int threads) {
    return threads < 1 ? 1 : (threads > kMaxThreads ? kMaxThreads : threads);
  }

  /// Runs fn(i, slot) for every i in [begin, end), chunked by `grain`
  /// over at most `threads` threads (caller included).  slot identifies
  /// the executing thread within this region, in [0, threads).
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads, Fn&& fn) {
    parallel_for(begin, end, grain, threads,
                 static_cast<const std::atomic<bool>*>(nullptr),
                 std::forward<Fn>(fn));
  }

  /// As above, plus a cooperative stop flag checked at chunk boundaries
  /// (see header comment).  stop may be nullptr.
  template <typename Fn>
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads,
                    const std::atomic<bool>* stop, Fn&& fn) {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    threads = clamp_threads(threads);
    const std::uint64_t chunks = (end - begin + grain - 1) / grain;
    if (threads <= 1 || chunks <= 1 || in_region()) {
      if (stop == nullptr) {
        for (std::uint64_t i = begin; i < end; ++i) fn(i, 0);
        return;
      }
      // Serial path honours the same chunk-boundary stop granularity as
      // the parallel one, so governed runs degrade identically.
      for (std::uint64_t lo = begin; lo < end; lo += grain) {
        if (stop->load(std::memory_order_relaxed)) return;
        const std::uint64_t hi = lo + grain < end ? lo + grain : end;
        for (std::uint64_t i = lo; i < hi; ++i) fn(i, 0);
      }
      return;
    }
    run_chunked(begin, end, grain, threads, stop,
                [&fn](std::uint64_t lo, std::uint64_t hi, int slot) {
                  for (std::uint64_t i = lo; i < hi; ++i) fn(i, slot);
                });
  }

  /// Maps chunks [lo, hi) of [begin, end) with `map_chunk` and folds the
  /// per-chunk partials with `combine` in ascending chunk order, seeded
  /// by `init`.  threads <= 1 (or a nested region) maps the whole range
  /// as one chunk.
  template <typename T, typename MapChunk, typename Combine>
  T parallel_reduce(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads, T init,
                    MapChunk&& map_chunk, Combine&& combine) {
    return parallel_reduce(begin, end, grain, threads,
                           static_cast<const std::atomic<bool>*>(nullptr),
                           std::move(init), std::forward<MapChunk>(map_chunk),
                           std::forward<Combine>(combine));
  }

  /// As above with a cooperative stop flag.  When the flag trips
  /// mid-region the unmapped chunks contribute default-constructed
  /// partials (parallel) or are simply missing from the fold (serial),
  /// so the caller must treat the result as garbage whenever the flag is
  /// set on return.  The governed serial path maps and folds chunk by
  /// chunk — the pooled fold order — polling the flag between chunks.
  template <typename T, typename MapChunk, typename Combine>
  T parallel_reduce(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t grain, int threads,
                    const std::atomic<bool>* stop, T init,
                    MapChunk&& map_chunk, Combine&& combine) {
    if (begin >= end) return init;
    if (grain == 0) grain = 1;
    threads = clamp_threads(threads);
    const std::uint64_t chunks = (end - begin + grain - 1) / grain;
    if (threads <= 1 || chunks <= 1 || in_region()) {
      if (stop == nullptr)
        return combine(std::move(init), map_chunk(begin, end));
      if (chunks <= 1) {
        if (stop->load(std::memory_order_relaxed)) return init;
        return combine(std::move(init), map_chunk(begin, end));
      }
      T acc = std::move(init);
      for (std::uint64_t lo = begin; lo < end; lo += grain) {
        if (stop->load(std::memory_order_relaxed)) return acc;
        const std::uint64_t hi = lo + grain < end ? lo + grain : end;
        acc = combine(std::move(acc), map_chunk(lo, hi));
      }
      return acc;
    }
    std::vector<T> partials(chunks);
    parallel_for(0, chunks, 1, threads, stop, [&](std::uint64_t c, int) {
      const std::uint64_t lo = begin + c * grain;
      const std::uint64_t hi = lo + grain < end ? lo + grain : end;
      partials[c] = map_chunk(lo, hi);
    });
    T acc = std::move(init);
    for (T& p : partials) acc = combine(std::move(acc), std::move(p));
    return acc;
  }

 private:
  using ChunkBody = std::function<void(std::uint64_t, std::uint64_t, int)>;
  /// One fanned-out region; defined in thread_pool.cpp.
  struct Region;
  struct Job {
    Region* region = nullptr;
    int slot = 0;
  };

  /// True while this thread participates in a region (a pool worker
  /// servicing one, or the caller as its slot 0): regions it starts run
  /// inline.
  static bool& in_region();

  /// Fans [begin, end) out as one flat region (see header comment).
  void run_chunked(std::uint64_t begin, std::uint64_t end,
                   std::uint64_t grain, int threads,
                   const std::atomic<bool>* stop, const ChunkBody& body);

  void ensure_workers(int count);
  void worker_main();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace ovo::par
