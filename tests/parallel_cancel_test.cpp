// Tests for the thread pool's cooperative-cancellation, exception and
// nesting paths: a stop flag drains regions at chunk boundaries without
// deadlocking, exceptions propagate exactly once while other regions are
// mid-flight, nested regions run inline and count nothing, and the FS*
// DP built on the pool survives cancellation and allocation faults
// injected mid-flight.  The combination runs under the asan and tsan
// presets too.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "reorder/minimize_auto.hpp"
#include "rt/budget.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::par {
namespace {

TEST(Cancellation, NullStopFlagRunsEverything) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<std::uint64_t> ran{0};
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{1000}, 16, 4, nullptr,
                    [&](std::uint64_t, int) {
                      ran.fetch_add(1, std::memory_order_relaxed);
                    });
  EXPECT_EQ(ran.load(), 1000u);
}

TEST(Cancellation, PreTrippedFlagRunsNothingParallel) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<bool> stop{true};
  std::atomic<std::uint64_t> ran{0};
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{1000}, 16, 4, &stop,
                    [&](std::uint64_t, int) {
                      ran.fetch_add(1, std::memory_order_relaxed);
                    });
  EXPECT_EQ(ran.load(), 0u);
}

TEST(Cancellation, SerialPathHonoursChunkGranularity) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<bool> stop{false};
  std::uint64_t ran = 0;
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{1000}, 10, 1, &stop,
                    [&](std::uint64_t i, int) {
                      ++ran;
                      if (i == 99) stop.store(true);
                    });
  // The chunk containing index 99 finishes (chunks are never cut mid-way);
  // nothing after that chunk boundary starts.
  EXPECT_EQ(ran, 100u);
}

TEST(Cancellation, MidFlightTripDrainsWithoutDeadlock) {
  ThreadPool& pool = ThreadPool::shared();
  int drained_early = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ran{0};
    pool.parallel_for(std::uint64_t{0}, std::uint64_t{100'000}, 64, 4, &stop,
                      [&](std::uint64_t i, int) {
                        ran.fetch_add(1, std::memory_order_relaxed);
                        if (i == 5'000) stop.store(true);
                      });
    EXPECT_GT(ran.load(), 0u);
    EXPECT_LE(ran.load(), 100'000u);
    if (ran.load() < 100'000u) ++drained_early;
  }
  // Scheduling could in principle let a single round finish everything
  // before the flag is seen, but across 50 rounds the drain must show.
  EXPECT_GT(drained_early, 0);
}

TEST(Cancellation, StoppedReduceIsDiscardable) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<bool> stop{true};
  // With the flag pre-tripped, the serial path returns init untouched.
  const std::uint64_t r = pool.parallel_reduce(
      std::uint64_t{0}, std::uint64_t{1000}, 16, 1, &stop, std::uint64_t{0},
      [](std::uint64_t lo, std::uint64_t hi) { return hi - lo; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(r, 0u);
}

// --- layer-chain drain -----------------------------------------------------

// A dependency DAG runs as a chain of regions, one per layer, each issued
// after the previous one returns (the FS* DP's layer loop).  Cancelling
// the chain mid-way is a drain, not a loop exit: the layer before the
// trip completes, the tripping layer finishes its in-flight chunks, and
// every later layer sees the tripped flag and runs nothing.  Repeated
// rounds make the mid-flight interleavings show up under the tsan preset.
TEST(Cancellation, MidDagTripDrainsTheGraphWithoutDeadlock) {
  ThreadPool& pool = ThreadPool::shared();
  int drained_early = 0;
  for (int round = 0; round < 30; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ran[4] = {};
    for (int layer = 0; layer < 4; ++layer) {
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{5'000}, 32, 4, &stop,
                        [&](std::uint64_t i, int) {
                          ran[layer].fetch_add(1, std::memory_order_relaxed);
                          if (layer == 1 && i == 1'000) stop.store(true);
                        });
    }
    EXPECT_EQ(ran[0].load(), 5'000u);
    // The chunk holding index 1000 always starts (chunks are claimed in
    // index order and only it trips the flag), and runs to completion.
    EXPECT_GE(ran[1].load(), 32u);
    EXPECT_LE(ran[1].load(), 5'000u);
    EXPECT_EQ(ran[2].load(), 0u);
    EXPECT_EQ(ran[3].load(), 0u);
    if (ran[1].load() < 5'000u) ++drained_early;
  }
  EXPECT_GT(drained_early, 0);
}

// A stop and a chunk exception racing inside the first of two chained
// regions: either outcome (drain or throw) is legal, and in neither does
// the dependent region run an index — a throw never reaches it, and a
// drain hands it a tripped flag.
TEST(Cancellation, DagThrowAndCancelRacingDoNotDeadlock) {
  ThreadPool& pool = ThreadPool::shared();
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> dependent_ran{0};
    try {
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{10'000}, 16, 4, &stop,
                        [&](std::uint64_t i, int) {
                          // Different chunks (grain 16), so the stop poll
                          // before the throwing chunk races the other
                          // worker claiming it.
                          if (i == 500) stop.store(true);
                          if (i == 520) throw std::runtime_error("race");
                        });
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{10'000}, 16, 4, &stop,
                        [&](std::uint64_t, int) {
                          dependent_ran.fetch_add(1,
                                                  std::memory_order_relaxed);
                        });
    } catch (const std::runtime_error&) {
      // Legal outcome; the dependent region was never issued.
    }
    // The chunk holding index 500 is claimed before the throwing one, so
    // the flag is set on both paths.
    EXPECT_TRUE(stop.load());
    EXPECT_EQ(dependent_ran.load(), 0u);
  }
}

// --- exception paths -------------------------------------------------------

TEST(PoolExceptions, ExactlyOneExceptionFromAThrowingRegion) {
  ThreadPool& pool = ThreadPool::shared();
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> caught{0};
    try {
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{10'000}, 8, 4,
                        [&](std::uint64_t i, int) {
                          if (i == 4'321) throw std::runtime_error("boom");
                        });
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
      caught.fetch_add(1);
    }
    EXPECT_EQ(caught.load(), 1);
  }
}

// Two concurrent regions from different threads, one of which throws
// while the other is mid-flight: the healthy region completes every
// index, the throwing region surfaces exactly one exception, and nothing
// deadlocks.
TEST(PoolExceptions, ThrowInOneRegionWhileAnotherIsMidFlight) {
  ThreadPool& pool = ThreadPool::shared();
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::uint64_t> healthy_ran{0};
    std::atomic<int> caught{0};
    std::thread healthy([&] {
      pool.parallel_for(std::uint64_t{0}, std::uint64_t{200'000}, 64, 3,
                        [&](std::uint64_t, int) {
                          healthy_ran.fetch_add(1,
                                                std::memory_order_relaxed);
                        });
    });
    std::thread thrower([&] {
      try {
        pool.parallel_for(std::uint64_t{0}, std::uint64_t{200'000}, 64, 3,
                          [&](std::uint64_t i, int) {
                            if (i == 10'000)
                              throw std::runtime_error("mid-flight");
                          });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    });
    healthy.join();
    thrower.join();
    EXPECT_EQ(healthy_ran.load(), 200'000u);
    EXPECT_EQ(caught.load(), 1);
  }
}

// A region issued from inside another region must serialize (only the
// outermost region fans out), including its exception path.
TEST(PoolExceptions, NestedRegionsSerializeAndPropagate) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<std::uint64_t> inner_total{0};
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{64}, 1, 4,
                    [&](std::uint64_t, int) {
                      pool.parallel_for(std::uint64_t{0}, std::uint64_t{100},
                                        8, 4, [&](std::uint64_t, int) {
                                          inner_total.fetch_add(
                                              1, std::memory_order_relaxed);
                                        });
                    });
  EXPECT_EQ(inner_total.load(), 64u * 100u);

  std::atomic<int> caught{0};
  try {
    pool.parallel_for(std::uint64_t{0}, std::uint64_t{64}, 1, 4,
                      [&](std::uint64_t outer, int) {
                        pool.parallel_for(
                            std::uint64_t{0}, std::uint64_t{100}, 8, 4,
                            [&](std::uint64_t inner, int) {
                              if (outer == 7 && inner == 50)
                                throw std::runtime_error("nested");
                            });
                      });
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "nested");
    caught.fetch_add(1);
  }
  EXPECT_EQ(caught.load(), 1);
}

// A stop flag and an exception thrown in the same chunk or in the next
// one (grain 16), where the stop poll races the worker claiming the
// throwing chunk: whichever wins, the call returns (drain or throw)
// without hanging.
TEST(PoolExceptions, ThrowAndCancelRacingDoNotDeadlock) {
  ThreadPool& pool = ThreadPool::shared();
  for (const std::uint64_t throw_at : {std::uint64_t{1'001},
                                       std::uint64_t{1'020}}) {
    for (int round = 0; round < 20; ++round) {
      std::atomic<bool> stop{false};
      bool threw = false;
      try {
        pool.parallel_for(std::uint64_t{0}, std::uint64_t{50'000}, 16, 4,
                          &stop, [&](std::uint64_t i, int) {
                            if (i == 1'000) stop.store(true);
                            if (i == throw_at)
                              throw std::runtime_error("race");
                          });
      } catch (const std::runtime_error&) {
        threw = true;
      }
      // Either outcome is legal; reaching this line is the assertion.
      (void)threw;
    }
  }
}

// --- nesting ---------------------------------------------------------------

// A region started inside a region runs inline on slot 0 and counts
// nothing, whichever participant starts it: the outer region alone adds
// one graph, one task and its eight chunks to the process-wide totals.
TEST(PoolNesting, InnerRegionsRunInlineAndCountNothing) {
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<int> inner_total{0};
  std::atomic<int> inner_off_slot0{0};
  const SchedStats before = sched_stats();
  pool.parallel_for(std::uint64_t{0}, std::uint64_t{8}, 1, 4,
                    [&](std::uint64_t, int) {
                      pool.parallel_for(
                          std::uint64_t{0}, std::uint64_t{10}, 1, 4,
                          [&](std::uint64_t, int slot) {
                            if (slot != 0) inner_off_slot0.fetch_add(1);
                            inner_total.fetch_add(1);
                          });
                    });
  const SchedStats d = sched_stats() - before;
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_EQ(inner_off_slot0.load(), 0);
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(d.tasks, 1u);
  EXPECT_EQ(d.chunks, 8u);
}

// --- faults under the FS* DP ------------------------------------------------

par::ExecPolicy policy(int threads) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  return exec;
}

// Cancellation tripped at a governor checkpoint *inside* a 4-thread DP
// layer's task bodies: the region drains, the ladder salvages, and the
// result is a valid order with its exact size and Outcome::kCancelled.
TEST(FsDpFaults, CancelMidDagSalvagesAConsistentOutcome) {
  const tt::TruthTable f = tt::hidden_weighted_bit(10);
  rt::CancelToken token;
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = 100;  // mid layer ~3 of the DP
  plan.cancel = &token;
  rt::ScopedFaultPlan scoped(plan);

  rt::Budget b;
  b.cancel = &token;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4);
  const auto r = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kCancelled);
  EXPECT_FALSE(r.value.optimal);
  EXPECT_LT(r.value.dp_layers_completed, 10);
  ASSERT_TRUE(util::is_permutation(r.value.order_root_first));
  ASSERT_EQ(r.value.order_root_first.size(), 10u);
  EXPECT_EQ(core::diagram_size_for_order(f, r.value.order_root_first),
            r.value.internal_nodes);
  EXPECT_GE(scoped.checkpoints_seen(), 100u);
}

// ds-layer allocation faults injected under the 4-thread DP: the
// bad_alloc thrown inside a task body must drain the region, propagate
// exactly once, corrupt nothing (the rerun matches serial), and leak
// nothing under the asan preset.
TEST(FsDpFaults, AllocFaultDrainsAndLeavesNoCorruption) {
  util::Xoshiro256 rng(4242);
  const tt::TruthTable f = tt::random_function(8, rng);
  const core::MinimizeResult serial = core::fs_minimize(f);

  std::uint64_t events = 0;
  {
    rt::ScopedFaultPlan probe(rt::FaultPlan{});
    const core::MinimizeResult r =
        core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
    EXPECT_EQ(r.min_internal_nodes, serial.min_internal_nodes);
    events = probe.allocations_seen();
  }
  ASSERT_GT(events, 0u);

  // Probe the first, a middle, and the last allocation event (which
  // chunk hits event k varies with scheduling; clean unwind must not).
  for (const std::uint64_t k : {std::uint64_t{1}, events / 2, events}) {
    rt::FaultPlan plan;
    plan.fail_alloc_at = k;
    rt::ScopedFaultPlan scoped(plan);
    try {
      core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
      FAIL() << "allocation " << k << " did not fail";
    } catch (const std::bad_alloc&) {
      // expected
    }
  }

  // With the plan gone, the same 4-thread run succeeds bit-identically.
  const core::MinimizeResult again =
      core::fs_minimize(f, core::DiagramKind::kBdd, policy(4));
  EXPECT_EQ(again.min_internal_nodes, serial.min_internal_nodes);
  EXPECT_EQ(again.order_root_first, serial.order_root_first);
  EXPECT_EQ(again.ops.table_cells, serial.ops.table_cells);
}

// A compaction is one allocation event however much its thread's pair
// table has grown before: a dense n = 8 DP sees exactly ops.compactions
// kAlloc events, and sees them again after an n = 12 DP on the same
// threads, so fail-the-Nth-allocation schedules do not depend on what
// ran earlier in the process.
TEST(FsDpFaults, AllocEventsDoNotDependOnThreadHistory) {
  util::Xoshiro256 rng(4243);
  const tt::TruthTable small = tt::random_function(8, rng);
  const tt::TruthTable large = tt::random_function(12, rng);
  for (const int threads : {1, 4}) {
    const auto small_dp_events = [&] {
      rt::ScopedFaultPlan probe(rt::FaultPlan{});
      const core::MinimizeResult r =
          core::fs_minimize(small, core::DiagramKind::kBdd, policy(threads));
      EXPECT_EQ(probe.allocations_seen(), r.ops.compactions)
          << threads << " threads";
      return probe.allocations_seen();
    };
    const std::uint64_t before = small_dp_events();
    core::fs_minimize(large, core::DiagramKind::kBdd, policy(threads));
    EXPECT_EQ(small_dp_events(), before) << threads << " threads";
  }
}

}  // namespace
}  // namespace ovo::par
