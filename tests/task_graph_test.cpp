// Tests for par::TaskGraph — the dependency-counting scheduler under
// every parallel region.  Contracts under test: dependency edges are
// respected at every thread count, every chunk runs exactly once, the
// pre-assigned-slot publish protocol makes results thread-count
// invariant, fences see their whole epoch and serialize, tasks added
// after a fence pipeline past it, exceptions and mid-DAG stops drain the
// graph without deadlock, nested runs execute inline, and the FS* DP
// built on all of this survives cancellation and allocation faults
// injected mid-flight (run under the asan/tsan presets by tools/ci.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
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

namespace ovo {
namespace {

par::ExecPolicy policy(int threads) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  return exec;
}

// ------------------------------------------------------------- structure --

TEST(TaskGraph, DiamondRespectsDependencyOrderAtEveryThreadCount) {
  for (const int threads : {1, 2, 4, 8}) {
    std::atomic<int> clock{0};
    int at_a = -1, at_b = -1, at_c = -1, at_d = -1;
    par::TaskGraph g;
    const auto a = g.add([&](int) { at_a = clock.fetch_add(1); });
    const auto b = g.add([&](int) { at_b = clock.fetch_add(1); });
    const auto c = g.add([&](int) { at_c = clock.fetch_add(1); });
    const auto d = g.add([&](int) { at_d = clock.fetch_add(1); });
    g.add_edge(a, b);
    g.add_edge(a, c);
    g.add_edge(b, d);
    g.add_edge(c, d);
    g.run(threads);
    EXPECT_LT(at_a, at_b) << "threads=" << threads;
    EXPECT_LT(at_a, at_c) << "threads=" << threads;
    EXPECT_LT(at_b, at_d) << "threads=" << threads;
    EXPECT_LT(at_c, at_d) << "threads=" << threads;
    EXPECT_EQ(g.last_run().tasks, 4u);
  }
}

TEST(TaskGraph, EveryIndexOfEveryRangeNodeRunsExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    const std::uint64_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    par::TaskGraph g;
    // Four chained range nodes over the same index space.
    par::TaskGraph::TaskId prev = 0;
    for (int node = 0; node < 4; ++node) {
      const par::TaskGraph::TaskId id =
          g.add_range(std::uint64_t{0}, n, 7, [&](std::uint64_t i, int slot) {
            EXPECT_GE(slot, 0);
            EXPECT_LT(slot, threads);
            counts[i].fetch_add(1, std::memory_order_relaxed);
          });
      if (node > 0) g.add_edge(prev, id);
      prev = id;
    }
    g.run(threads);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 4);
  }
}

// The publish protocol: every task writes into its pre-assigned slot, so
// the output is identical for every thread count by construction.
TEST(TaskGraph, PublishProtocolMakesResultsThreadCountInvariant) {
  const std::uint64_t n = 64;
  const std::uint64_t group = 16;
  const auto run = [&](int threads) {
    std::vector<std::uint64_t> layer1(n), layer2(n);
    par::TaskGraph g;
    std::vector<par::TaskGraph::TaskId> l1_nodes;
    for (std::uint64_t lo = 0; lo < n; lo += group)
      l1_nodes.push_back(g.add_range(
          lo, lo + group, 4,
          [&](std::uint64_t i, int) { layer1[i] = i * i + 1; }));
    for (std::uint64_t lo = 0; lo < n; lo += group) {
      const auto id = g.add_range(lo, lo + group, 4,
                                  [&](std::uint64_t i, int) {
                                    layer2[i] =
                                        layer1[i] + layer1[(i + 1) % n];
                                  });
      g.add_edge(l1_nodes[lo / group], id);
      g.add_edge(l1_nodes[((lo + group) % n) / group], id);
    }
    g.run(threads);
    return layer2;
  };
  const std::vector<std::uint64_t> serial = run(1);
  for (const int threads : {2, 4, 8}) EXPECT_EQ(run(threads), serial);
}

// --------------------------------------------------------------- fences --

TEST(TaskGraph, FenceSeesItsWholeEpochAndFenceBodiesSerialize) {
  for (const int threads : {1, 2, 4, 8}) {
    std::atomic<int> epoch1{0}, epoch2{0};
    int fence_hits = 0;  // mutated lock-free: fences are serialized
    int seen1 = -1, seen2 = -1;
    par::TaskGraph g;
    for (int t = 0; t < 6; ++t)
      g.add([&](int) { epoch1.fetch_add(1, std::memory_order_relaxed); });
    g.seq_epoch([&](int) {
      seen1 = epoch1.load(std::memory_order_relaxed);
      ++fence_hits;
    });
    for (int t = 0; t < 4; ++t)
      g.add([&](int) { epoch2.fetch_add(1, std::memory_order_relaxed); });
    g.seq_epoch([&](int) {
      seen2 = epoch2.load(std::memory_order_relaxed);
      ++fence_hits;
    });
    g.run(threads);
    EXPECT_EQ(seen1, 6) << "threads=" << threads;
    EXPECT_EQ(seen2, 4) << "threads=" << threads;
    EXPECT_EQ(fence_hits, 2);
  }
}

// A task added after a fence does not depend on it: wired only to one
// layer-1 task, it becomes ready the moment that task completes, which
// is always before the fence (which needs ALL layer-1 tasks) can have
// completed — the scheduler must count it as cross-layer overlap.
TEST(TaskGraph, TasksAfterAFencePipelinePastIt) {
  for (const int threads : {2, 4}) {
    std::atomic<int> ran{0};
    par::TaskGraph g;
    const auto a1 = g.add([&](int) { ran.fetch_add(1); });
    g.add([&](int) { ran.fetch_add(1); });  // a2, fence input only
    g.seq_epoch([&](int) {});
    const auto b1 = g.add([&](int) { ran.fetch_add(1); });
    g.add_edge(a1, b1);
    g.run(threads);
    EXPECT_EQ(ran.load(), 3);
    EXPECT_GE(g.last_run().overlap_tasks, 1u) << "threads=" << threads;
  }
}

TEST(TaskGraph, RunAccumulatesIntoProcessWideStats) {
  const par::SchedStats before = par::sched_stats();
  par::TaskGraph g;
  g.add_range(std::uint64_t{0}, std::uint64_t{100}, 10,
              [](std::uint64_t, int) {});
  g.run(4);
  const par::SchedStats d = par::sched_stats() - before;
  EXPECT_EQ(d.graphs, 1u);
  EXPECT_EQ(d.tasks, g.last_run().tasks);
  EXPECT_EQ(d.chunks, g.last_run().chunks);
  EXPECT_EQ(g.last_run().chunks, 10u);
}

// ------------------------------------------------- exceptions and stops --

TEST(TaskGraph, ExceptionPropagatesOnceAndAbandonsDependents) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> d_ran{false};
    par::TaskGraph g;
    g.add_range(std::uint64_t{0}, std::uint64_t{1000}, 8,
                [](std::uint64_t, int) {});
    const auto b = g.add_range(std::uint64_t{0}, std::uint64_t{1000}, 8,
                               [](std::uint64_t i, int) {
                                 if (i == 500)
                                   throw std::runtime_error("boom");
                               });
    const auto d = g.add([&](int) { d_ran.store(true); });
    g.add_edge(b, d);
    int caught = 0;
    try {
      g.run(4);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    EXPECT_FALSE(d_ran.load());  // its predecessor never completed
  }
}

TEST(TaskGraph, PreTrippedStopRunsNothing) {
  std::atomic<bool> stop{true};
  std::atomic<int> ran{0};
  for (const int threads : {1, 4}) {
    par::TaskGraph g;
    g.add_range(std::uint64_t{0}, std::uint64_t{100}, 1,
                [&](std::uint64_t, int) { ran.fetch_add(1); });
    g.run(threads, &stop);
    EXPECT_EQ(ran.load(), 0);
  }
}

// A stop tripped mid-DAG drains: run() returns, in-flight chunks finish,
// and every fence that DID run observed its complete epoch — the
// "partial layers are discarded, completed fences are trustworthy"
// contract a layered DP relies on.
TEST(TaskGraph, MidDagStopDrainsToAConsistentFenceFrontier) {
  for (const int threads : {1, 2, 4}) {
    for (int round = 0; round < 10; ++round) {
      std::atomic<bool> stop{false};
      constexpr int kLayers = 5;
      constexpr std::uint64_t kLayerSize = 400;
      std::vector<std::atomic<std::uint64_t>> done(kLayers);
      std::vector<std::uint64_t> at_fence(kLayers, ~std::uint64_t{0});
      par::TaskGraph g;
      for (int layer = 0; layer < kLayers; ++layer) {
        g.add_range(std::uint64_t{0}, kLayerSize, 16,
                    [&, layer](std::uint64_t i, int) {
                      if (layer == 2 && i == 100) stop.store(true);
                      done[layer].fetch_add(1, std::memory_order_relaxed);
                    });
        g.seq_epoch([&, layer](int) {
          at_fence[layer] = done[layer].load(std::memory_order_relaxed);
        });
      }
      g.run(threads, &stop);
      for (int layer = 0; layer < kLayers; ++layer) {
        if (at_fence[layer] == ~std::uint64_t{0}) continue;  // never ran
        EXPECT_EQ(at_fence[layer], kLayerSize)
            << "threads=" << threads << " layer=" << layer;
      }
      // The tripping layer's work started, and the final fence cannot
      // have run (its epoch was cut short after the trip at the latest).
      EXPECT_GT(done[2].load(), 0u);
    }
  }
}

// ------------------------------------------------------------- nesting --

TEST(TaskGraph, NestedRunInsideAGraphRegionExecutesInline) {
  std::atomic<int> inner_total{0};
  par::TaskGraph outer;
  outer.add_range(std::uint64_t{0}, std::uint64_t{8}, 1,
                  [&](std::uint64_t, int) {
                    par::TaskGraph inner;
                    inner.add_range(std::uint64_t{0}, std::uint64_t{10}, 1,
                                    [&](std::uint64_t, int slot) {
                                      EXPECT_EQ(slot, 0);
                                      inner_total.fetch_add(
                                          1, std::memory_order_relaxed);
                                    });
                    inner.run(4);
                    // parallel_for routes through the same scheduler and
                    // must also stay inline here.
                    par::ThreadPool::shared().parallel_for(
                        std::uint64_t{0}, std::uint64_t{10}, 1, 4,
                        [&](std::uint64_t, int slot) {
                          EXPECT_EQ(slot, 0);
                          inner_total.fetch_add(1,
                                                std::memory_order_relaxed);
                        });
                  });
  outer.run(4);
  EXPECT_EQ(inner_total.load(), 160);
}

// ----------------------------------------------- faults under the FS* --

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

}  // namespace
}  // namespace ovo
