// Determinism suite for the ovo::par layer and everything built on it:
// the thread pool primitives themselves, the colex-ordered Friedman–Supowit
// DP, the baseline searches, branch and bound, and the statevector sweeps.
// The contract under test: for integer-valued results, every thread count
// produces exactly the serial answer (including merged OpCounter totals);
// for floating-point reductions, all thread counts > 1 are bit-identical
// to each other (chunk-ordered folds with a fixed grain) and agree with
// the serial single-chunk fold to tight tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "parallel/exec_policy.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "quantum/grover.hpp"
#include "quantum/min_find.hpp"
#include "quantum/statevector.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "tt/function_zoo.hpp"
#include "util/rng.hpp"

namespace ovo {
namespace {

par::ExecPolicy policy(int threads) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  return exec;
}

// ---------------------------------------------------------------- pool --

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  par::ThreadPool& pool = par::ThreadPool::shared();
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::uint64_t grain : {std::uint64_t{1}, std::uint64_t{3},
                                      std::uint64_t{16},
                                      std::uint64_t{1000}}) {
      std::vector<std::atomic<int>> counts(1000);
      pool.parallel_for(std::uint64_t{0}, counts.size(), grain, threads,
                        [&](std::uint64_t i, int slot) {
                          EXPECT_GE(slot, 0);
                          EXPECT_LT(slot, threads);
                          counts[i].fetch_add(1, std::memory_order_relaxed);
                        });
      for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
    }
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  int calls = 0;
  par::ThreadPool::shared().parallel_for(
      std::uint64_t{5}, std::uint64_t{5}, 1, 8,
      [&](std::uint64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ExceptionInBodyPropagatesToCaller) {
  EXPECT_THROW(par::ThreadPool::shared().parallel_for(
                   std::uint64_t{0}, std::uint64_t{100}, 1, 4,
                   [](std::uint64_t i, int) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ReduceMatchesClosedFormForEveryThreadCount) {
  const std::uint64_t n = 10000;
  const std::uint64_t expected = n * (n - 1) / 2;
  for (const int threads : {1, 2, 4, 8}) {
    const std::uint64_t sum = par::ThreadPool::shared().parallel_reduce(
        std::uint64_t{0}, n, std::uint64_t{64}, threads, std::uint64_t{0},
        [](std::uint64_t lo, std::uint64_t hi) {
          std::uint64_t s = 0;
          for (std::uint64_t i = lo; i < hi; ++i) s += i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, expected) << "threads=" << threads;
  }
}

// Non-commutative combine exposes the fold order: concatenating chunk
// labels must yield the ascending-chunk string for every thread count > 1.
TEST(ThreadPool, ReduceFoldsPartialsInChunkOrder) {
  const auto run = [](int threads) {
    return par::ThreadPool::shared().parallel_reduce(
        std::uint64_t{0}, std::uint64_t{100}, std::uint64_t{7}, threads,
        std::string{},
        [](std::uint64_t lo, std::uint64_t hi) {
          return "[" + std::to_string(lo) + "," + std::to_string(hi) + ")";
        },
        [](std::string a, std::string b) { return a + b; });
  };
  const std::string two = run(2);
  EXPECT_EQ(two, run(4));
  EXPECT_EQ(two, run(8));
  std::string expected;
  for (std::uint64_t lo = 0; lo < 100; lo += 7)
    expected += "[" + std::to_string(lo) + "," +
                std::to_string(std::min<std::uint64_t>(lo + 7, 100)) + ")";
  EXPECT_EQ(two, expected);
}

TEST(ThreadPool, NestedRegionsRunSeriallyWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  par::ThreadPool::shared().parallel_for(
      std::uint64_t{0}, std::uint64_t{8}, 1, 4, [&](std::uint64_t, int) {
        par::ThreadPool::shared().parallel_for(
            std::uint64_t{0}, std::uint64_t{10}, 1, 4,
            [&](std::uint64_t, int inner_slot) {
              EXPECT_EQ(inner_slot, 0);  // inner region must not fan out
              inner_total.fetch_add(1, std::memory_order_relaxed);
            });
      });
  EXPECT_EQ(inner_total.load(), 80);
}

// A fanned-out region adds one graph, one task and its chunks to the
// process-wide scheduler totals; the serial path touches none of them.
TEST(ThreadPool, ParallelForAccumulatesIntoProcessWideStats) {
  const auto delta = [](int threads) {
    const par::SchedStats before = par::sched_stats();
    par::ThreadPool::shared().parallel_for(
        std::uint64_t{0}, std::uint64_t{100}, 10, threads,
        [](std::uint64_t, int) {});
    return par::sched_stats() - before;
  };
  const par::SchedStats pooled = delta(4);
  EXPECT_EQ(pooled.graphs, 1u);
  EXPECT_EQ(pooled.tasks, 1u);
  EXPECT_EQ(pooled.chunks, 10u);
  const par::SchedStats serial = delta(1);
  EXPECT_EQ(serial.graphs, 0u);
  EXPECT_EQ(serial.tasks, 0u);
  EXPECT_EQ(serial.chunks, 0u);
}

TEST(ExecPolicy, SerialDefaultsAndAutoDetect) {
  const par::ExecPolicy serial;
  EXPECT_TRUE(serial.serial());
  EXPECT_EQ(serial.resolved_threads(), 1);
  const par::ExecPolicy auto_policy = par::ExecPolicy::auto_detect();
  EXPECT_GE(auto_policy.resolved_threads(), 1);
}

// ------------------------------------------------------------------ DP --

void expect_same_minimize(const core::MinimizeResult& a,
                          const core::MinimizeResult& b, int threads) {
  EXPECT_EQ(a.min_internal_nodes, b.min_internal_nodes)
      << "threads=" << threads;
  EXPECT_EQ(a.order_root_first, b.order_root_first) << "threads=" << threads;
  EXPECT_EQ(a.ops.table_cells, b.ops.table_cells) << "threads=" << threads;
  EXPECT_EQ(a.ops.compactions, b.ops.compactions) << "threads=" << threads;
  EXPECT_EQ(a.ops.peak_cells, b.ops.peak_cells) << "threads=" << threads;
  EXPECT_EQ(a.ops.dedup.lookups, b.ops.dedup.lookups)
      << "threads=" << threads;
}

TEST(FsDeterminism, BddIdenticalAcrossThreadCountsUpToN13) {
  util::Xoshiro256 rng(99);
  for (const int n : {5, 9, 13}) {
    const tt::TruthTable f = tt::random_function(n, rng);
    const core::MinimizeResult serial = core::fs_minimize(f);
    for (const int threads : {2, 4, 8}) {
      const core::MinimizeResult par_r =
          core::fs_minimize(f, core::DiagramKind::kBdd, policy(threads));
      expect_same_minimize(serial, par_r, threads);
    }
  }
}

TEST(FsDeterminism, ZddIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(7);
  const tt::TruthTable f = tt::random_function(10, rng);
  const core::MinimizeResult serial =
      core::fs_minimize(f, core::DiagramKind::kZdd);
  for (const int threads : {2, 4, 8}) {
    expect_same_minimize(
        serial, core::fs_minimize(f, core::DiagramKind::kZdd, policy(threads)),
        threads);
  }
}

TEST(FsDeterminism, MtbddIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(21);
  const int n = 9;
  std::vector<std::int64_t> values(std::uint64_t{1} << n);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(5));
  const core::MinimizeResult serial = core::fs_minimize_mtbdd(values, n);
  for (const int threads : {2, 4, 8}) {
    expect_same_minimize(
        serial, core::fs_minimize_mtbdd(values, n, policy(threads)), threads);
  }
}

TEST(FsDeterminism, SharedDiagramIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(33);
  std::vector<tt::TruthTable> outputs;
  for (int i = 0; i < 3; ++i) outputs.push_back(tt::random_function(7, rng));
  const core::MultiMinimizeResult serial = core::fs_minimize_shared(outputs);
  for (const int threads : {2, 8}) {
    const core::MultiMinimizeResult par_r = core::fs_minimize_shared(
        outputs, core::DiagramKind::kBdd, policy(threads));
    EXPECT_EQ(serial.min_internal_nodes, par_r.min_internal_nodes);
    EXPECT_EQ(serial.order_root_first, par_r.order_root_first);
    EXPECT_EQ(serial.ops.table_cells, par_r.ops.table_cells);
  }
}

// The stop-early form returns one table per k-subset; every cell of every
// table (and every state's record) must be bit-identical to the serial
// run.
TEST(FsDeterminism, FsStarLayerTablesBitIdentical) {
  util::Xoshiro256 rng(4242);
  const tt::TruthTable f = tt::random_function(9, rng);
  const core::PrefixTable base = core::initial_table(f);
  const util::Mask J = util::full_mask(9);
  const core::FsStarResult serial =
      core::fs_star(base, J, /*stop_k=*/5, core::DiagramKind::kBdd);
  for (const int threads : {2, 4, 8}) {
    const core::FsStarResult par_r = core::fs_star(
        base, J, 5, core::DiagramKind::kBdd, nullptr, policy(threads));
    EXPECT_EQ(par_r.states, serial.states) << "threads=" << threads;
    ASSERT_EQ(par_r.tables.size(), serial.tables.size());
    for (const auto& [mask, table] : serial.tables) {
      const auto it = par_r.tables.find(mask);
      ASSERT_NE(it, par_r.tables.end());
      EXPECT_EQ(it->second.cells, table.cells);
      EXPECT_EQ(it->second.next_id, table.next_id);
      EXPECT_EQ(it->second.vars, table.vars);
    }
  }
}

// ----------------------------------------------------------- baselines --

TEST(BaselineDeterminism, BruteForceIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(11);
  const tt::TruthTable f = tt::random_function(6, rng);
  reorder::CostOracle serial_oracle(f, core::DiagramKind::kBdd);
  const reorder::OrderSearchResult serial =
      reorder::brute_force_minimize(serial_oracle);
  for (const int threads : {2, 4, 8}) {
    reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
    const reorder::OrderSearchResult par_r =
        reorder::brute_force_minimize(oracle, {policy(threads)});
    EXPECT_EQ(par_r.order_root_first, serial.order_root_first);
    EXPECT_EQ(par_r.internal_nodes, serial.internal_nodes);
    EXPECT_EQ(par_r.worst_internal_nodes, serial.worst_internal_nodes);
    EXPECT_EQ(par_r.orders_evaluated, serial.orders_evaluated);
  }
}

TEST(BaselineDeterminism, SiftAndWindowIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(12);
  const tt::TruthTable f = tt::random_function(8, rng);
  std::vector<int> id(8);
  std::iota(id.begin(), id.end(), 0);
  reorder::CostOracle sift_oracle(f, core::DiagramKind::kBdd);
  const reorder::OrderSearchResult sift_serial =
      reorder::sift(sift_oracle, id);
  reorder::CostOracle window_oracle(f, core::DiagramKind::kBdd);
  const reorder::OrderSearchResult window_serial =
      reorder::window_permute(window_oracle, id, 3);
  for (const int threads : {2, 8}) {
    reorder::CostOracle sift_par_oracle(f, core::DiagramKind::kBdd);
    const reorder::OrderSearchResult sift_par =
        reorder::sift(sift_par_oracle, id, 8, {policy(threads)});
    EXPECT_EQ(sift_par.order_root_first, sift_serial.order_root_first);
    EXPECT_EQ(sift_par.internal_nodes, sift_serial.internal_nodes);
    EXPECT_EQ(sift_par.orders_evaluated, sift_serial.orders_evaluated);
    reorder::CostOracle window_par_oracle(f, core::DiagramKind::kBdd);
    const reorder::OrderSearchResult window_par = reorder::window_permute(
        window_par_oracle, id, 3, 8, {policy(threads)});
    EXPECT_EQ(window_par.order_root_first, window_serial.order_root_first);
    EXPECT_EQ(window_par.internal_nodes, window_serial.internal_nodes);
    EXPECT_EQ(window_par.orders_evaluated, window_serial.orders_evaluated);
  }
}

TEST(BaselineDeterminism, RandomRestartSameRngStreamAndResult) {
  util::Xoshiro256 rng_serial(13), rng_par(13);
  const tt::TruthTable f = tt::random_function(8, rng_serial);
  util::Xoshiro256 rng_par_f(13);
  const tt::TruthTable f2 = tt::random_function(8, rng_par_f);
  reorder::CostOracle serial_oracle(f, core::DiagramKind::kBdd);
  const reorder::OrderSearchResult serial =
      reorder::random_restart(serial_oracle, 20, rng_serial);
  reorder::CostOracle par_oracle(f2, core::DiagramKind::kBdd);
  const reorder::OrderSearchResult par_r = reorder::random_restart(
      par_oracle, 20, rng_par_f, {policy(4)});
  EXPECT_EQ(par_r.order_root_first, serial.order_root_first);
  EXPECT_EQ(par_r.internal_nodes, serial.internal_nodes);
  // The RNG streams must end in the same state (same draws in order).
  EXPECT_EQ(rng_serial.below(std::uint64_t{1} << 30),
            rng_par_f.below(std::uint64_t{1} << 30));
}

TEST(BaselineDeterminism, BranchAndBoundStatsIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(14);
  const tt::TruthTable f = tt::random_function(8, rng);
  reorder::CostOracle serial_oracle(f, core::DiagramKind::kBdd);
  const reorder::BnbResult serial =
      reorder::branch_and_bound_minimize(serial_oracle);
  for (const int threads : {2, 8}) {
    reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
    const reorder::BnbResult par_r = reorder::branch_and_bound_minimize(
        oracle, ~std::uint64_t{0}, {policy(threads)});
    EXPECT_EQ(par_r.order_root_first, serial.order_root_first);
    EXPECT_EQ(par_r.internal_nodes, serial.internal_nodes);
    EXPECT_EQ(par_r.states_expanded, serial.states_expanded);
    EXPECT_EQ(par_r.states_pruned_bound, serial.states_pruned_bound);
    EXPECT_EQ(par_r.states_pruned_dominance, serial.states_pruned_dominance);
  }
}

// ---------------------------------------------------------- statevector --

// Thread counts > 1 share fixed chunk boundaries and a chunk-ordered fold,
// so their amplitudes are bit-identical; the serial path folds the range
// as one chunk, differing only by FP association (tolerance 1e-12).
TEST(StatevectorDeterminism, SweepsBitIdenticalForAllParallelThreadCounts) {
  const int qubits = 14;  // 16384 amplitudes = 4 chunks of kAmpGrain
  const auto evolve = [&](int threads) {
    quantum::Statevector psi(qubits);
    psi.set_exec_policy(policy(threads));
    for (int iter = 0; iter < 3; ++iter) {
      psi.apply_phase_oracle([](std::uint64_t x) { return x % 7 == 3; });
      psi.apply_diffusion();
    }
    return psi;
  };
  const quantum::Statevector serial = evolve(1);
  const quantum::Statevector two = evolve(2);
  for (const int threads : {4, 8}) {
    const quantum::Statevector par_psi = evolve(threads);
    ASSERT_EQ(par_psi.amplitudes().size(), two.amplitudes().size());
    for (std::size_t x = 0; x < two.amplitudes().size(); ++x)
      EXPECT_EQ(par_psi.amplitudes()[x], two.amplitudes()[x])
          << "threads=" << threads << " x=" << x;
  }
  for (std::size_t x = 0; x < two.amplitudes().size(); ++x)
    EXPECT_NEAR(std::abs(two.amplitudes()[x] - serial.amplitudes()[x]), 0.0,
                1e-12);
  EXPECT_EQ(two.norm_squared(), evolve(4).norm_squared());
  EXPECT_NEAR(two.norm_squared(), serial.norm_squared(), 1e-12);
  const auto parity = [](std::uint64_t x) {
    return (util::popcount(x) & 1) == 0;
  };
  EXPECT_NEAR(two.probability_of(parity), serial.probability_of(parity),
              1e-12);
}

TEST(StatevectorDeterminism, GroverMinFinderIdenticalBetweenThreadCounts) {
  std::vector<std::int64_t> values(500);
  util::Xoshiro256 rng(77);
  for (auto& v : values) v = static_cast<std::int64_t>(rng.below(1000));
  values[137] = -5;  // unique minimum
  quantum::GroverMinimumFinder two(/*rounds=*/2, /*seed=*/5, policy(2));
  quantum::GroverMinimumFinder eight(/*rounds=*/2, /*seed=*/5, policy(8));
  const quantum::MinOutcome a = two.find_min(values);
  const quantum::MinOutcome b = eight.find_min(values);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.quantum_queries, b.quantum_queries);
  EXPECT_EQ(a.failed, b.failed);
}

}  // namespace
}  // namespace ovo
