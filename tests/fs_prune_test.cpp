// Tests for the bound-pruned sparse FS* DP (ExecPolicy.prune = kBounds):
// bit-identity with the dense DP over exhaustive small-n sweeps and
// randomized larger functions at every thread count, ledger consistency,
// the certified lower bound, the small-n serial fallback, the one
// parallel region per fanned-out layer, and fault injection
// (cancellation and allocation failure) on the sparse path.  Run under
// the asan/tsan presets by tools/ci.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/fs_checkpoint.hpp"
#include "core/minimize.hpp"
#include "parallel/exec_policy.hpp"
#include "parallel/task_graph.hpp"
#include "reorder/minimize_auto.hpp"
#include "rt/budget.hpp"
#include "rt/fault.hpp"
#include "tt/expr.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo {
namespace {

par::ExecPolicy policy(int threads,
                       par::PruneMode prune = par::PruneMode::kOff) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  return exec;
}

/// The dense ledger identities every pruned run must satisfy.
void expect_consistent_ledger(const core::PruneStats& p) {
  EXPECT_EQ(p.states_generated, p.states_pruned + p.states_surviving);
  EXPECT_EQ(p.states_enumerated(), p.states_generated + p.states_dead);
  EXPECT_LE(p.sparse_cells, p.dense_cells);
}

// ----------------------------------------------------- differential sweeps --

// Every Boolean function on 3 variables, serial: the pruned DP must
// return the dense optimum, order, and tie-breaks for all of them.
TEST(FsPruneDifferential, ExhaustiveN3AllFunctions) {
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    const tt::TruthTable f = tt::TruthTable::tabulate(
        3, [&](std::uint64_t a) { return (bits >> a) & 1u; });
    const core::MinimizeResult dense = core::fs_minimize(f);
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kBdd,
        policy(1, par::PruneMode::kBounds));
    ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
        << "bits=" << bits;
    ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
        << "bits=" << bits;
    expect_consistent_ledger(pruned.ops.prune);
  }
}

// Every Boolean function on 4 variables, serial (65536 functions; each
// DP is a few hundred cells, so the sweep stays cheap).
TEST(FsPruneDifferential, ExhaustiveN4AllFunctions) {
  for (std::uint64_t bits = 0; bits < 65536; ++bits) {
    const tt::TruthTable f = tt::TruthTable::tabulate(
        4, [&](std::uint64_t a) { return (bits >> a) & 1u; });
    const core::MinimizeResult dense = core::fs_minimize(f);
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kBdd,
        policy(1, par::PruneMode::kBounds));
    ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
        << "bits=" << bits;
    ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
        << "bits=" << bits;
  }
}

// Random functions up to n = 10 across thread counts; n >= 7 clears the
// serial-fallback threshold, so threads > 1 genuinely fans the pruned
// layers out.
TEST(FsPruneDifferential, RandomizedAcrossThreadsAndPipelines) {
  util::Xoshiro256 rng(0xbead);
  for (const int n : {5, 6, 7, 8, 10}) {
    const tt::TruthTable f = tt::random_function(n, rng);
    const core::MinimizeResult dense = core::fs_minimize(f);
    for (const int threads : {1, 2, 4, 8}) {
      const core::MinimizeResult pruned = core::fs_minimize(
          f, core::DiagramKind::kBdd,
          policy(threads, par::PruneMode::kBounds));
      ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
          << "n=" << n << " threads=" << threads;
      ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
          << "n=" << n << " threads=" << threads;
      expect_consistent_ledger(pruned.ops.prune);
    }
  }
}

// ZDD kind goes through the same pruned kernels.
TEST(FsPruneDifferential, ZddKindMatchesDense) {
  util::Xoshiro256 rng(0x5eed);
  const tt::TruthTable f = tt::random_sparse_function(7, 11, rng);
  const core::MinimizeResult dense =
      core::fs_minimize(f, core::DiagramKind::kZdd);
  for (const int threads : {1, 4}) {
    const core::MinimizeResult pruned = core::fs_minimize(
        f, core::DiagramKind::kZdd,
        policy(threads, par::PruneMode::kBounds));
    EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
    EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
  }
}

// Incumbents at and above the optimum: pruning cuts only states whose
// bound exceeds the incumbent, so every one of them keeps the dense run's
// order and size.
constexpr std::uint64_t kIncumbentSlack[] = {0, 1, 3};

// A ZDD suppresses every input no satisfying assignment sets, and reaches
// the 0-terminal through suppressed hi edges, so its bound counts
// neither.  On ¬a ∧ ¬b ∧ … ∧ g a bound that did would exceed the optimum
// and prune the optimal chain: with the optimum (or a looser incumbent)
// as the bound, the pruned run must keep the dense run's order and size.
TEST(FsPruneDifferential, ZddNegatedConjunctionsKeepTheOptimum) {
  util::Xoshiro256 rng(0x2dd);
  for (int n = 7; n <= 11; ++n) {
    for (const int negated : {1, 3, n / 2 + 1}) {
      const tt::TruthTable f = tt::random_negated_conjunction(n, negated, rng);
      const core::MinimizeResult dense =
          core::fs_minimize(f, core::DiagramKind::kZdd);
      for (const std::uint64_t slack : kIncumbentSlack) {
        for (const int threads : {1, 4}) {
          const std::uint64_t ub = dense.min_internal_nodes + slack;
          const core::MinimizeResult pruned = core::fs_minimize(
              f, core::DiagramKind::kZdd,
              policy(threads, par::PruneMode::kBounds), ub);
          ASSERT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes)
              << "n=" << n << " negated=" << negated << " ub=" << ub
              << " threads=" << threads;
          ASSERT_EQ(pruned.order_root_first, dense.order_root_first)
              << "n=" << n << " negated=" << negated << " ub=" << ub
              << " threads=" << threads;
          EXPECT_EQ(pruned.ops.prune.upper_bound, ub);
        }
      }
    }
  }
}

// The tightest admissible incumbent — the exact optimum — must keep the
// optimal chain alive (pruning cuts strictly-greater bounds only), and so
// must looser ones; BDDs through fs_minimize, MTBDD value tables through
// the engine.
TEST(FsPruneDifferential, TightUpperBoundKeepsTheOptimum) {
  util::Xoshiro256 rng(0x7137);
  for (int trial = 0; trial < 3; ++trial) {
    const tt::TruthTable f = tt::random_function(8, rng);
    const core::MinimizeResult dense = core::fs_minimize(f);
    for (const std::uint64_t slack : kIncumbentSlack) {
      for (const int threads : {1, 4}) {
        const std::uint64_t ub = dense.min_internal_nodes + slack;
        const core::MinimizeResult pruned = core::fs_minimize(
            f, core::DiagramKind::kBdd,
            policy(threads, par::PruneMode::kBounds), ub);
        EXPECT_EQ(pruned.min_internal_nodes, dense.min_internal_nodes);
        EXPECT_EQ(pruned.order_root_first, dense.order_root_first);
        EXPECT_EQ(pruned.ops.prune.upper_bound, ub);
      }
    }
  }
  for (const int n : {7, 8}) {
    std::vector<std::int64_t> values(std::size_t{1} << n);
    for (std::int64_t& v : values) v = static_cast<std::int64_t>(rng.below(4));
    const core::PrefixTable base = core::initial_table_values(values, n);
    const util::Mask all = util::full_mask(n);
    std::vector<int> dense_order;
    const std::uint64_t opt =
        core::fs_star_full(base, all, core::DiagramKind::kMtbdd, nullptr,
                           &dense_order)
            .mincost();
    for (const std::uint64_t slack : kIncumbentSlack) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "mtbdd n=" << n << " ub="
                                          << opt + slack
                                          << " threads=" << threads);
        const core::FsStarResult pruned = core::fs_star(
            base, all, n, core::DiagramKind::kMtbdd, nullptr,
            policy(threads, par::PruneMode::kBounds), nullptr, opt + slack);
        EXPECT_EQ(pruned.tables.at(all).mincost(), opt);
        EXPECT_EQ(core::reconstruct_block_order(pruned, all), dense_order);
        EXPECT_EQ(pruned.prune.upper_bound, opt + slack);
      }
    }
  }
}

// The one completion bound (core::completion_bound) prunes both the DP
// and branch and bound.  With every input placed nothing is left to
// create, so the bound must be 0.
TEST(LowerBound, ZeroAtCompletion) {
  const core::PrefixTable base = core::initial_table(tt::parity(3));
  core::PrefixTable t = base;
  for (const int v : {0, 1, 2})
    t = core::compact(t, v, core::DiagramKind::kBdd);
  const util::Mask support =
      core::bound_support(base, core::DiagramKind::kBdd);
  core::BoundScratch scratch;
  EXPECT_EQ(core::completion_bound(t, 0, support, 1, core::DiagramKind::kBdd,
                                   scratch),
            0u);
}

// At the empty prefix the bound must not exceed the true optimum.
TEST(LowerBound, IsAdmissibleAtTheRoot) {
  util::Xoshiro256 rng(3);
  core::BoundScratch scratch;
  for (int trial = 0; trial < 8; ++trial) {
    const tt::TruthTable f = tt::random_function(5, rng);
    const std::uint64_t opt = core::fs_minimize(f).min_internal_nodes;
    const core::PrefixTable root = core::initial_table(f);
    const util::Mask support =
        core::bound_support(root, core::DiagramKind::kBdd);
    EXPECT_LE(core::completion_bound(root, util::full_mask(5), support, 1,
                                     core::DiagramKind::kBdd, scratch),
              opt)
        << "trial=" << trial;
  }
}

// The bound must hold at every state: for every K ⊆ [n], the bound on
// K's table is at most the cheapest completion of K, FS* over the other
// inputs minus K's mincost.
TEST(LowerBound, CompletionRespectsBoundEverywhere) {
  using core::DiagramKind;
  struct Case {
    DiagramKind kind;
    core::PrefixTable base;
  };
  std::vector<Case> cases;
  {
    util::Xoshiro256 rng(5);
    for (int trial = 0; trial < 8; ++trial) {
      const tt::TruthTable f = tt::random_function(5, rng);
      cases.push_back({DiagramKind::kBdd, core::initial_table(f)});
    }
  }
  util::Xoshiro256 rng(0xb0d);
  for (int n = 4; n <= 8; ++n) {
    for (const DiagramKind kind : {DiagramKind::kBdd, DiagramKind::kZdd}) {
      for (int trial = 0; trial < 3; ++trial) {
        for (const tt::TruthTable& f :
             {tt::random_function(n, rng),
              tt::random_sparse_function(n, std::uint64_t{1} << (n - 2), rng),
              tt::random_negated_conjunction(n, 1 + trial, rng)})
          cases.push_back({kind, core::initial_table(f)});
      }
    }
    for (const std::uint64_t range : {2u, 3u, 4u, 6u}) {
      std::vector<std::int64_t> values(std::size_t{1} << n);
      for (std::int64_t& v : values)
        v = static_cast<std::int64_t>(rng.below(range));
      cases.push_back(
          {DiagramKind::kMtbdd, core::initial_table_values(values, n)});
    }
  }
  std::uint64_t states = 0;
  core::BoundScratch scratch;
  for (const Case& c : cases) {
    const int n = c.base.n;
    const util::Mask all = util::full_mask(n);
    const util::Mask support = core::bound_support(c.base, c.kind);
    for (int k = 0; k <= n; ++k) {
      // A stop-early run keeps one table per k-subset, at its mincost.
      const core::FsStarResult layer = core::fs_star(c.base, all, k, c.kind);
      for (const auto& [K, narrow] : layer.tables) {
        const core::PrefixTable t = narrow.widen();
        const util::Mask rest = all & ~K;
        const std::uint64_t cheapest =
            core::fs_star_full(t, rest, c.kind).mincost() - t.mincost();
        ASSERT_LE(core::completion_bound(t, rest, support, 1, c.kind, scratch),
                  cheapest)
            << "kind=" << static_cast<int>(c.kind) << " n=" << n
            << " K=" << K;
        ++states;
      }
    }
  }
  // Every subset of every case: 8 * 2^5 + sum over n of 22 * 2^n.
  EXPECT_EQ(states, 8u * 32u + 22u * (16u + 32u + 64u + 128u + 256u));
}

// ------------------------------------------------------- ledger and bound --

TEST(FsPruneLedger, CountsCoverTheSubsetLatticeAndBoundIsExact) {
  util::Xoshiro256 rng(0xcafe);
  const int n = 8;
  const tt::TruthTable f = tt::random_function(n, rng);
  core::OpCounter ops;
  const core::FsStarResult r = core::fs_star(
      core::initial_table(f), util::full_mask(n), n, core::DiagramKind::kBdd,
      &ops, policy(1, par::PruneMode::kBounds));
  expect_consistent_ledger(r.prune);
  // Enumerated states cover every non-empty subset of the lattice.
  std::uint64_t lattice = 0;
  for (int k = 1; k <= n; ++k) lattice += util::binomial_u64(n, k);
  EXPECT_EQ(r.prune.states_enumerated(), lattice);
  EXPECT_GT(r.prune.states_surviving, 0u);
  // A completed pruned run's certified bound IS the optimum, and the
  // engine's ledger reaches the caller through the OpCounter.
  EXPECT_EQ(r.certified_lower_bound, r.tables.at(util::full_mask(n)).mincost());
  EXPECT_EQ(ops.prune.states_generated, r.prune.states_generated);
  // The self-seeded incumbent is a real chain cost: optimum <= ub.
  EXPECT_GE(r.prune.upper_bound, r.certified_lower_bound);
}

// A run the budget trips still certifies a lower bound, which must never
// exceed the size the run returns — nor the optimum — for any kind.  The
// ZDD cases include negated conjunctions, on which a bound that counted
// suppressed inputs or the 0-terminal certified above the optimum.
TEST(FsPruneLedger, TrippedRunsCertifyAtMostTheirSize) {
  util::Xoshiro256 rng(0x1b);
  constexpr core::DiagramKind kBdd = core::DiagramKind::kBdd;
  constexpr core::DiagramKind kZdd = core::DiagramKind::kZdd;
  const std::vector<std::pair<core::DiagramKind, tt::TruthTable>> cases{
      {kZdd, tt::expr_to_truth_table(
                 *tt::parse_expr("!x1 & !x2 & !x3 & (x4 | x5) & (x6 ^ x7)"),
                 7)},
      {kZdd, tt::random_negated_conjunction(9, 3, rng)},
      {kZdd, tt::random_negated_conjunction(10, 5, rng)},
      {kZdd, tt::random_sparse_function(9, 40, rng)},
      {kBdd, tt::random_function(9, rng)},
      {kBdd, tt::adder_carry(10)}};
  int tripped = 0;
  for (const auto& [kind, f] : cases) {
    const std::uint64_t optimum = core::fs_minimize(f, kind).min_internal_nodes;
    for (const std::uint64_t limit : {100u, 1000u, 10000u, 100000u}) {
      reorder::AutoMinimizeOptions opt;
      opt.kind = kind;
      opt.exec.prune = par::PruneMode::kBounds;
      rt::Budget budget;
      budget.work_limit = limit;
      const auto r = reorder::minimize_auto(f, budget, opt);
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << static_cast<int>(kind) << " n="
                   << f.num_vars() << " limit=" << limit);
      tripped += r.outcome != rt::Outcome::kComplete;
      EXPECT_LE(r.value.lower_bound, optimum);
      EXPECT_LE(r.value.lower_bound, r.value.internal_nodes);
    }
  }
  EXPECT_GT(tripped, 12);
  // MTBDD, through the engine: a tripped run's certified bound.
  std::vector<std::int64_t> values(std::size_t{1} << 9);
  for (std::int64_t& v : values) v = static_cast<std::int64_t>(rng.below(3));
  const core::PrefixTable base = core::initial_table_values(values, 9);
  const std::uint64_t optimum =
      core::fs_minimize_mtbdd(values, 9).min_internal_nodes;
  int mtbdd_tripped = 0;
  for (const std::uint64_t limit : {1000u, 10000u, 100000u}) {
    rt::Budget budget;
    budget.work_limit = limit;
    rt::Governor gov(budget);
    const core::FsStarResult r =
        core::fs_star(base, util::full_mask(9), 9, core::DiagramKind::kMtbdd,
                      nullptr, policy(1, par::PruneMode::kBounds), &gov);
    mtbdd_tripped += r.completed_layers < 9;
    EXPECT_LE(r.certified_lower_bound, optimum) << "limit=" << limit;
  }
  EXPECT_GT(mtbdd_tripped, 0);
}

// A dense run is the engine's unpruned case: serially and fanned out
// (n = 7 clears the small-n serial fallback at 4 threads), it leaves the
// prune ledger and the certified bound at zero.
TEST(FsPruneLedger, DenseModeLeavesLedgerUntouched) {
  util::Xoshiro256 rng(0xd00d);
  for (const int n : {6, 7}) {
    const tt::TruthTable f = tt::random_function(n, rng);
    const core::MinimizeResult serial = core::fs_minimize(f);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const par::SchedStats before = par::sched_stats();
      const core::MinimizeResult dense =
          core::fs_minimize(f, core::DiagramKind::kBdd, policy(threads));
      if (n == 7 && threads == 4) {
        EXPECT_GT((par::sched_stats() - before).graphs, 0u);
      }
      EXPECT_EQ(dense.ops.prune.states_enumerated(), 0u);
      EXPECT_EQ(dense.ops.prune.upper_bound, 0u);
      EXPECT_EQ(dense.ops.prune.dense_cells, 0u);
      EXPECT_EQ(dense.ops.prune.sparse_cells, 0u);
      EXPECT_EQ(dense.ops.table_cells, serial.ops.table_cells);
      const core::FsStarResult r = core::fs_star(
          core::initial_table(f), util::full_mask(n), n,
          core::DiagramKind::kBdd, nullptr, policy(threads));
      EXPECT_EQ(r.certified_lower_bound, 0u);
      EXPECT_EQ(r.prune.states_enumerated(), 0u);
      // kOff is the default: an explicit kOff policy is the same run.
      const core::MinimizeResult off = core::fs_minimize(
          f, core::DiagramKind::kBdd,
          policy(threads, par::PruneMode::kOff));
      EXPECT_EQ(off.min_internal_nodes, serial.min_internal_nodes);
      EXPECT_EQ(off.order_root_first, serial.order_root_first);
      EXPECT_EQ(off.ops.table_cells, serial.ops.table_cells);
    }
  }
}

// Stop-early runs must keep the dense all-subsets contract even when the
// policy asks for pruning (partition searches read every stop-layer
// subset).
TEST(FsPruneLedger, StopEarlyRunsIgnoreThePruneFlag) {
  const tt::TruthTable f = tt::majority(5);
  const util::Mask all = util::full_mask(5);
  for (int k = 1; k < 5; ++k) {
    const core::FsStarResult r =
        core::fs_star(core::initial_table(f), all, k, core::DiagramKind::kBdd,
                      nullptr, policy(1, par::PruneMode::kBounds));
    EXPECT_EQ(r.tables.size(), util::binomial_u64(5, k)) << "k=" << k;
    EXPECT_EQ(r.prune.states_enumerated(), 0u) << "k=" << k;
  }
}

// --------------------------------------------------- fallback and routing --

// Below the serial-fallback work threshold a threads=4 run must not
// touch the scheduler at all: zero graphs, zero chunks.  Above it, each
// layer with more than one state is one parallel region.
TEST(FsPruneRouting, SmallInstancesFallBackToSerial) {
  util::Xoshiro256 rng(0xfa11);
  const tt::TruthTable small = tt::random_function(6, rng);
  const par::SchedStats before = par::sched_stats();
  const core::MinimizeResult r =
      core::fs_minimize(small, core::DiagramKind::kBdd, policy(4));
  const par::SchedStats delta = par::sched_stats() - before;
  EXPECT_EQ(delta.graphs, 0u);
  EXPECT_EQ(delta.chunks, 0u);
  EXPECT_EQ(r.min_internal_nodes, core::fs_minimize(small).min_internal_nodes);

  // One variable more clears the threshold: layers 1..6 of the n = 7 DP
  // (7, 21, 35, 35, 21, 7 states) fan out, one region each; layer 7's
  // single state runs inline.
  const tt::TruthTable big = tt::random_function(7, rng);
  const par::SchedStats before2 = par::sched_stats();
  core::fs_minimize(big, core::DiagramKind::kBdd, policy(4));
  const par::SchedStats delta2 = par::sched_stats() - before2;
  EXPECT_EQ(delta2.graphs, 6u);
  EXPECT_GT(delta2.chunks, 0u);
}

// A pruned run under deterministic budget limits runs the same engine as
// an ungoverned one: the same result and the same parallel regions, one
// per fanned-out layer.
TEST(FsPruneRouting, DeterministicLimitsForceTheBarrierEngine) {
  util::Xoshiro256 rng(0xbead);
  const tt::TruthTable f = tt::random_function(7, rng);
  const par::ExecPolicy exec = policy(4, par::PruneMode::kBounds);

  const par::SchedStats before = par::sched_stats();
  core::OpCounter ops;
  rt::Governor roomy(rt::Budget::with_work_limit(~std::uint64_t{0} >> 1));
  const core::FsStarResult governed =
      core::fs_star(core::initial_table(f), util::full_mask(7), 7,
                    core::DiagramKind::kBdd, &ops, exec, &roomy);
  const par::SchedStats delta = par::sched_stats() - before;
  EXPECT_GT(delta.graphs, 1u);  // one region per fanned-out layer

  const par::SchedStats before2 = par::sched_stats();
  core::OpCounter free_ops;
  const core::FsStarResult free_run =
      core::fs_star(core::initial_table(f), util::full_mask(7), 7,
                    core::DiagramKind::kBdd, &free_ops, exec);
  const par::SchedStats delta2 = par::sched_stats() - before2;
  EXPECT_EQ(delta2.graphs, delta.graphs);

  EXPECT_EQ(governed.tables.at(util::full_mask(7)).mincost(),
            free_run.tables.at(util::full_mask(7)).mincost());
  EXPECT_EQ(core::reconstruct_block_order(governed, util::full_mask(7)),
            core::reconstruct_block_order(free_run, util::full_mask(7)));
  EXPECT_EQ(governed.states, free_run.states);
  EXPECT_EQ(governed.certified_lower_bound, free_run.certified_lower_bound);
  EXPECT_EQ(ops.table_cells, free_ops.table_cells);
  EXPECT_EQ(ops.prune.states_surviving, free_ops.prune.states_surviving);
}

// ------------------------------------------------------- governed pruning --

// A deterministic work-limit trip mid-DP must return the same partial
// ledger, certified bound, and salvaged order at every thread count.
TEST(FsPruneGoverned, WorkLimitTripIsThreadCountInvariant) {
  util::Xoshiro256 rng(0x90b0);
  const tt::TruthTable f = tt::random_function(9, rng);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;

  rt::Budget b;
  b.work_limit = 30000;  // trips a few layers into the n=9 pruned DP
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(1, par::PruneMode::kBounds);

  const auto reference = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(reference.outcome, rt::Outcome::kDeadline);
  EXPECT_FALSE(reference.value.optimal);
  EXPECT_LE(reference.value.lower_bound, optimal);
  EXPECT_GE(reference.value.internal_nodes, optimal);
  expect_consistent_ledger(reference.value.ops.prune);

  for (const int threads : {2, 4, 8}) {
    reorder::AutoMinimizeOptions t_opt;
    t_opt.exec = policy(threads, par::PruneMode::kBounds);
    const auto r = reorder::minimize_auto(f, b, t_opt);
    EXPECT_EQ(r.outcome, reference.outcome) << "threads=" << threads;
    EXPECT_EQ(r.value.order_root_first, reference.value.order_root_first)
        << "threads=" << threads;
    EXPECT_EQ(r.value.internal_nodes, reference.value.internal_nodes)
        << "threads=" << threads;
    EXPECT_EQ(r.value.lower_bound, reference.value.lower_bound)
        << "threads=" << threads;
    EXPECT_EQ(r.value.dp_layers_completed,
              reference.value.dp_layers_completed)
        << "threads=" << threads;
    EXPECT_EQ(r.value.ops.prune.states_surviving,
              reference.value.ops.prune.states_surviving)
        << "threads=" << threads;
  }
}

// The governed ladder with pruning on and a roomy budget completes and
// proves optimality, with the prune ledger in the result.
TEST(FsPruneGoverned, RoomyBudgetCompletesOptimally) {
  util::Xoshiro256 rng(0x600d);
  const tt::TruthTable f = tt::random_function(8, rng);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4, par::PruneMode::kBounds);
  const auto r = reorder::minimize_auto(f, rt::Budget{}, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
  EXPECT_TRUE(r.value.optimal);
  EXPECT_EQ(r.value.internal_nodes, optimal);
  EXPECT_EQ(r.value.lower_bound, optimal);
  expect_consistent_ledger(r.value.ops.prune);
  EXPECT_GT(r.value.ops.prune.states_surviving, 0u);
}

// ------------------------------------------------------------ proof stop --

/// The sift seed the ladder prunes against on `f` (serial, ungoverned).
reorder::PruneSeedResult sift_seed(const tt::TruthTable& f) {
  reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
  return reorder::seed_prune_bound(oracle, "sift", 8,
                                   reorder::kLadderRestarts,
                                   reorder::kLadderSeed,
                                   reorder::EvalContext{});
}

/// Everything a ladder run reports, ledgers included.
void expect_same_run(const rt::Result<reorder::AutoMinimizeResult>& a,
                     const rt::Result<reorder::AutoMinimizeResult>& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.value.order_root_first, b.value.order_root_first);
  EXPECT_EQ(a.value.internal_nodes, b.value.internal_nodes);
  EXPECT_EQ(a.value.optimal, b.value.optimal);
  EXPECT_EQ(a.value.lower_bound, b.value.lower_bound);
  EXPECT_EQ(a.value.dp_layers_completed, b.value.dp_layers_completed);
  obs::Ledger la, lb;
  a.value.ops.to_ledger(la);
  b.value.ops.to_ledger(lb);
  EXPECT_EQ(la.pinned(), lb.pinned());
  obs::Ledger oa, ob;
  a.value.oracle.to_ledger(oa);
  b.value.oracle.to_ledger(ob);
  EXPECT_EQ(oa.pinned(), ob.pinned());
  EXPECT_EQ(a.stats.work_units, b.stats.work_units);
}

// Pair-sum's sift seed is its optimum n, and layer 0's certified bound
// already meets it: the pruned ladder builds no layer and returns the
// seed's order, proven, identically at 1 and 4 threads.
TEST(FsPruneProof, PairSumIsProvenAtLayerZero) {
  for (int pairs = 3; pairs <= 7; ++pairs) {
    const tt::TruthTable f = tt::pair_sum(pairs);
    const std::uint64_t n = static_cast<std::uint64_t>(2 * pairs);
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    ASSERT_EQ(sift_seed(f).upper_bound, n);
    rt::Result<reorder::AutoMinimizeResult> serial;
    for (const int threads : {1, 4}) {
      reorder::AutoMinimizeOptions opt;
      opt.exec = policy(threads, par::PruneMode::kBounds);
      const auto r = reorder::minimize_auto(f, rt::Budget{}, opt);
      EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
      EXPECT_EQ(r.value.ops.states, 0u);
      EXPECT_EQ(r.value.dp_layers_completed, 0);
      EXPECT_EQ(r.value.ops.prune.upper_bound, n);
      EXPECT_TRUE(r.value.optimal);
      EXPECT_EQ(r.value.internal_nodes, n);
      EXPECT_EQ(r.value.lower_bound, n);
      core::PrefixTable cur, next;
      EXPECT_EQ(core::diagram_size_from_base(core::initial_table(f),
                                             r.value.order_root_first,
                                             core::DiagramKind::kBdd, cur,
                                             next),
                n);
      if (threads == 1)
        serial = r;
      else
        expect_same_run(r, serial);
    }
  }
}

// Adder carry(6)'s sift seed is certified at fence 5 of 6: the run stops
// at the first fence whose bound meets the seed, with the dense size.
TEST(FsPruneProof, AdderCarryStopsAtTheFirstFenceThatMeetsTheSeed) {
  const tt::TruthTable f = tt::adder_carry(6);
  const std::uint64_t seed = sift_seed(f).upper_bound;
  const std::uint64_t dense = core::fs_minimize(f).min_internal_nodes;
  ASSERT_EQ(seed, dense);

  // Every fence's certified bound, from a pruned DP of every layer.
  std::vector<std::uint64_t> bounds;
  core::FsCheckpointOptions ckpt;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
    bounds.push_back(
        core::decode_snapshot(p.data(), p.size()).certified_lower_bound);
  };
  core::fs_star(core::initial_table(f), util::full_mask(6), 6,
                core::DiagramKind::kBdd, nullptr,
                policy(1, par::PruneMode::kBounds), nullptr, seed, &ckpt);
  ASSERT_EQ(bounds.size(), 5u);  // fences 1..5
  const int first = static_cast<int>(
      std::find(bounds.begin(), bounds.end(), seed) - bounds.begin()) + 1;
  EXPECT_EQ(first, 5);

  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4, par::PruneMode::kBounds);
  const auto r = reorder::minimize_auto(f, rt::Budget{}, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
  EXPECT_EQ(r.value.dp_layers_completed, first);
  EXPECT_TRUE(r.value.optimal);
  EXPECT_EQ(r.value.internal_nodes, dense);
  EXPECT_EQ(r.value.order_root_first, sift_seed(f).order_root_first);
  EXPECT_EQ(core::diagram_size_for_order(f, r.value.order_root_first), dense);
}

// A seed above the optimum is never certified, so the DP reaches its
// last layer and returns the dense DP's order, as does a self-seeded
// (`none`) run, which holds no order to prove.
TEST(FsPruneProof, UnprovenSeedsReturnTheDenseOrder) {
  const tt::TruthTable above = tt::expr_to_truth_table(
      *tt::parse_expr("(x1 ^ x5) & (x2 | x6) | x3 & !x7 & x4 | x8 & (x2 ^ x7)"),
      8);
  ASSERT_GT(sift_seed(above).upper_bound,
            core::fs_minimize(above).min_internal_nodes);
  const struct {
    tt::TruthTable f;
    const char* seed;
  } cases[] = {{above, "sift"}, {above, "none"}, {tt::pair_sum(4), "none"}};
  for (const auto& c : cases) {
    const core::MinimizeResult dense = core::fs_minimize(c.f);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << c.seed << " threads=" << threads);
      reorder::AutoMinimizeOptions opt;
      opt.exec = policy(threads, par::PruneMode::kBounds);
      opt.prune_seed = c.seed;
      const auto r = reorder::minimize_auto(c.f, rt::Budget{}, opt);
      EXPECT_EQ(r.value.dp_layers_completed, c.f.num_vars());
      EXPECT_EQ(r.value.order_root_first, dense.order_root_first);
      EXPECT_EQ(r.value.internal_nodes, dense.min_internal_nodes);
      EXPECT_TRUE(r.value.optimal);
    }
  }
}

// A run that trips after its salvage already meets the certified bound
// runs neither sift nor restarts: exact-pruned's pair-sum(18) text,
// self-seeded under a 2 MiB byte limit, ends mem_limit with its optimum
// proven before stage 3, at 1 and at 4 threads.
TEST(FsPruneProof, NoHeuristicStageAfterTheBoundMeetsTheSalvage) {
  // The pairs of that text's 18 inputs (0-based), in its cube order.
  const int pairs[9][2] = {{6, 13}, {0, 9},   {11, 17}, {3, 12}, {1, 2},
                           {4, 16}, {14, 15}, {5, 8},   {7, 10}};
  const tt::TruthTable f = tt::TruthTable::tabulate(18, [&](std::uint64_t a) {
    for (const auto& p : pairs)
      if (((a >> p[0]) & (a >> p[1]) & 1u) != 0) return true;
    return false;
  });
  rt::Budget b;
  b.bytes_limit = std::uint64_t{2} << 20;
  for (const int threads : {1, 4}) {
    reorder::AutoMinimizeOptions opt;
    opt.exec = policy(threads, par::PruneMode::kBounds);
    opt.prune_seed = "none";
    const auto r = reorder::minimize_auto(f, b, opt);
    SCOPED_TRACE(threads);
    EXPECT_EQ(r.outcome, rt::Outcome::kMemLimit);
    EXPECT_EQ(r.value.internal_nodes, 18u);
    EXPECT_EQ(r.value.lower_bound, 18u);
    EXPECT_TRUE(r.value.optimal);
    EXPECT_EQ(r.value.oracle.queries, 0u);
    EXPECT_EQ(r.stats.work_units, 2359296u);
  }
}

// ---------------------------------------------------------------- faults --

// Cancellation mid-DP on the pruned path: the region drains, the
// ladder salvages a valid order, the prune ledger stays consistent, and
// the interrupted run still reports a certified lower bound.
TEST(FsPruneFaults, CancelMidDagKeepsLedgerAndBoundConsistent) {
  const tt::TruthTable f = tt::hidden_weighted_bit(10);
  const std::uint64_t optimal = core::fs_minimize(f).min_internal_nodes;

  rt::CancelToken token;
  rt::FaultPlan plan;
  plan.cancel_at_checkpoint = 100;  // lands inside the pruned DP
  plan.cancel = &token;
  rt::ScopedFaultPlan scoped(plan);

  rt::Budget b;
  b.cancel = &token;
  reorder::AutoMinimizeOptions opt;
  opt.exec = policy(4, par::PruneMode::kBounds);
  opt.prune_seed = "none";  // keep every checkpoint inside the DP
  const auto r = reorder::minimize_auto(f, b, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kCancelled);
  EXPECT_FALSE(r.value.optimal);
  EXPECT_LT(r.value.dp_layers_completed, 10);
  ASSERT_TRUE(util::is_permutation(r.value.order_root_first));
  EXPECT_EQ(core::diagram_size_for_order(f, r.value.order_root_first),
            r.value.internal_nodes);
  expect_consistent_ledger(r.value.ops.prune);
  EXPECT_GT(r.value.lower_bound, 0u);
  EXPECT_LE(r.value.lower_bound, optimal);
  EXPECT_GE(scoped.checkpoints_seen(), 100u);
}

// Allocation faults injected under the pruned 4-thread DP: the
// bad_alloc drains the region, propagates exactly once, and a rerun with
// the plan gone is bit-identical to the dense serial reference.
TEST(FsPruneFaults, AllocFaultDrainsAndLeavesNoCorruption) {
  util::Xoshiro256 rng(0xa110c);
  const tt::TruthTable f = tt::random_function(8, rng);
  const core::MinimizeResult serial = core::fs_minimize(f);
  const par::ExecPolicy exec = policy(4, par::PruneMode::kBounds);

  std::uint64_t events = 0;
  {
    rt::ScopedFaultPlan probe(rt::FaultPlan{});
    const core::MinimizeResult r =
        core::fs_minimize(f, core::DiagramKind::kBdd, exec);
    EXPECT_EQ(r.min_internal_nodes, serial.min_internal_nodes);
    events = probe.allocations_seen();
  }
  ASSERT_GT(events, 0u);

  for (const std::uint64_t k : {std::uint64_t{1}, events / 2, events}) {
    rt::FaultPlan plan;
    plan.fail_alloc_at = k;
    rt::ScopedFaultPlan scoped(plan);
    try {
      core::fs_minimize(f, core::DiagramKind::kBdd, exec);
      FAIL() << "allocation " << k << " did not fail";
    } catch (const std::bad_alloc&) {
      // expected
    }
  }

  const core::MinimizeResult again =
      core::fs_minimize(f, core::DiagramKind::kBdd, exec);
  EXPECT_EQ(again.min_internal_nodes, serial.min_internal_nodes);
  EXPECT_EQ(again.order_root_first, serial.order_root_first);
}

}  // namespace
}  // namespace ovo
