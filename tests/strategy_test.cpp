// Migration pins and registry tests for the unified reorder cost-oracle
// and strategy layer.
//
// The pins hard-code the results every algorithm produced *before* the
// CostOracle refactor (same function, same seeds), at thread counts 1
// and 4: the refactor's contract is bit-identical orders, sizes, and
// tie-breaks, with reuse (the kept prefix chains) changing only how much
// work runs, never what comes out.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/dynamic_reorder.hpp"
#include "bdd/manager.hpp"
#include "core/minimize.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "reorder/annealing.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "reorder/exact_window.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
#include "reorder/strategy.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {
namespace {

/// The fixed 7-variable function every pin below was measured on.
tt::TruthTable pin_function() {
  util::Xoshiro256 rng(99);
  return tt::random_function(7, rng);
}

std::vector<int> identity(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

using Order = std::vector<int>;

class MigrationPins : public ::testing::TestWithParam<int> {
 protected:
  par::ExecPolicy exec() const {
    par::ExecPolicy e;
    e.num_threads = GetParam();
    return e;
  }
};

TEST_P(MigrationPins, Sift) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  const auto r = sift(oracle, identity(7), 8, {exec()});
  EXPECT_EQ(r.internal_nodes, 38u);
  EXPECT_EQ(r.order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));
  EXPECT_EQ(r.orders_evaluated, 99u);
}

TEST_P(MigrationPins, WindowPermute) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  const auto r = window_permute(oracle, identity(7), 3, 8, {exec()});
  EXPECT_EQ(r.internal_nodes, 39u);
  EXPECT_EQ(r.order_root_first, (Order{0, 1, 2, 3, 5, 4, 6}));
}

TEST_P(MigrationPins, BruteForce) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  const auto r = brute_force_minimize(oracle, {exec()});
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(r.orders_evaluated, 5040u);
}

TEST_P(MigrationPins, Annealing) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  util::Xoshiro256 rng(42);
  // Annealing evaluates one candidate at a time and reads no ctx.exec;
  // run it at every MigrationPins instantiation anyway so the suite
  // shape stays uniform.
  const auto r =
      simulated_annealing(oracle, identity(7), AnnealOptions{}, rng);
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(r.orders_evaluated, 1201u);
  EXPECT_EQ(r.moves_accepted, 656u);
}

TEST_P(MigrationPins, RandomRestart) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  util::Xoshiro256 rng(42);
  const auto r = random_restart(oracle, 16, rng, {exec()});
  EXPECT_EQ(r.internal_nodes, 38u);
  EXPECT_EQ(r.order_root_first, (Order{3, 1, 5, 4, 2, 6, 0}));
}

TEST_P(MigrationPins, BranchAndBound) {
  CostOracle oracle(pin_function(), core::DiagramKind::kBdd);
  const auto r =
      branch_and_bound_minimize(oracle, ~std::uint64_t{0}, {exec()});
  EXPECT_EQ(r.internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(r.states_expanded, 56u);
  EXPECT_TRUE(r.complete);
}

TEST_P(MigrationPins, FsAndExactWindow) {
  const tt::TruthTable f = pin_function();
  const auto fs = core::fs_minimize(f, core::DiagramKind::kBdd, exec());
  EXPECT_EQ(fs.min_internal_nodes, 36u);
  EXPECT_EQ(fs.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  CostOracle oracle(f, core::DiagramKind::kBdd);
  const auto ew = exact_window(oracle, identity(7), 3);
  EXPECT_EQ(ew.internal_nodes, 39u);
  EXPECT_EQ(ew.order_root_first, (Order{0, 1, 2, 3, 5, 4, 6}));
}

TEST_P(MigrationPins, MinimizeAutoUnbudgeted) {
  const tt::TruthTable f = pin_function();
  AutoMinimizeOptions opt;
  opt.exec = exec();
  const auto r = minimize_auto(f, rt::Budget{}, opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kComplete);
  EXPECT_TRUE(r.value.optimal);
  EXPECT_EQ(r.value.internal_nodes, 36u);
  EXPECT_EQ(r.value.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
}

TEST_P(MigrationPins, MinimizeAutoBudgeted) {
  const tt::TruthTable f = pin_function();
  AutoMinimizeOptions opt;
  opt.exec = exec();
  const auto r =
      minimize_auto(f, rt::Budget::with_work_limit(3000), opt);
  EXPECT_EQ(r.outcome, rt::Outcome::kDeadline);
  EXPECT_EQ(r.value.internal_nodes, 38u);
  EXPECT_EQ(r.value.order_root_first, (Order{6, 5, 4, 2, 3, 0, 1}));
  EXPECT_EQ(r.value.dp_layers_completed, 1);
  EXPECT_EQ(r.value.lower_bound, 2u);
  EXPECT_EQ(r.stats.work_units, 2928u);
}

TEST_P(MigrationPins, DynamicSift) {
  const tt::TruthTable f = pin_function();
  bdd::Manager m(7);
  const bdd::NodeId root = m.from_truth_table(f);
  const auto r = bdd::sift_in_place(m, {root});
  EXPECT_EQ(r.final_nodes, 38u);
  EXPECT_EQ(r.swaps, 172u);
  EXPECT_EQ(r.passes, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(m.order(), (Order{1, 2, 3, 0, 5, 4, 6}));
}

TEST_P(MigrationPins, QuantumOptObdd) {
  const tt::TruthTable f = pin_function();
  quantum::AccountingMinimumFinder finder(7.0);
  quantum::OptObddOptions opt;
  opt.alphas = {0.27};
  opt.finder = &finder;
  opt.exec = exec();
  const auto r = quantum::opt_obdd_minimize(f, opt);
  EXPECT_EQ(r.min_internal_nodes, 36u);
  EXPECT_EQ(r.order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(r.quantum.candidates_evaluated, 21u);
  EXPECT_NEAR(r.quantum.quantum_queries, 32.078, 0.01);
  EXPECT_EQ(r.classical_ops.table_cells, 20594u);
}

INSTANTIATE_TEST_SUITE_P(Threads, MigrationPins, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------

TEST(StrategyRegistry, HasElevenEntriesAndRejectsUnknown) {
  EXPECT_EQ(strategies().size(), 11u);
  EXPECT_EQ(find_strategy("no-such-strategy"), nullptr);
  for (const Strategy& s : strategies()) {
    const Strategy* found = find_strategy(s.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, &s);
  }
}

TEST(StrategyRegistry, EveryStrategyMatchesItsDirectCall) {
  const tt::TruthTable f = pin_function();
  const StrategyOptions opt;  // window 3, max_passes 8, 16 restarts, seed 42
  const EvalContext ctx;

  const auto run = [&](const char* name) {
    const Strategy* s = find_strategy(name);
    EXPECT_NE(s, nullptr) << name;
    return s->run(f, opt, ctx);
  };

  // Exact engines agree with each other and the registry.
  for (const char* exact : {"fs", "auto", "bnb", "brute", "quantum"}) {
    const StrategyResult r = run(exact);
    EXPECT_EQ(r.internal_nodes, 36u) << exact;
    EXPECT_TRUE(r.optimal) << exact;
    EXPECT_EQ(r.outcome, rt::Outcome::kComplete) << exact;
  }
  EXPECT_EQ(run("fs").order_root_first, (Order{1, 3, 5, 4, 6, 0, 2}));
  EXPECT_EQ(run("bnb").order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));

  // Heuristics reproduce their direct-call pins.
  EXPECT_EQ(run("sift").internal_nodes, 38u);
  EXPECT_EQ(run("sift").order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));
  EXPECT_EQ(run("window").internal_nodes, 39u);
  EXPECT_EQ(run("exact-window").internal_nodes, 39u);
  EXPECT_EQ(run("anneal").internal_nodes, 36u);
  EXPECT_EQ(run("anneal").order_root_first, (Order{5, 3, 1, 4, 6, 0, 2}));
  EXPECT_EQ(run("restarts").internal_nodes, 38u);
  EXPECT_EQ(run("restarts").order_root_first, (Order{3, 1, 5, 4, 2, 6, 0}));
  EXPECT_EQ(run("dynamic").internal_nodes, 38u);
  EXPECT_EQ(run("dynamic").order_root_first, (Order{1, 2, 3, 0, 5, 4, 6}));

  // Every strategy reports through the unified counters, and the
  // invariant queries == evals + memo_hits holds wherever queries flow.
  for (const Strategy& s : strategies()) {
    const StrategyResult r = s.run(f, opt, ctx);
    EXPECT_EQ(r.oracle.queries, r.oracle.evals + r.oracle.memo_hits)
        << s.name;
    EXPECT_FALSE(r.order_root_first.empty()) << s.name;
  }
}

// ---------------------------------------------------------------------------
// `fs` and `auto` name one exact route, the governed ladder: the same
// seeding, budgets, cancellation and salvage, and the same result.

/// Runs the registered strategy `name` under a fresh governor for
/// `budget` (and ctx.exec = `exec`).
StrategyResult run_governed(const char* name, const tt::TruthTable& f,
                            const StrategyOptions& opt,
                            const par::ExecPolicy& exec,
                            const rt::Budget& budget) {
  rt::Governor gov(budget);
  return find_strategy(name)->run(f, opt, EvalContext{exec, &gov});
}

/// Every field a caller reads, the oracle counters through their ledger.
void expect_same_result(const StrategyResult& a, const StrategyResult& b) {
  EXPECT_EQ(a.order_root_first, b.order_root_first);
  EXPECT_EQ(a.internal_nodes, b.internal_nodes);
  EXPECT_EQ(a.optimal, b.optimal);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.outcome, b.outcome);
  obs::Ledger la, lb;
  a.oracle.to_ledger(la);
  b.oracle.to_ledger(lb);
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    const auto m = static_cast<obs::Metric>(i);
    EXPECT_EQ(la.get(m), lb.get(m)) << obs::kMetricInfo[i].name;
  }
  EXPECT_EQ(a.run.work_units, b.run.work_units);
}

TEST(FsIsTheLadder, BothNamesRunOneFunction) {
  EXPECT_EQ(find_strategy("fs")->run, find_strategy("auto")->run);
}

TEST(FsIsTheLadder, WorkLimitTripsAndSalvages) {
  const tt::TruthTable f = pin_function();
  const StrategyOptions opt;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    par::ExecPolicy exec;
    exec.num_threads = threads;
    // Below the dense DP's 2n·3^(n-1) = 10,206 cells at n = 7.
    const rt::Budget budget = rt::Budget::with_work_limit(3000);
    const StrategyResult fs = run_governed("fs", f, opt, exec, budget);
    EXPECT_EQ(fs.outcome, rt::Outcome::kDeadline);
    EXPECT_FALSE(fs.optimal);
    ASSERT_TRUE(util::is_permutation(fs.order_root_first));
    ASSERT_EQ(fs.order_root_first.size(), 7u);
    EXPECT_EQ(core::diagram_size_for_order(f, fs.order_root_first),
              fs.internal_nodes);
    EXPECT_LE(fs.lower_bound, fs.internal_nodes);
    expect_same_result(fs, run_governed("auto", f, opt, exec, budget));
  }
}

TEST(FsIsTheLadder, CancelAtAGovernorPollEndsCancelled) {
  const tt::TruthTable f = tt::hidden_weighted_bit(10);
  const StrategyOptions opt;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    rt::CancelToken token;
    rt::FaultPlan plan;
    plan.cancel_at_checkpoint = 3;
    plan.cancel = &token;
    rt::ScopedFaultPlan scoped(plan);
    rt::Budget budget;
    budget.cancel = &token;
    par::ExecPolicy exec;
    exec.num_threads = threads;
    const StrategyResult fs = run_governed("fs", f, opt, exec, budget);
    EXPECT_EQ(fs.outcome, rt::Outcome::kCancelled);
    EXPECT_FALSE(fs.optimal);
    ASSERT_TRUE(util::is_permutation(fs.order_root_first));
    ASSERT_EQ(fs.order_root_first.size(), 10u);
    EXPECT_EQ(core::diagram_size_for_order(f, fs.order_root_first),
              fs.internal_nodes);
    EXPECT_LE(fs.lower_bound, fs.internal_nodes);
  }
}

TEST(FsIsTheLadder, SameResultAsAutoForEveryPruneSeedKindAndThreadCount) {
  const tt::TruthTable f = pin_function();
  for (const core::DiagramKind kind :
       {core::DiagramKind::kBdd, core::DiagramKind::kZdd}) {
    for (const int threads : {1, 4}) {
      // Prune off, then bound pruning seeded by each heuristic.
      std::vector<std::string> seeds = {""};
      for (const std::string_view s : kPruneSeeds) seeds.emplace_back(s);
      for (const std::string& seed : seeds) {
        SCOPED_TRACE(std::string(kind == core::DiagramKind::kZdd ? "zdd"
                                                                 : "bdd") +
                     " threads " + std::to_string(threads) + " seed '" +
                     seed + "'");
        StrategyOptions opt;
        opt.kind = kind;
        EvalContext ctx;
        ctx.exec.num_threads = threads;
        if (!seed.empty()) {
          opt.prune_seed = seed;
          ctx.exec.prune = par::PruneMode::kBounds;
        }
        const StrategyResult fs = find_strategy("fs")->run(f, opt, ctx);
        EXPECT_EQ(fs.outcome, rt::Outcome::kComplete);
        EXPECT_TRUE(fs.optimal);
        EXPECT_GT(fs.run.work_units, 0u);
        expect_same_result(fs, find_strategy("auto")->run(f, opt, ctx));
      }
    }
  }
}

TEST(CostOracle, MemoDeterminismAcrossThreadCounts) {
  const tt::TruthTable f = pin_function();
  Order ref_order;
  std::uint64_t ref_nodes = 0, ref_q = 0, ref_e = 0, ref_h = 0;
  for (const int threads : {1, 2, 4, 8}) {
    CostOracle oracle(f, core::DiagramKind::kBdd);
    EvalContext ctx;
    ctx.exec.num_threads = threads;
    const auto r = sift(oracle, identity(7), 8, ctx);
    const OracleStats& st = oracle.stats();
    EXPECT_EQ(st.queries, st.evals + st.memo_hits);
    if (threads == 1) {
      ref_order = r.order_root_first;
      ref_nodes = r.internal_nodes;
      ref_q = st.queries;
      ref_e = st.evals;
      ref_h = st.memo_hits;
      EXPECT_GT(st.memo_hits, 0u);  // sift revisits neighboring orders
    } else {
      EXPECT_EQ(r.order_root_first, ref_order) << threads;
      EXPECT_EQ(r.internal_nodes, ref_nodes) << threads;
      EXPECT_EQ(st.queries, ref_q) << threads;
      EXPECT_EQ(st.evals, ref_e) << threads;
      EXPECT_EQ(st.memo_hits, ref_h) << threads;
    }
  }
}

// Sifting's insertion sizes come from one prefix chain and the level
// deltas of Lemma 3.  Each must equal a whole chain of the order it
// sizes, for every kind, every variable and random orders, at one and at
// four threads (from n = 12 on the positions fan out over the pool;
// smaller n size them on the calling thread), and a governed call sizes
// exactly the admitted root-first prefix.  Window permutation, annealing
// and exact windows size whole orders through one kept chain, which
// recompacts only above the lowest level a candidate changes: every
// window-3 permutation of each order and a walk of random transpositions
// from it, sized through one sizer, must equal whole chains too.
TEST(CostOracle, InsertionSizesEqualWholeChains) {
  util::Xoshiro256 rng(27);
  const auto shuffled = [&](int n) {
    Order o = identity(n);
    for (int i = n - 1; i > 0; --i)
      std::swap(o[static_cast<std::size_t>(i)],
                o[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    return o;
  };
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15}) {
    for (const core::DiagramKind kind :
         {core::DiagramKind::kBdd, core::DiagramKind::kZdd,
          core::DiagramKind::kMtbdd}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " kind "
                                      << static_cast<int>(kind));
      std::vector<std::int64_t> values(std::size_t{1} << n);
      for (std::int64_t& x : values)
        x = static_cast<std::int64_t>(rng.below(4));
      CostOracle oracle = kind == core::DiagramKind::kMtbdd
                              ? CostOracle(values, n)
                              : CostOracle(tt::random_function(n, rng), kind);
      // One sizer per thread count, kept across the orders below so that
      // calls reuse chain prefixes and repeat whole calls.
      core::InsertionSizer sizers[2] = {{oracle.base(), kind},
                                        {oracle.base(), kind}};
      core::InsertionSizer whole(oracle.base(), kind);
      core::PrefixTable cur, next;
      const auto expect_whole_chain = [&](const Order& cand) {
        const OracleStats before = oracle.stats();
        ASSERT_EQ(oracle.size_for_order(whole, cand),
                  core::diagram_size_from_base(oracle.base(), cand, kind,
                                               cur, next))
            << testing::PrintToString(cand);
        EXPECT_EQ(oracle.stats().queries, before.queries + 1);
        EXPECT_EQ(oracle.stats().evals, before.evals + 1);
      };
      const int orders = n <= 12 ? 3 : 1;
      for (int trial = 0; trial < orders; ++trial) {
        const Order order = shuffled(n);
        const int w = std::min(n, 3);
        for (int s = 0; s + w <= n; ++s) {
          Order cand = order;
          std::sort(cand.begin() + s, cand.begin() + s + w);
          do {
            expect_whole_chain(cand);
          } while (std::next_permutation(cand.begin() + s,
                                         cand.begin() + s + w));
        }
        Order walk = order;
        for (int move = 0; move < 2 * n && n > 1; ++move) {
          const std::size_t i = rng.below(static_cast<std::uint64_t>(n));
          const std::size_t j =
              (i + 1 + rng.below(static_cast<std::uint64_t>(n - 1))) %
              static_cast<std::size_t>(n);
          std::swap(walk[i], walk[j]);
          expect_whole_chain(walk);
        }
        for (int v = 0; v < n; ++v) {
          Order rest = order;
          rest.erase(std::find(rest.begin(), rest.end(), v));
          std::vector<std::uint64_t> sizes[2];
          for (int t = 0; t < 2; ++t) {
            EvalContext ctx;
            ctx.exec.num_threads = t == 0 ? 1 : 4;
            sizes[t] = oracle.insertion_sizes(sizers[t], rest, v, ctx);
          }
          ASSERT_EQ(sizes[0], sizes[1]) << "v " << v;
          ASSERT_EQ(sizes[0].size(), static_cast<std::size_t>(n));
          for (int p = 0; p < n; ++p) {
            Order cand = rest;
            cand.insert(cand.begin() + p, v);
            ASSERT_EQ(sizes[0][static_cast<std::size_t>(p)],
                      core::diagram_size_from_base(oracle.base(), cand, kind,
                                                   cur, next))
                << "v " << v << " position " << p;
          }
          // A repeated call is answered from the sizes the sizer kept.
          const OracleStats before = oracle.stats();
          EXPECT_EQ(oracle.insertion_sizes(sizers[0], rest, v, {}), sizes[0]);
          EXPECT_EQ(oracle.stats().memo_hits, before.memo_hits + n);
          EXPECT_EQ(oracle.stats().evals, before.evals);
          // A budget that admits c positions sizes the first c.
          const std::uint64_t c = static_cast<std::uint64_t>(v) % n + 1;
          rt::Governor gov(rt::Budget::with_work_limit(
              c * oracle.chain_eval_cost() + oracle.chain_eval_cost() - 1));
          core::InsertionSizer fresh(oracle.base(), kind);
          const std::vector<std::uint64_t> cut =
              oracle.insertion_sizes(fresh, rest, v, EvalContext{{}, &gov});
          for (std::size_t p = 0; p < cut.size(); ++p)
            EXPECT_EQ(cut[p], p < c ? sizes[0][p] : core::kAbortedSize);
        }
      }
      const OracleStats& st = oracle.stats();
      EXPECT_EQ(st.queries, st.evals + st.memo_hits);
    }
  }
}

// Sift is governed exactly as before it sized positions from one chain:
// each step admits and charges n whole chains at the same serial point
// and sizes the same root-first prefix, and the governor polls at the
// same points.  On adder carry(16) with scrambled inputs, sift under
// work limits that cut a step mid-batch, the pruned ladder cancelled
// inside its sift seed, and the ladder's stage-3 sift on what a tripped
// DP leaves all return the order, size, outcome and work of the memoized
// chain-per-candidate sift, at one and at four threads.
TEST(SiftGoverned, TripsWhereChainPerCandidateSiftTripped) {
  Order perm = identity(16);
  util::Xoshiro256 rng(27);
  for (int i = 15; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  const tt::TruthTable f = tt::adder_carry(16).permute_inputs(perm);
  const std::uint64_t chain = core::chain_eval_cost(16);
  struct Pin {
    std::uint64_t nodes, work;
    Order order;
  };
  const Order salvaged = {9, 8, 5, 2, 14, 11, 12, 7, 13, 3, 15, 4, 10, 6, 1, 0};
  const struct {
    std::uint64_t limit;
    Pin pin;
  } sift_pins[] = {
      {chain * 8, {147, 1048560, {1, 2, 3, 4, 5, 6, 0, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15}}},
      {chain * 41, {135, 5373870, {2, 3, 4, 5, 1, 6, 0, 7, 8, 9, 10, 11,
                                   12, 13, 14, 15}}},
      {chain * 100, {65, 13107000, {2, 5, 1, 6, 0, 7, 8, 9, 10, 11, 12, 4,
                                    3, 13, 14, 15}}},
      {chain * 300, {32, 39321000, {2, 5, 1, 6, 0, 10, 9, 8, 7, 12, 15, 4,
                                    3, 13, 14, 11}}}};
  const struct {
    std::uint64_t poll;
    std::uint64_t work;
  } cancel_pins[] = {
      {2, 262140}, {5, 6553500}, {9, 14941980}, {30, 58981500}};
  const struct {
    std::uint64_t limit;
    Pin pin;
  } ladder_pins[] = {
      {3000000, {23, 2883580, {9, 8, 5, 2, 14, 11, 12, 7, 13, 3, 15, 4, 10,
                               0, 1, 6}}},
      {9000000, {23, 8912870, {9, 8, 14, 11, 12, 7, 13, 3, 15, 4, 0, 10, 6,
                               1, 2, 5}}}};
  const auto expect_pin = [](const StrategyResult& r, const Pin& pin,
                             rt::Outcome outcome) {
    EXPECT_EQ(r.internal_nodes, pin.nodes);
    EXPECT_EQ(r.run.work_units, pin.work);
    EXPECT_EQ(r.order_root_first, pin.order);
    EXPECT_EQ(r.outcome, outcome);
  };
  const StrategyOptions opt;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    par::ExecPolicy exec;
    exec.num_threads = threads;
    for (const auto& [limit, pin] : sift_pins)
      expect_pin(run_governed("sift", f, opt, exec,
                              rt::Budget::with_work_limit(limit)),
                 pin, rt::Outcome::kDeadline);
    for (const auto& [poll, work] : cancel_pins) {
      SCOPED_TRACE(poll);
      rt::CancelToken token;
      rt::FaultPlan plan;
      plan.cancel_at_checkpoint = poll;
      plan.cancel = &token;
      rt::ScopedFaultPlan scoped(plan);
      rt::Budget budget;
      budget.cancel = &token;
      par::ExecPolicy pruned = exec;
      pruned.prune = par::PruneMode::kBounds;
      expect_pin(run_governed("fs", f, opt, pruned, budget),
                 {24, work, salvaged}, rt::Outcome::kCancelled);
    }
    for (const auto& [limit, pin] : ladder_pins)
      expect_pin(run_governed("fs", f, opt, exec,
                              rt::Budget::with_work_limit(limit)),
                 pin, rt::Outcome::kDeadline);
  }
}

// Window permutation, annealing and exact windows are governed exactly as
// before they sized candidates from one kept prefix chain: window admits
// and charges each window's batch of whole chains at one serial point,
// annealing admits and charges each move before drawing it, and exact
// windows charge each setup level its cells.  On the scrambled adder
// carry(16) above, work limits that cut a window's batch mid-way, refuse
// an anneal move or leave no room for a window DP, and cancels at
// governor polls, return the order, size, outcome and work of the
// chain-per-candidate searches, at one and at four threads.
TEST(LocalSearchGoverned, TripsWhereChainPerCandidateSearchTripped) {
  Order perm = identity(16);
  util::Xoshiro256 rng(27);
  for (int i = 15; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  const tt::TruthTable f = tt::adder_carry(16).permute_inputs(perm);
  const std::uint64_t chain = core::chain_eval_cost(16);
  const Order start = identity(16);
  const struct {
    const char* strategy;
    std::uint64_t limit;  ///< work limit, or 0 for a cancel at `poll`
    std::uint64_t poll;
    std::uint64_t nodes, work;
    Order order;
  } pins[] = {
      {"window", chain * 8, 0, 175, 1048560, start},
      {"window", chain * 41, 0, 129, 5373870,
       {0, 1, 2, 5, 6, 4, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
      {"window", 0, 5, 175, 2490330, start},
      {"window", 0, 9, 129, 5636010,
       {0, 1, 2, 5, 6, 4, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
      {"window", 0, 30, 41, 22150830,
       {0, 2, 5, 1, 6, 4, 10, 8, 9, 3, 13, 15, 7, 12, 11, 14}},
      {"anneal", chain * 50 + 7, 0, 41, 6553500,
       {5, 2, 12, 3, 13, 7, 1, 0, 10, 6, 9, 8, 15, 4, 14, 11}},
      {"anneal", chain * 300, 0, 38, 39321000,
       {2, 5, 7, 12, 13, 3, 1, 6, 8, 9, 15, 10, 0, 4, 14, 11}},
      {"anneal", 0, 9, 164, 655350,
       {0, 6, 2, 3, 4, 5, 1, 7, 8, 9, 10, 12, 11, 13, 14, 15}},
      {"anneal", 0, 30, 89, 1966050,
       {0, 12, 2, 3, 13, 7, 1, 5, 8, 10, 9, 6, 4, 15, 14, 11}},
      {"exact-window", 1000000, 0, 129, 920778,
       {0, 1, 2, 5, 6, 4, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
      {"exact-window", 6000000, 0, 32, 5916896,
       {2, 5, 1, 6, 0, 10, 8, 9, 4, 3, 13, 15, 7, 12, 11, 14}},
      {"exact-window", 0, 5, 175, 262140, start},
      {"exact-window", 0, 200, 129, 1185994,
       {0, 1, 2, 5, 6, 4, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15}}};
  const StrategyOptions opt;
  for (const int threads : {1, 4}) {
    par::ExecPolicy exec;
    exec.num_threads = threads;
    for (const auto& pin : pins) {
      SCOPED_TRACE(testing::Message()
                   << pin.strategy << " threads " << threads << " limit "
                   << pin.limit << " poll " << pin.poll);
      rt::CancelToken token;
      rt::FaultPlan plan;
      plan.cancel_at_checkpoint = pin.poll;
      plan.cancel = &token;
      std::optional<rt::ScopedFaultPlan> scoped;
      rt::Budget budget = rt::Budget::with_work_limit(pin.limit);
      if (pin.limit == 0) {
        scoped.emplace(plan);
        budget.cancel = &token;
      }
      const StrategyResult r =
          run_governed(pin.strategy, f, opt, exec, budget);
      EXPECT_EQ(r.internal_nodes, pin.nodes);
      EXPECT_EQ(r.run.work_units, pin.work);
      EXPECT_EQ(r.order_root_first, pin.order);
      EXPECT_EQ(r.outcome, pin.limit == 0 ? rt::Outcome::kCancelled
                                          : rt::Outcome::kDeadline);
      EXPECT_EQ(r.oracle.memo_hits, 0u);
    }
  }
}

TEST(LadderMemoization, SiftStepsCountAdmittedPositions) {
  // Sift sizes each step's n insertion positions from one prefix chain.
  // Every admitted position is one query:
  // an eval when the step compacts, a memo hit when the variable's
  // other-variable order is unchanged since its last step (the sizes it
  // kept answer it).  The incumbent is one query and one eval.
  const tt::TruthTable f = pin_function();
  CostOracle oracle(f, core::DiagramKind::kBdd);
  const auto r = sift(oracle, identity(7), 8, {});
  const OracleStats& st = oracle.stats();
  EXPECT_EQ(st.queries, 1u + 14u * 7u);
  EXPECT_EQ(st.evals, 1u + 11u * 7u);
  EXPECT_EQ(st.memo_hits, 3u * 7u);
  EXPECT_EQ(st.queries, st.evals + st.memo_hits);
  EXPECT_EQ(r.orders_evaluated, st.queries);
  EXPECT_EQ(st.ops.table_cells, 5210u);  // 14,732 as 99 memoized chains

  // The budgeted ladder's stage-3 sift: its incumbent and one whole step
  // fit the budget, the next step is admitted nothing, and the restarts
  // stage gets no work; no position is a memo hit.
  const auto a = minimize_auto(f, rt::Budget::with_work_limit(3000));
  EXPECT_EQ(a.stats.work_units, 2928u);
  EXPECT_EQ(a.value.oracle.queries, 1u + 7u);
  EXPECT_EQ(a.value.oracle.evals, a.value.oracle.queries);
  EXPECT_EQ(a.value.oracle.memo_hits, 0u);
}

TEST(DynamicSiftGoverned, HonorsWorkLimitDeterministically) {
  const tt::TruthTable f = pin_function();
  // Reference: ungoverned result.
  bdd::Manager ref(7);
  const bdd::NodeId ref_root = ref.from_truth_table(f);
  const auto full = bdd::sift_in_place(ref, {ref_root});
  EXPECT_TRUE(full.complete);

  // A tiny work limit trips between variable sweeps; the result is
  // still a consistent manager and is identical at 1 and 4 threads.
  bdd::SiftResult tripped[2];
  Order orders[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    bdd::Manager m(7);
    const bdd::NodeId root = m.from_truth_table(f);
    rt::Governor gov(rt::Budget::with_work_limit(2000));
    EvalContext ctx;
    ctx.exec.num_threads = threads[i];
    ctx.gov = &gov;
    tripped[i] = bdd::sift_in_place(m, {root}, 4, ctx);
    orders[i] = m.order();
    EXPECT_FALSE(tripped[i].complete);
    EXPECT_LT(tripped[i].swaps, full.swaps);
    EXPECT_EQ(bdd::shared_reachable_size(m, {root}),
              tripped[i].final_nodes);
  }
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(tripped[0].final_nodes, tripped[1].final_nodes);
  EXPECT_EQ(tripped[0].swaps, tripped[1].swaps);
}

TEST(ParallelReachableSize, MatchesSerialOnLargeDag) {
  // Force the parallel BFS path (threshold is on the arena size) and
  // check it against the serial scan.
  util::Xoshiro256 rng(5);
  const tt::TruthTable f = tt::random_function(18, rng);
  bdd::Manager m(18);
  const bdd::NodeId root = m.from_truth_table(f);
  ASSERT_GE(m.pool_size(), std::size_t{1} << 14);
  par::ExecPolicy exec;
  exec.num_threads = 4;
  EXPECT_EQ(bdd::shared_reachable_size(m, {root}, exec),
            bdd::shared_reachable_size(m, {root}));
}

}  // namespace
}  // namespace ovo::reorder
