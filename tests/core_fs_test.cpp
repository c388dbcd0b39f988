// The central correctness suite for the paper's algorithm FS:
//   * compaction canonicity against the quasi-reduced subfunction counter;
//   * Lemma 3 (level width depends only on the prefix *set*);
//   * Lemma 4 (the DP recurrence), and the engine's mincost and choice for
//     every subset against a plain Lemma 4 DP at n = 11..13;
//   * FS minimum == brute-force minimum over all n! orders, for BDD, ZDD
//     and MTBDD kinds;
//   * the returned order achieves the minimum when the diagram is rebuilt
//     with the corresponding manager;
//   * Fig. 1's exact sizes (2m+2 vs 2^{m+1}).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "bdd/manager.hpp"
#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "mtbdd/manager.hpp"
#include "reference_dp.hpp"
#include "reorder/baselines.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace ovo::core {
namespace {

// --- compaction primitive ---------------------------------------------------

TEST(PrefixTable, InitialTableIsTruthTable) {
  const tt::TruthTable t = tt::parity(3);
  const PrefixTable p = initial_table(t);
  EXPECT_EQ(p.n, 3);
  EXPECT_EQ(p.vars, 0u);
  EXPECT_EQ(p.mincost(), 0u);
  ASSERT_EQ(p.cells.size(), 8u);
  for (std::uint64_t a = 0; a < 8; ++a)
    EXPECT_EQ(p.cells[a], t.get(a) ? 1u : 0u);
}

TEST(PrefixTable, CompactParityStep) {
  // Compacting parity w.r.t. any variable creates exactly 2 nodes
  // (parity and its complement as subfunctions of the remaining vars).
  const PrefixTable p = initial_table(tt::parity(4));
  for (int v = 0; v < 4; ++v) {
    OpCounter ops;
    const PrefixTable q = compact(p, v, DiagramKind::kBdd, &ops);
    // Both x_v and !x_v occur as bottom subfunctions: cell pairs (0,1) and
    // (1,0) each create one node.
    EXPECT_EQ(q.mincost(), 2u);
    EXPECT_EQ(ops.table_cells, 16u);
    EXPECT_EQ(ops.compactions, 1u);
  }
}

TEST(PrefixTable, CompactCountsMatchSubfunctionCounter) {
  // After compacting a set I (any chain), mincost equals the number of
  // distinct subfunctions over I that depend on their top variable —
  // equivalently sum over the chain of created widths. Cross-check the
  // *table cells* against count_distinct_subfunctions: the number of
  // distinct cell values equals the number of distinct subfunctions
  // (including constants reachable).
  util::Xoshiro256 rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(6, rng);
    PrefixTable p = initial_table(t);
    util::Mask I = 0;
    for (const int v : {1, 4, 2}) {
      p = compact(p, v, DiagramKind::kBdd, nullptr);
      I |= util::Mask{1} << v;
      std::set<std::uint32_t> distinct(p.cells.begin(), p.cells.end());
      EXPECT_EQ(distinct.size(), t.count_distinct_subfunctions(I))
          << "prefix mask " << I;
    }
  }
}

TEST(PrefixTable, CompactRejectsRepeatedVariable) {
  PrefixTable p = initial_table(tt::parity(3));
  p = compact(p, 1, DiagramKind::kBdd, nullptr);
  EXPECT_THROW(compact(p, 1, DiagramKind::kBdd, nullptr), util::CheckError);
}

TEST(PrefixTable, CompactionWidthAgreesWithCompact) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const tt::TruthTable t = tt::random_function(5, rng);
    const PrefixTable p = initial_table(t);
    for (int v = 0; v < 5; ++v) {
      const PrefixTable q = compact(p, v, DiagramKind::kBdd, nullptr);
      EXPECT_EQ(compaction_width(p, v, DiagramKind::kBdd, nullptr),
                q.mincost() - p.mincost());
    }
  }
}

TEST(PrefixTable, MtbddInitialTableInternsValues) {
  std::vector<std::int64_t> vals{5, 5, -1, 7, 5, -1, 7, 7};
  std::vector<std::int64_t> terms;
  const PrefixTable p = initial_table_values(vals, 3, &terms);
  EXPECT_EQ(p.num_terminals, 3u);
  EXPECT_EQ(terms, (std::vector<std::int64_t>{5, -1, 7}));
  EXPECT_EQ(p.cells[0], 0u);
  EXPECT_EQ(p.cells[2], 1u);
  EXPECT_EQ(p.cells[3], 2u);
}

// --- Lemma 3: width depends only on the prefix set --------------------------

class Lemma3Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma3Property, WidthInvariantUnderPrefixReordering) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const int n = 6;
  const tt::TruthTable t = tt::random_function(n, rng);
  // Pick a prefix set I of size 3 and a distinguished i in I.
  const util::Mask I = 0b101100;  // vars {2,3,5}
  const int i = 3;
  // All chains that insert I\{i} in some order, then i: the width added by
  // i must be identical (Lemma 3).
  const std::vector<int> others{2, 5};
  std::vector<std::uint64_t> widths;
  std::vector<std::vector<int>> arrangements{{2, 5}, {5, 2}};
  for (const auto& arr : arrangements) {
    PrefixTable p = initial_table(t);
    for (const int v : arr) p = compact(p, v, DiagramKind::kBdd, nullptr);
    const PrefixTable q = compact(p, i, DiagramKind::kBdd, nullptr);
    widths.push_back(q.mincost() - p.mincost());
  }
  EXPECT_EQ(widths[0], widths[1]);
  (void)I;
  (void)others;
}

TEST_P(Lemma3Property, WidthInvariantExhaustive) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 101 + 11);
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng);
  // For every prefix set I of size 3 and every i in I: the width of i on
  // top of I\{i} is the same for all orderings of I\{i}.
  util::for_each_subset_of_size(n, 3, [&](util::Mask I) {
    util::for_each_bit(I, [&](int i) {
      const std::vector<int> rest = util::bits_of(I & ~(util::Mask{1} << i));
      std::vector<int> arr = rest;
      std::uint64_t first_width = 0;
      bool first = true;
      do {
        PrefixTable p = initial_table(t);
        for (const int v : arr) p = compact(p, v, DiagramKind::kBdd, nullptr);
        const std::uint64_t w =
            compaction_width(p, i, DiagramKind::kBdd, nullptr);
        if (first) {
          first_width = w;
          first = false;
        } else {
          ASSERT_EQ(w, first_width) << "I=" << I << " i=" << i;
        }
      } while (std::next_permutation(arr.begin(), arr.end()));
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma3Property, ::testing::Range(0, 5));

// --- Lemma 4: the DP recurrence ---------------------------------------------

TEST(Lemma4, RecurrenceHoldsOnDpTable) {
  util::Xoshiro256 rng(19);
  const int n = 5;
  const tt::TruthTable t = tt::random_function(n, rng);
  const FsStarResult r =
      fs_star(initial_table(t), util::full_mask(n), n, DiagramKind::kBdd);
  // MINCOST_I = min_{k in I} (MINCOST_{I\k} + Cost_k(pi_{(I\k, k)})), for
  // every I: the DP holds one state per symmetry orbit, so each lookup
  // goes through its canonical state.
  for (util::Mask I = 1; I <= util::full_mask(n); ++I) {
    const FsState* st = r.state(I);
    ASSERT_NE(st, nullptr) << "I=" << I;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    util::for_each_bit(I, [&](int k) {
      // Rebuild the width of k over I\k from scratch.
      PrefixTable p = initial_table(t);
      util::for_each_bit(I & ~(util::Mask{1} << k), [&](int v) {
        p = compact(p, v, DiagramKind::kBdd, nullptr);
      });
      const std::uint64_t w =
          compaction_width(p, k, DiagramKind::kBdd, nullptr);
      const FsState* pred = r.state(I & ~(util::Mask{1} << k));
      ASSERT_NE(pred, nullptr) << "I=" << I << " k=" << k;
      best = std::min(best, pred->mincost + w);
    });
    EXPECT_EQ(st->mincost, best) << "I=" << I;
  }
}

// The engine runs over symmetry orbits, cuts losing candidates short
// (Lemma 7's argmin by branch and bound), prunes against an incumbent and
// fans layers out over threads.  None of that may move a single answer:
// at n = 11..13, out of brute force's reach, every subset's canonicalized
// record must hold the plain recurrence's mincost, and its choice must
// be the recurrence's best_last, tie-breaks included, dense and
// bound-pruned (the optimum as incumbent, so that as many states as
// possible are pruned), at 1 and 4 threads.  A dense run holds exactly
// one record per canonical state, in ascending mask order.
// The ZDD cases include ¬a ∧ ¬b ∧ … ∧ g functions, which a ZDD bound that
// counted suppressed variables or the 0-terminal would over-prune.
TEST(Lemma4, EngineMatchesReferenceDpAtElevenToThirteenVariables) {
  util::Xoshiro256 rng(1107);
  struct Case {
    const char* name;
    DiagramKind kind;
    PrefixTable base;
  };
  const auto values_of = [](const tt::TruthTable& f, const tt::TruthTable& g) {
    std::vector<std::int64_t> v(f.size());
    for (std::uint64_t a = 0; a < f.size(); ++a)
      v[a] = (f.get(a) ? 1 : 0) + (g.get(a) ? 2 : 0);
    return v;
  };
  constexpr DiagramKind kBdd = DiagramKind::kBdd;
  constexpr DiagramKind kZdd = DiagramKind::kZdd;
  constexpr DiagramKind kMtbdd = DiagramKind::kMtbdd;
  std::vector<Case> cases{
      {"random13", kBdd, initial_table(tt::random_function(13, rng))},
      {"hwb12", kBdd, initial_table(tt::hidden_weighted_bit(12))},
      {"mult12", kBdd, initial_table(tt::multiplier_middle_bit(12))},
      {"adder12", kBdd, initial_table(tt::adder_carry(12))},
      {"isa11", kBdd, initial_table(tt::indirect_storage_access(11))},
      {"random11", kZdd, initial_table(tt::random_function(11, rng))},
      {"hwb11", kZdd, initial_table(tt::hidden_weighted_bit(11))},
      {"mult12", kZdd, initial_table(tt::multiplier_middle_bit(12))},
      {"adder12", kZdd, initial_table(tt::adder_carry(12))},
      {"isa11", kZdd, initial_table(tt::indirect_storage_access(11))},
      {"negconj3of11", kZdd,
       initial_table(tt::random_negated_conjunction(11, 3, rng))},
      {"negconj5of12", kZdd,
       initial_table(tt::random_negated_conjunction(12, 5, rng))},
      {"random11", kMtbdd,
       initial_table_values(values_of(tt::random_function(11, rng),
                                      tt::random_function(11, rng)), 11)},
      {"hwb+2*mult12", kMtbdd,
       initial_table_values(values_of(tt::hidden_weighted_bit(12),
                                      tt::multiplier_middle_bit(12)), 12)},
      {"isa+2*random11", kMtbdd,
       initial_table_values(values_of(tt::indirect_storage_access(11),
                                      tt::random_function(11, rng)), 11)},
  };
  for (const Case& c : cases) {
    const int n = c.base.n;
    const util::Mask J = util::full_mask(n);
    const ReferenceDp ref = reference_dp(c.base, c.kind);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " kind=" << static_cast<int>(c.kind)
                     << " prune=" << static_cast<int>(prune)
                     << " threads=" << threads);
        par::ExecPolicy exec;
        exec.num_threads = threads;
        exec.prune = prune;
        OpCounter ops;
        const FsStarResult r =
            fs_star(c.base, J, n, c.kind, &ops, exec, nullptr, ref.mincost[J]);
        std::uint64_t orbit_states = 1;
        for (const util::Mask cls : r.classes)
          orbit_states *= static_cast<std::uint64_t>(util::popcount(cls)) + 1;
        if (prune == par::PruneMode::kOff) {
          ASSERT_EQ(r.states.size(), orbit_states);
          ASSERT_EQ(ops.states, orbit_states - 1);
        } else {
          ASSERT_LT(r.states.size(), orbit_states);
        }
        for (util::Mask K = 0; K <= J; ++K) {
          const FsState* st = r.state(K);
          if (st == nullptr) {
            ASSERT_EQ(prune, par::PruneMode::kBounds) << "K=" << K;
            continue;  // a pruned orbit
          }
          ASSERT_EQ(st->mincost, ref.mincost[K]) << "K=" << K;
          if (K != 0) {
            ASSERT_EQ(r.choice(K), ref.best_last[K]) << "K=" << K;
          } else {
            ASSERT_EQ(st->ties, 0u) << "the empty set has no ties";
          }
        }
        for (std::size_t i = 0; i < r.states.size(); ++i) {
          const util::Mask I = r.states[i].mask;
          ASSERT_EQ(r.canonical(I), I) << "I=" << I;
          if (i > 0) {
            ASSERT_LT(r.states[i - 1].mask, I) << "I=" << I;
          }
          if (I != 0) {
            ASSERT_EQ(r.choice(I), ref.best_last[I]) << "I=" << I;
          }
        }
        EXPECT_GT(ops.cut_cells, 0u);
        EXPECT_LT(ops.cut_cells, ops.table_cells);
      }
    }
  }
}

// --- FS vs brute force -------------------------------------------------------

struct FsCase {
  const char* name;
  tt::TruthTable table;
};

std::vector<FsCase> fs_cases() {
  util::Xoshiro256 rng(4242);
  std::vector<FsCase> cases;
  cases.push_back({"pair_sum2", tt::pair_sum(2)});
  cases.push_back({"pair_sum3", tt::pair_sum(3)});
  cases.push_back({"parity5", tt::parity(5)});
  cases.push_back({"majority5", tt::majority(5)});
  cases.push_back({"hwb5", tt::hidden_weighted_bit(5)});
  cases.push_back({"hwb6", tt::hidden_weighted_bit(6)});
  cases.push_back({"mult6", tt::multiplier_middle_bit(6)});
  cases.push_back({"adder6", tt::adder_carry(6)});
  cases.push_back({"isa6", tt::indirect_storage_access(6)});
  cases.push_back({"threshold6", tt::threshold(6, 2)});
  for (int i = 0; i < 6; ++i)
    cases.push_back({"random6", tt::random_function(6, rng)});
  for (int i = 0; i < 4; ++i)
    cases.push_back({"random5", tt::random_function(5, rng)});
  for (int i = 0; i < 3; ++i)
    cases.push_back({"sparse6", tt::random_sparse_function(6, 5, rng)});
  for (int i = 0; i < 3; ++i)
    cases.push_back({"readonce6", tt::random_read_once(6, rng)});
  cases.push_back({"const0", tt::TruthTable(4)});
  cases.push_back({"const1", ~tt::TruthTable(4)});
  return cases;
}

class FsVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(FsVsBruteForce, BddMinimumMatches) {
  const FsCase c = fs_cases()[static_cast<std::size_t>(GetParam())];
  const MinimizeResult fs = fs_minimize(c.table, DiagramKind::kBdd);
  reorder::CostOracle oracle(c.table, DiagramKind::kBdd);
  const reorder::OrderSearchResult bf =
      reorder::brute_force_minimize(oracle);
  EXPECT_EQ(fs.min_internal_nodes, bf.internal_nodes) << c.name;
  // The FS order must achieve the claimed size.
  EXPECT_EQ(diagram_size_for_order(c.table, fs.order_root_first,
                                   DiagramKind::kBdd),
            fs.min_internal_nodes);
  // And a real BDD manager rebuild agrees.
  bdd::Manager m(c.table.num_vars(), fs.order_root_first);
  EXPECT_EQ(m.size(m.from_truth_table(c.table)), fs.min_internal_nodes);
}

TEST_P(FsVsBruteForce, ZddMinimumMatches) {
  const FsCase c = fs_cases()[static_cast<std::size_t>(GetParam())];
  const MinimizeResult fs = fs_minimize(c.table, DiagramKind::kZdd);
  reorder::CostOracle oracle(c.table, DiagramKind::kZdd);
  const reorder::OrderSearchResult bf =
      reorder::brute_force_minimize(oracle);
  EXPECT_EQ(fs.min_internal_nodes, bf.internal_nodes) << c.name;
  zdd::Manager m(c.table.num_vars(), fs.order_root_first);
  EXPECT_EQ(m.size(m.from_truth_table(c.table)), fs.min_internal_nodes);
}

INSTANTIATE_TEST_SUITE_P(Cases, FsVsBruteForce,
                         ::testing::Range(0, 28));

TEST(FsMtbdd, MinimumMatchesBruteForce) {
  util::Xoshiro256 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 5;
    std::vector<std::int64_t> values(32);
    for (auto& v : values) v = static_cast<std::int64_t>(rng.below(3));
    const MinimizeResult fs = fs_minimize_mtbdd(values, n);
    // Brute force with the MTBDD size oracle.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::vector<int> order{0, 1, 2, 3, 4};
    do {
      best = std::min(best,
                      diagram_size_for_order_values(values, n, order));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(fs.min_internal_nodes, best);
    // Rebuild with the MTBDD manager under the FS order.
    mtbdd::Manager m(n, fs.order_root_first);
    EXPECT_EQ(m.size(m.from_value_table(values)), fs.min_internal_nodes);
  }
}

// --- Fig. 1 ------------------------------------------------------------------

TEST(Fig1, PairSumSizesMatchPaper) {
  for (int m = 2; m <= 4; ++m) {
    const tt::TruthTable f = tt::pair_sum(m);
    // Natural order: 2m internal nodes (2m + 2 with terminals).
    EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_natural_order(m)),
              static_cast<std::uint64_t>(2 * m));
    // Interleaved order: 2^{m+1} - 2 internal nodes (2^{m+1} with
    // terminals... the paper counts 2^{m+1} total including terminals).
    EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_interleaved_order(m)),
              (std::uint64_t{1} << (m + 1)) - 2);
    // And the optimum equals the natural order's size.
    EXPECT_EQ(fs_minimize(f).min_internal_nodes,
              static_cast<std::uint64_t>(2 * m));
  }
}

TEST(Fig1, Fig1ExactCase) {
  // The figure's concrete instance: m = 3 (six variables), sizes 8 and 16
  // including the two terminals.
  const tt::TruthTable f = tt::pair_sum(3);
  EXPECT_EQ(diagram_size_for_order(f, tt::pair_sum_natural_order(3)) + 2, 8u);
  EXPECT_EQ(
      diagram_size_for_order(f, tt::pair_sum_interleaved_order(3)) + 2, 16u);
}

// --- misc --------------------------------------------------------------------

TEST(FsMisc, ParityIsOrderInsensitive) {
  const tt::TruthTable p = tt::parity(6);
  const MinimizeResult fs = fs_minimize(p);
  EXPECT_EQ(fs.min_internal_nodes, 11u);  // 2n - 1
  // Every order achieves it.
  for (const auto& order : util::all_permutations(6))
    ASSERT_EQ(diagram_size_for_order(p, order), 11u);
}

TEST(FsMisc, OpsCountIsPositiveAndBounded) {
  const tt::TruthTable t = tt::majority(6);
  const MinimizeResult fs = fs_minimize(t);
  EXPECT_GT(fs.ops.table_cells, 0u);
  // Theorem 5: up to a polynomial factor the work is 3^n; the raw cell
  // count is at most n * 3^n for sure.
  EXPECT_LE(fs.ops.table_cells,
            6.0 * std::pow(3.0, 6) * 2.0 + 4096.0);
}

TEST(FsMisc, OrderIsAlwaysAPermutation) {
  util::Xoshiro256 rng(6);
  for (int n = 1; n <= 7; ++n) {
    const MinimizeResult fs = fs_minimize(tt::random_function(n, rng));
    EXPECT_EQ(static_cast<int>(fs.order_root_first.size()), n);
    EXPECT_TRUE(util::is_permutation(fs.order_root_first));
  }
}

// Relabeling inputs permutes the optimal order but cannot change the
// minimum size — a strong end-to-end consistency property of the DP.
TEST(FsMisc, InputPermutationInvariance) {
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6;
    const tt::TruthTable t = tt::random_function(n, rng);
    std::vector<int> sigma(static_cast<std::size_t>(n));
    std::iota(sigma.begin(), sigma.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(sigma[static_cast<std::size_t>(i)],
                sigma[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    const tt::TruthTable permuted = t.permute_inputs(sigma);
    EXPECT_EQ(fs_minimize(t).min_internal_nodes,
              fs_minimize(permuted).min_internal_nodes);
    EXPECT_EQ(fs_minimize(t, DiagramKind::kZdd).min_internal_nodes,
              fs_minimize(permuted, DiagramKind::kZdd).min_internal_nodes);
  }
}

TEST(FsMisc, ZddOfSparseBeatsItsBdd) {
  util::Xoshiro256 rng(8);
  const tt::TruthTable t = tt::random_sparse_function(8, 4, rng);
  const MinimizeResult z = fs_minimize(t, DiagramKind::kZdd);
  const MinimizeResult b = fs_minimize(t, DiagramKind::kBdd);
  EXPECT_LE(z.min_internal_nodes, b.min_internal_nodes);
}

}  // namespace
}  // namespace ovo::core
