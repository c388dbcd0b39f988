// The FS* DP over symmetry orbits (core/fs_star.hpp): class detection,
// every subset's cost and choice against the plain Lemma 4 DP, the orbit
// closed form, resume at every fence, and metamorphic checks at
// n = 12..14 (relabelled inputs, a negated input, dummy inputs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "reference_dp.hpp"
#include "reorder/minimize_auto.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

constexpr DiagramKind kBdd = DiagramKind::kBdd;
constexpr DiagramKind kZdd = DiagramKind::kZdd;
constexpr DiagramKind kMtbdd = DiagramKind::kMtbdd;

std::vector<int> class_sizes(const std::vector<util::Mask>& classes) {
  std::vector<int> sizes;
  for (const util::Mask c : classes) sizes.push_back(util::popcount(c));
  return sizes;
}

/// Sizes in ascending order: the classes' shape, whatever their labels.
std::vector<int> shape(const std::vector<util::Mask>& classes) {
  std::vector<int> sizes = class_sizes(classes);
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

std::uint64_t orbit_states(const std::vector<util::Mask>& classes) {
  std::uint64_t states = 1;
  for (const int s : class_sizes(classes))
    states *= static_cast<std::uint64_t>(s) + 1;
  return states;
}

/// f(x) = h(|x ∩ B_1|, …, |x ∩ B_t|): the inputs split into blocks of the
/// given sizes at random positions, and h a random map from the blocks'
/// counts to [0, values).  Swapping two inputs of one block leaves f
/// unchanged.  `blocks` receives the blocks as variable masks.
std::vector<std::int64_t> planted(const std::vector<int>& block_sizes,
                                  int values, util::Xoshiro256& rng,
                                  std::vector<util::Mask>* blocks = nullptr) {
  const int n = std::accumulate(block_sizes.begin(), block_sizes.end(), 0);
  std::vector<int> pos(static_cast<std::size_t>(n));
  std::iota(pos.begin(), pos.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(pos[static_cast<std::size_t>(i)],
              pos[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  std::vector<util::Mask> masks;
  std::size_t next = 0;
  std::uint64_t radix = 1;
  for (const int s : block_sizes) {
    util::Mask m = 0;
    for (int i = 0; i < s; ++i) m |= util::Mask{1} << pos[next++];
    masks.push_back(m);
    radix *= static_cast<std::uint64_t>(s) + 1;
  }
  std::vector<std::int64_t> h(static_cast<std::size_t>(radix));
  for (std::int64_t& v : h)
    v = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(values)));
  std::vector<std::int64_t> f(std::size_t{1} << n);
  for (std::uint64_t a = 0; a < f.size(); ++a) {
    std::uint64_t index = 0;
    for (std::size_t b = 0; b < masks.size(); ++b)
      index = index * (static_cast<std::uint64_t>(block_sizes[b]) + 1) +
              static_cast<std::uint64_t>(util::popcount(a & masks[b]));
    f[a] = h[static_cast<std::size_t>(index)];
  }
  if (blocks != nullptr) *blocks = masks;
  return f;
}

tt::TruthTable boolean(const std::vector<std::int64_t>& values, int n) {
  return tt::TruthTable::tabulate(
      n, [&](std::uint64_t a) { return values[a] != 0; });
}

/// The base table of `values` for `kind`: Boolean kinds read values != 0.
PrefixTable base_of(const std::vector<std::int64_t>& values, int n,
                    DiagramKind kind) {
  return kind == kMtbdd ? initial_table_values(values, n)
                        : initial_table(boolean(values, n));
}

/// The block order the reference DP's back-pointers give, bottom-up.
std::vector<int> reference_order(const ReferenceDp& ref, util::Mask J) {
  std::vector<int> top_down;
  for (util::Mask K = J; K != 0;) {
    const int v = ref.best_last[K];
    top_down.push_back(v);
    K &= ~(util::Mask{1} << v);
  }
  return {top_down.rbegin(), top_down.rend()};
}

par::ExecPolicy policy(int threads, par::PruneMode prune) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  return exec;
}

struct Case {
  std::string name;
  DiagramKind kind;
  PrefixTable base;
};

/// Zoo functions and random functions with planted symmetric blocks at
/// n <= 12, for every kind.
std::vector<Case> orbit_cases() {
  util::Xoshiro256 rng(2606);
  std::vector<Case> cases{
      {"adder10", kBdd, initial_table(tt::adder_carry(10))},
      {"pairsum5", kBdd, initial_table(tt::pair_sum(5))},
      {"threshold9_4", kBdd, initial_table(tt::threshold(9, 4))},
      {"majority9", kZdd, initial_table(tt::majority(9))},
      {"readonce10", kBdd, initial_table(tt::random_read_once(10, rng))},
      {"negconj4of11", kZdd,
       initial_table(tt::random_negated_conjunction(11, 4, rng))},
  };
  const std::vector<std::vector<int>> shapes{
      {3, 2, 2, 1, 1, 1}, {4, 4, 2, 1}, {2, 2, 2, 2, 2, 2}};
  for (const std::vector<int>& s : shapes) {
    const int n = std::accumulate(s.begin(), s.end(), 0);
    for (const DiagramKind kind : {kBdd, kZdd, kMtbdd}) {
      const std::vector<std::int64_t> v =
          planted(s, kind == kMtbdd ? 3 : 2, rng);
      cases.push_back({"planted" + std::to_string(n) + "/kind" +
                           std::to_string(static_cast<int>(kind)),
                       kind, base_of(v, n, kind)});
    }
  }
  return cases;
}

// ------------------------------------------------------------ detection --

TEST(FsOrbits, DetectsTheSymmetryClasses) {
  const auto classes_of = [](const tt::TruthTable& f) {
    return symmetry_classes(initial_table(f), util::full_mask(f.num_vars()));
  };
  // Adder carry over interleaved operands: each bit position's two
  // operand bits.
  const std::vector<util::Mask> adder = classes_of(tt::adder_carry(12));
  ASSERT_EQ(adder.size(), 6u);
  for (std::size_t i = 0; i < adder.size(); ++i)
    EXPECT_EQ(adder[i], util::Mask{3} << (2 * i));
  EXPECT_EQ(classes_of(tt::threshold(10, 3)),
            std::vector<util::Mask>{util::full_mask(10)});
  EXPECT_EQ(shape(classes_of(tt::pair_sum(6))), std::vector<int>(6, 2));
  util::Xoshiro256 rng(12);
  EXPECT_EQ(shape(classes_of(tt::random_function(12, rng))),
            std::vector<int>(12, 1));
  // Value tables too: every planted block lies in one class.
  std::vector<util::Mask> blocks;
  const std::vector<std::int64_t> v = planted({4, 3, 2, 1}, 5, rng, &blocks);
  const std::vector<util::Mask> mt =
      symmetry_classes(initial_table_values(v, 10), util::full_mask(10));
  for (const util::Mask b : blocks)
    EXPECT_TRUE(std::any_of(mt.begin(), mt.end(), [&](util::Mask c) {
      return util::is_subset(b, c);
    })) << "block " << b;
  // Over a prefix: the classes of J on the compacted base.
  const PrefixTable below = compact(initial_table(tt::pair_sum(3)), 0, kBdd);
  EXPECT_EQ(symmetry_classes(below, 0b111100),
            (std::vector<util::Mask>{0b001100, 0b110000}));
}

// Stop-early runs keep every subset of their stop layer.
TEST(FsOrbits, StopEarlyRunsKeepSingletonClasses) {
  const FsStarResult r = fs_star(initial_table(tt::adder_carry(8)),
                                 util::full_mask(8), 3, kBdd);
  EXPECT_EQ(shape(r.classes), std::vector<int>(8, 1));
  EXPECT_EQ(r.tables.size(), util::binomial_u64(8, 3));
}

// ------------------------------------------------ against the dense DP --

// The orbit DP must answer as the dense DP for every subset: each K's
// canonicalized mincost and reconstructed choice are the plain Lemma 4
// recurrence's, and so are the block order and its size — for every
// kind, at 1 and 4 threads, dense and bound-pruned with the optimum as
// incumbent.
TEST(FsOrbits, EveryChoiceMatchesTheDenseDp) {
  for (const Case& c : orbit_cases()) {
    const int n = c.base.n;
    const util::Mask J = util::full_mask(n);
    const ReferenceDp ref = reference_dp(c.base, c.kind);
    const std::vector<int> want = reference_order(ref, J);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " prune=" << static_cast<int>(prune)
                     << " threads=" << threads);
        OpCounter ops;
        const FsStarResult r = fs_star(c.base, J, n, c.kind, &ops,
                                       policy(threads, prune), nullptr,
                                       ref.mincost[J]);
        ASSERT_LT(r.classes.size(), static_cast<std::size_t>(n))
            << "no symmetric pair detected";
        ASSERT_EQ(r.tables.at(J).mincost(), ref.mincost[J]);
        ASSERT_EQ(reconstruct_block_order(r, J), want);
        if (prune == par::PruneMode::kOff) {
          ASSERT_EQ(r.mincost.size(), orbit_states(r.classes));
        }
        for (util::Mask K = 1; K <= J; ++K) {
          const std::uint64_t* cost = find_mask(r.mincost, r.canonical(K));
          if (cost == nullptr) {
            ASSERT_EQ(prune, par::PruneMode::kBounds) << "K=" << K;
            continue;
          }
          ASSERT_EQ(*cost, ref.mincost[K]) << "K=" << K;
          ASSERT_EQ(r.choice(K), ref.best_last[K]) << "K=" << K;
        }
      }
    }
  }
}

// Theorem 5 and Remark 1 over orbits: a dense run compacts exactly
// Σ_k transitions[k]·2^(n−k+1) cells, holds at most the orbit peak, and
// builds every canonical state but the empty set, at any thread count.
TEST(FsOrbits, DenseCountsMatchTheOrbitClosedForm) {
  for (const Case& c : orbit_cases()) {
    const int n = c.base.n;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      OpCounter ops;
      const FsStarResult r = fs_star(c.base, util::full_mask(n), n, c.kind,
                                     &ops, policy(threads, par::PruneMode::kOff));
      const std::vector<int> sizes = class_sizes(r.classes);
      EXPECT_EQ(ops.table_cells, util::orbit_total_cells(sizes));
      EXPECT_EQ(ops.peak_cells, util::orbit_peak_cells(sizes));
      EXPECT_EQ(ops.states, orbit_states(r.classes) - 1);
      EXPECT_LT(ops.table_cells, util::orbit_total_cells(
                                     std::vector<int>(std::size_t(n), 1)));
    }
  }
}

// A run resumed from any fence snapshot — canonical layers, classes and
// tie sets — reproduces the straight run, at the other thread count.
TEST(FsOrbits, ResumeAtEveryFenceReproducesTheStraightRun) {
  std::vector<Case> cases = orbit_cases();
  cases.resize(8);
  for (const Case& c : cases) {
    const int n = c.base.n;
    const util::Mask J = util::full_mask(n);
    for (const par::PruneMode prune :
         {par::PruneMode::kOff, par::PruneMode::kBounds}) {
      for (const int threads : {1, 4}) {
        std::vector<std::vector<std::uint8_t>> fences;
        FsCheckpointOptions write;
        write.on_bytes = [&](const std::vector<std::uint8_t>& p) {
          fences.push_back(p);
        };
        OpCounter straight_ops;
        const FsStarResult straight =
            fs_star(c.base, J, n, c.kind, &straight_ops,
                    policy(threads, prune), nullptr, 0, &write);
        ASSERT_EQ(fences.size(), static_cast<std::size_t>(n - 1));
        for (const std::vector<std::uint8_t>& payload : fences) {
          FsStarSnapshot snap =
              decode_snapshot(payload.data(), payload.size());
          SCOPED_TRACE(::testing::Message()
                       << c.name << " prune=" << static_cast<int>(prune)
                       << " threads=" << threads << " fence=" << snap.layer);
          EXPECT_EQ(snap.classes, straight.classes);
          FsCheckpointOptions resume;
          resume.resume = &snap;
          OpCounter ops;
          const FsStarResult r =
              fs_star(c.base, J, n, c.kind, &ops, policy(5 - threads, prune),
                      nullptr, 0, &resume);
          EXPECT_EQ(r.best_last, straight.best_last);
          EXPECT_EQ(r.ties, straight.ties);
          EXPECT_EQ(r.mincost, straight.mincost);
          EXPECT_EQ(r.tables.at(J).cells, straight.tables.at(J).cells);
          EXPECT_EQ(reconstruct_block_order(r, J),
                    reconstruct_block_order(straight, J));
          obs::Ledger got, want;
          ops.to_ledger(got);
          straight_ops.to_ledger(want);
          EXPECT_EQ(got.pinned(), want.pinned());
        }
      }
    }
  }
}

// ------------------------------------------------------------ metamorphic --

/// g(x) = f(y) with y_v = x_{perm[v]}: input v of f is input perm[v] of g.
std::vector<std::int64_t> relabel(const std::vector<std::int64_t>& f,
                                  const std::vector<int>& perm) {
  std::vector<std::int64_t> g(f.size());
  for (std::uint64_t a = 0; a < f.size(); ++a) {
    std::uint64_t b = 0;
    for (std::size_t v = 0; v < perm.size(); ++v)
      b |= ((a >> perm[v]) & 1u) << v;
    g[a] = f[b];
  }
  return g;
}

/// The exact optimum and its order (root first) for `values` under `kind`.
MinimizeResult exact(const std::vector<std::int64_t>& values, int n,
                     DiagramKind kind, int threads) {
  if (kind == kMtbdd)
    return fs_minimize_mtbdd(values, n, policy(threads, par::PruneMode::kOff));
  return fs_minimize(boolean(values, n), kind,
                     policy(threads, par::PruneMode::kOff));
}

/// Checks `auto`'s answer on `values` against the reference optimum,
/// dense and bound-pruned: a run that claims optimality must have its
/// size, and its order must build a diagram of that size.
void expect_auto_agrees(const std::vector<std::int64_t>& values, int n,
                        DiagramKind kind, std::uint64_t optimum) {
  if (kind == kMtbdd) return;  // the ladder takes Boolean functions
  const tt::TruthTable f = boolean(values, n);
  for (const par::PruneMode prune :
       {par::PruneMode::kOff, par::PruneMode::kBounds}) {
    reorder::AutoMinimizeOptions opt;
    opt.kind = kind;
    opt.exec.prune = prune;
    const auto r = reorder::minimize_auto(f, rt::Budget(), opt);
    ASSERT_TRUE(r.value.optimal);
    EXPECT_EQ(r.value.internal_nodes, optimum);
    EXPECT_EQ(diagram_size_for_order(f, r.value.order_root_first, kind),
              optimum);
  }
}

// Relabelling the inputs moves the classes with them and keeps the
// optimum; the optimal order, relabelled, has that size on the relabelled
// function.  BDD, ZDD and MTBDD at n = 12..14.
TEST(FsMetamorphic, RelabellingKeepsClassesAndOptimum) {
  util::Xoshiro256 rng(1214);
  const struct {
    DiagramKind kind;
    std::vector<int> blocks;
    int values;
  } cases[] = {{kBdd, {3, 3, 2, 2, 1, 1}, 2},
               {kZdd, {4, 2, 2, 2, 1, 1, 1}, 2},
               {kMtbdd, {3, 3, 2, 2, 2, 1, 1}, 3}};
  for (const auto& c : cases) {
    const int n = std::accumulate(c.blocks.begin(), c.blocks.end(), 0);
    const std::vector<std::int64_t> f = planted(c.blocks, c.values, rng);
    const PrefixTable fb = base_of(f, n, c.kind);
    const ReferenceDp ref = reference_dp(fb, c.kind);
    const std::uint64_t optimum = ref.mincost[util::full_mask(n)];
    const MinimizeResult fr = exact(f, n, c.kind, 4);
    ASSERT_EQ(fr.min_internal_nodes, optimum);
    expect_auto_agrees(f, n, c.kind, optimum);
    for (int trial = 0; trial < 2; ++trial) {
      std::vector<int> perm(static_cast<std::size_t>(n));
      std::iota(perm.begin(), perm.end(), 0);
      for (int i = n - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      const std::vector<std::int64_t> g = relabel(f, perm);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " kind="
                                        << static_cast<int>(c.kind)
                                        << " trial=" << trial);
      const PrefixTable gb = base_of(g, n, c.kind);
      const std::vector<util::Mask> fc =
          symmetry_classes(fb, util::full_mask(n));
      const std::vector<util::Mask> gc =
          symmetry_classes(gb, util::full_mask(n));
      EXPECT_EQ(shape(gc), shape(fc));
      for (const util::Mask c_f : fc) {
        util::Mask moved = 0;
        util::for_each_bit(c_f, [&](int v) {
          moved |= util::Mask{1} << perm[static_cast<std::size_t>(v)];
        });
        EXPECT_NE(std::find(gc.begin(), gc.end(), moved), gc.end());
      }
      const MinimizeResult gr = exact(g, n, c.kind, 1);
      EXPECT_EQ(gr.min_internal_nodes, optimum);
      std::vector<int> mapped;
      for (const int v : fr.order_root_first)
        mapped.push_back(perm[static_cast<std::size_t>(v)]);
      PrefixTable cur, next;
      EXPECT_EQ(diagram_size_from_base(gb, mapped, c.kind, cur, next),
                optimum);
      expect_auto_agrees(g, n, c.kind, optimum);
    }
  }
}

// Negating one input of a symmetric pair keeps every BDD's size (a BDD
// without complement edges just swaps that input's edges), so the
// optimum stays, while the pair stops being symmetric.
TEST(FsMetamorphic, NegatingOneInputOfAPairKeepsTheBddOptimum) {
  util::Xoshiro256 rng(77);
  for (const int n : {12, 13}) {
    std::vector<util::Mask> blocks;
    std::vector<int> shape_in{2, 2, 2};
    shape_in.resize(static_cast<std::size_t>(n - 3), 1);
    const std::vector<std::int64_t> f = planted(shape_in, 2, rng, &blocks);
    const int i = util::lowest_bit(blocks[0]);
    const int j = util::lowest_bit(blocks[0] & (blocks[0] - 1));
    std::vector<std::int64_t> g(f.size());
    for (std::uint64_t a = 0; a < f.size(); ++a)
      g[a] = f[a ^ (std::uint64_t{1} << i)];
    const PrefixTable fb = base_of(f, n, kBdd);
    const PrefixTable gb = base_of(g, n, kBdd);
    const auto together = [&](const std::vector<util::Mask>& classes) {
      return std::any_of(classes.begin(), classes.end(), [&](util::Mask c) {
        return util::is_subset(blocks[0], c);
      });
    };
    EXPECT_TRUE(together(symmetry_classes(fb, util::full_mask(n))));
    EXPECT_FALSE(together(symmetry_classes(gb, util::full_mask(n))))
        << "x" << i + 1 << " and x" << j + 1 << " still symmetric";
    const std::uint64_t optimum =
        reference_dp(fb, kBdd).mincost[util::full_mask(n)];
    EXPECT_EQ(exact(f, n, kBdd, 4).min_internal_nodes, optimum);
    EXPECT_EQ(exact(g, n, kBdd, 4).min_internal_nodes, optimum);
    expect_auto_agrees(g, n, kBdd, optimum);
  }
}

// Complementing the output keeps the BDD optimum: this repo's BDDs have
// no complement edges, but swapping the two terminals maps every
// diagram of f onto one of !f with the same internal nodes, under every
// order.  n = 12..14, with and without symmetric classes.
TEST(FsMetamorphic, ComplementingTheOutputKeepsTheBddOptimum) {
  util::Xoshiro256 rng(79);
  const std::vector<int> shapes[] = {{3, 3, 2, 2, 1, 1},
                                     {2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1},
                                     {4, 2, 2, 2, 1, 1, 1, 1}};
  for (const std::vector<int>& blocks : shapes) {
    const int n = std::accumulate(blocks.begin(), blocks.end(), 0);
    const std::vector<std::int64_t> f = planted(blocks, 2, rng);
    std::vector<std::int64_t> g(f.size());
    for (std::size_t a = 0; a < f.size(); ++a) g[a] = 1 - f[a];
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::uint64_t optimum =
        reference_dp(base_of(f, n, kBdd), kBdd).mincost[util::full_mask(n)];
    EXPECT_EQ(exact(f, n, kBdd, 4).min_internal_nodes, optimum);
    EXPECT_EQ(exact(g, n, kBdd, 1).min_internal_nodes, optimum);
    expect_auto_agrees(f, n, kBdd, optimum);
    expect_auto_agrees(g, n, kBdd, optimum);
  }
}

// Two inputs the function ignores keep the BDD optimum (they label no
// node) and form one class of two.
TEST(FsMetamorphic, TwoDummyInputsKeepTheBddOptimum) {
  util::Xoshiro256 rng(78);
  const int n = 12;
  const std::vector<std::int64_t> f = planted({3, 3, 2, 2, 1, 1}, 2, rng);
  ASSERT_EQ(f.size(), std::size_t{1} << n);
  const PrefixTable fb = base_of(f, n, kBdd);
  const std::uint64_t optimum =
      reference_dp(fb, kBdd).mincost[util::full_mask(n)];
  // g over n + 2 inputs, of which x4 and x11 (0-based 3 and 10) are
  // dummies: f reads the others in order.
  const util::Mask dummies = (util::Mask{1} << 3) | (util::Mask{1} << 10);
  const util::Mask kept = util::full_mask(n + 2) & ~dummies;
  std::vector<std::int64_t> g(std::size_t{1} << (n + 2));
  for (std::uint64_t a = 0; a < g.size(); ++a)
    g[a] = f[util::gather_bits(a, kept)];
  const std::vector<util::Mask> classes =
      symmetry_classes(base_of(g, n + 2, kBdd), util::full_mask(n + 2));
  EXPECT_NE(std::find(classes.begin(), classes.end(), dummies),
            classes.end());
  EXPECT_EQ(exact(g, n + 2, kBdd, 4).min_internal_nodes, optimum);
  expect_auto_agrees(g, n + 2, kBdd, optimum);
}

}  // namespace
}  // namespace ovo::core
