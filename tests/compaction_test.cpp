// The COMPACT kernel against a plain reference.  compact_into and
// compaction_width run one loop over a per-thread pair table sized for
// min(pairs, next_id^2) entries and add their counts to the OpCounter once
// per call.  The reference sweeps the new cells in order, deduplicates
// each pair through a fresh ds::UniqueTable and merges its stats into the
// ledger.  The test compares the two on random compaction chains for
// n = 1..14: BDD and ZDD on random and function-zoo functions, MTBDD on
// value tables with up to 2^n distinct values.  Every step compacts by
// every free variable, so every variable position and both sides of the
// pair bound occur.  compact_into_bounded runs at five id limits per
// step, on both sides of the sweep's final next_id, against the
// reference cut off where the limit stops it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/prefix_table.hpp"
#include "ds/hash.hpp"
#include "ds/unique_table.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

/// The reference COMPACT: walks the input cells in order, pairs each cell
/// whose `var` bit is clear with its partner, and numbers every new
/// (u0, u1) pair through a per-call ds::UniqueTable.  With an id limit it
/// stops before the first pair if next_id is already there, and else
/// right after the pair that hands out id limit - 1; the cells it did
/// not read go to cut_cells.
PrefixTable reference_compact(const PrefixTable& t, int var,
                              DiagramKind kind, OpCounter* ops,
                              std::uint32_t limit = 0xffffffffu) {
  const util::Mask bit = util::Mask{1} << var;
  const int pos = util::popcount(t.free_mask() & (bit - 1));
  const std::uint64_t step = std::uint64_t{1} << pos;
  PrefixTable out;
  out.n = t.n;
  out.vars = t.vars | bit;
  out.num_terminals = t.num_terminals;
  out.next_id = t.next_id;
  const std::uint64_t pairs = t.cells.size() / 2;
  ds::UniqueTable dedup(
      static_cast<std::size_t>(std::min(pairs, std::uint64_t{1} << 16)));
  std::uint64_t read = 0;
  for (std::uint64_t i = 0; i < t.cells.size() && out.next_id < limit; ++i) {
    if ((i & step) != 0) continue;
    read += 2;
    const std::uint32_t u0 = t.cells[i];
    const std::uint32_t u1 = t.cells[i | step];
    const bool passes = kind == DiagramKind::kZdd ? u1 == 0 : u0 == u1;
    if (passes) {
      out.cells.push_back(u0);
      continue;
    }
    const auto [id, inserted] =
        dedup.find_or_insert(ds::pack_pair(u0, u1), out.next_id);
    if (inserted) ++out.next_id;
    out.cells.push_back(id);
  }
  ops->table_cells += t.cells.size();
  ops->cut_cells += t.cells.size() - read;
  ++ops->compactions;
  ops->dedup += dedup.stats();
  return out;
}

/// The pinned part of a compaction's ledger.
void expect_same_ledger(const OpCounter& got, const OpCounter& want) {
  EXPECT_EQ(got.table_cells, want.table_cells);
  EXPECT_EQ(got.cut_cells, want.cut_cells);
  EXPECT_EQ(got.compactions, want.compactions);
  EXPECT_EQ(got.dedup.lookups, want.dedup.lookups);
  EXPECT_EQ(got.dedup.hits, want.dedup.hits);
  EXPECT_EQ(got.dedup.inserts, want.dedup.inserts);
  EXPECT_EQ(got.dedup.resizes, 0u);
  EXPECT_GE(got.dedup.probes, got.dedup.lookups);
}

/// Which side of the pair bound the checked compactions fell on.
struct BoundSides {
  bool ids_bound = false;    ///< next_id^2 < pairs
  bool pairs_bound = false;  ///< next_id^2 >= pairs
};

/// Walks one random chain from `t` to the full prefix.  At every step it
/// compacts by each free variable with the reference, compact_into (into
/// one reused output table), compaction_width and compact_into_bounded,
/// then moves on by a random one of them.
void check_chain(PrefixTable t, DiagramKind kind, util::Xoshiro256& rng,
                 BoundSides* sides) {
  PrefixTable got;
  while (t.free_count() > 0) {
    std::vector<int> free_vars;
    for (int v = 0; v < t.n; ++v)
      if (((t.vars >> v) & 1u) == 0) free_vars.push_back(v);
    for (const int v : free_vars) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << t.n << " vars=" << t.vars << " var=" << v
                   << " next_id=" << t.next_id);
      const std::uint64_t pairs = t.cells.size() / 2;
      const std::uint64_t ids = t.next_id;
      (ids * ids < pairs ? sides->ids_bound : sides->pairs_bound) = true;

      OpCounter want_ops;
      const PrefixTable want = reference_compact(t, v, kind, &want_ops);
      OpCounter got_ops;
      compact_into(got, t, v, kind, &got_ops);
      ASSERT_EQ(got.cells, want.cells);
      ASSERT_EQ(got.next_id, want.next_id);
      EXPECT_EQ(got.vars, want.vars);
      EXPECT_EQ(got.num_terminals, want.num_terminals);
      expect_same_ledger(got_ops, want_ops);

      OpCounter width_ops;
      EXPECT_EQ(compaction_width(t, v, kind, &width_ops),
                want.next_id - t.next_id);
      expect_same_ledger(width_ops, want_ops);

      // The bounded kernel stops exactly when the full sweep reaches the
      // limit, with the reference's counts at the pair where it stopped
      // (no cell at all at limit t.next_id), and is one kAlloc event
      // either way.  Below the limit it is compact_into.
      const std::uint32_t mid = t.next_id + (want.next_id - t.next_id) / 2;
      for (const std::uint32_t limit :
           {t.next_id, t.next_id + 1, mid, want.next_id, want.next_id + 1}) {
        SCOPED_TRACE(::testing::Message() << "limit=" << limit);
        OpCounter cut_want;
        reference_compact(t, v, kind, &cut_want, limit);
        OpCounter cut_ops;
        bool done = false;
        {
          rt::ScopedFaultPlan probe(rt::FaultPlan{});
          done = compact_into_bounded(got, t, v, kind, limit, &cut_ops);
          EXPECT_EQ(probe.allocations_seen(), 1u);
        }
        ASSERT_EQ(done, want.next_id < limit);
        expect_same_ledger(cut_ops, cut_want);
        if (done) {
          ASSERT_EQ(got.cells, want.cells);
          ASSERT_EQ(got.next_id, want.next_id);
          EXPECT_EQ(got.vars, want.vars);
        } else {
          EXPECT_EQ(got.next_id, limit);
        }
      }
    }
    t = compact(t, free_vars[rng.below(free_vars.size())], kind);
  }
}

/// Random and function-zoo functions on n variables.
std::vector<tt::TruthTable> functions(int n, util::Xoshiro256& rng) {
  std::vector<tt::TruthTable> fs{
      tt::random_function(n, rng),
      tt::random_sparse_function(
          n, std::max<std::uint64_t>(1, (std::uint64_t{1} << n) / 16), rng),
      tt::random_read_once(n, rng),
      tt::hidden_weighted_bit(n),
      tt::majority(n),
  };
  if (n % 2 == 0) fs.push_back(tt::adder_carry(n));
  return fs;
}

TEST(Compaction, BddAndZddMatchTheReference) {
  util::Xoshiro256 rng(2024);
  for (const DiagramKind kind : {DiagramKind::kBdd, DiagramKind::kZdd}) {
    BoundSides sides;
    for (int n = 1; n <= 14; ++n) {
      for (const tt::TruthTable& f : functions(n, rng)) {
        check_chain(initial_table(f), kind, rng, &sides);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_TRUE(sides.ids_bound);
    EXPECT_TRUE(sides.pairs_bound);
  }
}

TEST(Compaction, MtbddValueTablesMatchTheReference) {
  util::Xoshiro256 rng(2025);
  BoundSides sides;
  for (int n = 1; n <= 14; ++n) {
    const std::uint64_t size = std::uint64_t{1} << n;
    // Two values, about 2^{n/2}, and (almost surely) 2^n distinct ones.
    for (const std::uint64_t distinct :
         {std::uint64_t{2}, std::uint64_t{1} << (n / 2), std::uint64_t{0}}) {
      std::vector<std::int64_t> values(size);
      for (std::int64_t& x : values)
        x = static_cast<std::int64_t>(distinct == 0 ? rng()
                                                    : rng.below(distinct));
      check_chain(initial_table_values(values, n), DiagramKind::kMtbdd, rng,
                  &sides);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_TRUE(sides.ids_bound);
  EXPECT_TRUE(sides.pairs_bound);
}

}  // namespace
}  // namespace ovo::core
