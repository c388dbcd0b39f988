// Narrow cells (core/prefix_table.hpp): the FS* DP stores each table at
// the width its ids need.  Runs whose ids need u32 from the first
// compaction, start at u16, or cross from u8 to u16 mid-run answer as the
// plain Lemma 4 DP or a closed form, dense and pruned at 1 and 4 threads;
// the snapshot codec rejects a cell array cut short and an id at or past
// its table's next_id at every width; and a byte-limited run never holds
// more table bytes than it was admitted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/fs_checkpoint.hpp"
#include "core/fs_star.hpp"
#include "reference_dp.hpp"
#include "rt/budget.hpp"
#include "tt/function_zoo.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace ovo::core {
namespace {

constexpr DiagramKind kBdd = DiagramKind::kBdd;
constexpr DiagramKind kZdd = DiagramKind::kZdd;
constexpr DiagramKind kMtbdd = DiagramKind::kMtbdd;

par::ExecPolicy policy(int threads, par::PruneMode prune) {
  par::ExecPolicy exec;
  exec.num_threads = threads;
  exec.prune = prune;
  return exec;
}

constexpr par::PruneMode kModes[] = {par::PruneMode::kOff,
                                     par::PruneMode::kBounds};

/// Every fence payload of a dense run from `base` over all its variables.
std::vector<std::vector<std::uint8_t>> fence_payloads(const PrefixTable& base,
                                                      DiagramKind kind) {
  std::vector<std::vector<std::uint8_t>> fences;
  FsCheckpointOptions ckpt;
  ckpt.on_bytes = [&](const std::vector<std::uint8_t>& p) {
    fences.push_back(p);
  };
  fs_star(base, util::full_mask(base.n), base.n, kind, nullptr, {}, nullptr,
          0, &ckpt);
  return fences;
}

/// The widest cell width of a decoded fence's tables.
int widest(const FsStarSnapshot& s) {
  int w = 0;
  for (const NarrowTable& t : s.tables) w = std::max(w, t.cells.width());
  return w;
}

/// Checks `base`'s DP against the plain Lemma 4 recurrence: every
/// subset's cost and choice, and the block order, dense and pruned at 1
/// and 4 threads.
void expect_matches_reference(const PrefixTable& base, DiagramKind kind) {
  const int n = base.n;
  const util::Mask J = util::full_mask(n);
  const ReferenceDp ref = reference_dp(base, kind);
  for (const par::PruneMode prune : kModes) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "prune=" << static_cast<int>(prune)
                                        << " threads=" << threads);
      const FsStarResult r =
          fs_star(base, J, n, kind, nullptr, policy(threads, prune));
      ASSERT_EQ(r.tables.at(J).mincost(), ref.mincost[J]);
      for (util::Mask K = 1; K <= J; ++K) {
        const FsState* st = r.state(K);
        if (st == nullptr) {
          ASSERT_EQ(prune, par::PruneMode::kBounds) << "K=" << K;
          continue;
        }
        ASSERT_EQ(st->mincost, ref.mincost[K]) << "K=" << K;
        ASSERT_EQ(r.choice(K), ref.best_last[K]) << "K=" << K;
      }
    }
  }
}

TEST(CellWidth, FollowsNextId) {
  EXPECT_EQ(cell_width(1), 1);
  EXPECT_EQ(cell_width(256), 1);
  EXPECT_EQ(cell_width(257), 2);
  EXPECT_EQ(cell_width(65536), 2);
  EXPECT_EQ(cell_width(65537), 4);
  EXPECT_EQ(cell_width(0xFFFFFFFFu), 4);
}

// A table narrows to its width and widens back unchanged, and the kernel
// compacts a narrow table exactly as its u32 form: the same cells, the
// same next_id, the same ledger, bounded or not.
TEST(CellWidth, NarrowTablesCompactAsTheirWideForm) {
  util::Xoshiro256 rng(28);
  for (const std::uint32_t next_id : {2u, 200u, 256u, 300u, 65536u,
                                      70000u}) {
    PrefixTable wide;
    wide.n = 9;
    wide.num_terminals = 2;
    wide.next_id = next_id;
    wide.cells.resize(std::size_t{1} << wide.n);
    for (std::uint32_t& c : wide.cells)
      c = static_cast<std::uint32_t>(rng.below(next_id));
    wide.cells.back() = next_id - 1;
    const NarrowTable t = narrow(wide);
    SCOPED_TRACE("next_id=" + std::to_string(next_id));
    EXPECT_EQ(t.cells.width(), cell_width(next_id));
    EXPECT_EQ(t.cells.bytes(), wide.cells.size() * cell_width(next_id));
    EXPECT_EQ(t.mincost(), wide.mincost());
    const PrefixTable back = t.widen();
    EXPECT_EQ(back.cells, wide.cells);
    EXPECT_EQ(back.next_id, wide.next_id);
    for (const DiagramKind kind : {kBdd, kZdd}) {
      for (int var = 0; var < wide.n; ++var) {
        OpCounter want_ops, got_ops;
        PrefixTable want, got;
        compact_into(want, wide, var, kind, &want_ops);
        compact_into(got, t, var, kind, &got_ops);
        ASSERT_EQ(got.cells, want.cells) << "var " << var;
        ASSERT_EQ(got.next_id, want.next_id) << "var " << var;
        ASSERT_EQ(got.vars, want.vars) << "var " << var;
        const std::uint32_t limit = next_id + (want.next_id - next_id) / 2;
        EXPECT_EQ(compact_into_bounded(got, t, var, kind, limit, &got_ops),
                  compact_into_bounded(want, wide, var, kind, limit,
                                       &want_ops));
        EXPECT_EQ(got_ops.table_cells, want_ops.table_cells);
        EXPECT_EQ(got_ops.cut_cells, want_ops.cut_cells);
        EXPECT_EQ(got_ops.compactions, want_ops.compactions);
        EXPECT_EQ(got_ops.dedup.lookups, want_ops.dedup.lookups);
      }
    }
  }
}

// An MTBDD over 16 inputs whose 2^16 values are all distinct: its base
// needs u16 ids and every table from the first compaction on needs u32.
// No two subfunctions ever coincide, so every order gives 2^16 - 1
// internal nodes, and placing k variables creates 2^16 - 2^(16-k).
TEST(FsWidth, AllDistinctValuesNeedU32FromTheFirstCompaction) {
  constexpr int kN = 16;
  std::vector<std::int64_t> values(std::size_t{1} << kN);
  for (std::size_t a = 0; a < values.size(); ++a)
    values[a] = static_cast<std::int64_t>(a * 40503u % values.size());
  const PrefixTable base = initial_table_values(values, kN);
  ASSERT_EQ(base.next_id, 1u << kN);
  EXPECT_EQ(narrow(base).cells.width(), 2);
  const util::Mask J = util::full_mask(kN);
  const FsStarResult first = fs_star(base, J, 1, kMtbdd);
  ASSERT_EQ(first.tables.size(), static_cast<std::size_t>(kN));
  for (const auto& [K, t] : first.tables) EXPECT_EQ(t.cells.width(), 4);
  for (const par::PruneMode prune : kModes) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "prune=" << static_cast<int>(prune)
                                        << " threads=" << threads);
      const FsStarResult r =
          fs_star(base, J, kN, kMtbdd, nullptr, policy(threads, prune));
      EXPECT_EQ(r.tables.at(J).mincost(), (std::uint64_t{1} << kN) - 1);
      for (const auto& [K, ties, cost] : r.states)
        ASSERT_EQ(cost, (std::uint64_t{1} << kN) -
                            (std::uint64_t{1} << (kN - util::popcount(K))))
            << "K=" << K;
      std::vector<int> order = reconstruct_block_order(r, J);
      std::sort(order.begin(), order.end());
      for (int v = 0; v < kN; ++v)
        EXPECT_EQ(order[static_cast<std::size_t>(v)], v);
    }
  }
}

// An MTBDD with a few hundred distinct values starts at u16.
TEST(FsWidth, FewHundredValuesStartAtU16) {
  constexpr int kN = 12;
  util::Xoshiro256 rng(2800);
  std::vector<std::int64_t> values(std::size_t{1} << kN);
  for (std::int64_t& v : values) v = static_cast<std::int64_t>(rng.below(300));
  const PrefixTable base = initial_table_values(values, kN);
  ASSERT_GT(base.next_id, 256u);
  ASSERT_LE(base.next_id, 300u);
  EXPECT_EQ(narrow(base).cells.width(), 2);
  expect_matches_reference(base, kMtbdd);
}

// Random BDD and ZDD functions of 12 inputs: the first layers' tables
// hold fewer than 256 ids and the upper ones more, so the run crosses
// from u8 to u16.
TEST(FsWidth, BooleanTablesCrossFromU8ToU16) {
  util::Xoshiro256 rng(2801);
  for (const DiagramKind kind : {kBdd, kZdd}) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
    const PrefixTable base = initial_table(tt::random_function(12, rng));
    const std::vector<std::vector<std::uint8_t>> fences =
        fence_payloads(base, kind);
    ASSERT_EQ(fences.size(), 11u);
    std::vector<int> widths;
    for (const std::vector<std::uint8_t>& p : fences)
      widths.push_back(widest(decode_snapshot(p.data(), p.size())));
    EXPECT_EQ(widths.front(), 1);
    EXPECT_EQ(*std::max_element(widths.begin(), widths.end()), 2);
    expect_matches_reference(base, kind);
  }
}

/// Fence 2 of a dense MTBDD run over 6 inputs whose base holds ids below
/// `ids`: its tables sit at cell_width of their next_ids, from
/// cell_width(ids) up.
std::vector<std::uint8_t> fence_at_ids(std::uint32_t ids) {
  util::Xoshiro256 rng(ids);
  PrefixTable base;
  base.n = 6;
  base.num_terminals = ids;
  base.next_id = ids;
  base.cells.resize(64);
  for (std::uint32_t& c : base.cells)
    c = static_cast<std::uint32_t>(rng.below(ids));
  return fence_payloads(base, kMtbdd).at(1);
}

/// Bytes of `v` little-endian in `width` bytes.
std::vector<std::uint8_t> le_bytes(std::uint64_t v, int width) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < width; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return out;
}

// At each width, a payload whose first table's cell array is cut short
// anywhere, or whose first cell holds its table's next_id, is a typed
// CheckpointError, never a crash or a silently wrong table.
TEST(FsWidth, SnapshotCellsAreCheckedAtEveryWidth) {
  for (const std::uint32_t ids : {2u, 300u, 70000u}) {
    const std::vector<std::uint8_t> payload = fence_at_ids(ids);
    const FsStarSnapshot s = decode_snapshot(payload.data(), payload.size());
    const NarrowTable& t = s.tables.front();
    const int width = t.cells.width();
    SCOPED_TRACE("width " + std::to_string(width));
    EXPECT_EQ(width, cell_width(t.next_id));
    EXPECT_EQ(width, cell_width(ids));
    // The first table's header — dense mask, next_id, cell count — is
    // followed by its cells.
    std::vector<std::uint8_t> header = le_bytes(s.dense.front(), 8);
    for (const auto& part : {le_bytes(t.next_id, 4), le_bytes(t.cells.size(), 8)})
      header.insert(header.end(), part.begin(), part.end());
    const auto at = std::search(payload.begin(), payload.end(),
                                header.begin(), header.end());
    ASSERT_NE(at, payload.end());
    const std::size_t cells_at =
        static_cast<std::size_t>(at - payload.begin()) + header.size();
    const std::size_t cell_bytes = t.cells.size() * static_cast<std::size_t>(width);
    for (std::size_t cut = cells_at; cut < cells_at + cell_bytes; ++cut)
      EXPECT_THROW(decode_snapshot(payload.data(), cut), rt::CheckpointError)
          << "cut at " << cut;
    std::vector<std::uint8_t> bad = payload;
    const std::vector<std::uint8_t> id = le_bytes(t.next_id, width);
    std::copy(id.begin(), id.end(), bad.begin() + static_cast<std::ptrdiff_t>(cells_at));
    try {
      decode_snapshot(bad.data(), bad.size());
      ADD_FAILURE() << "an id at next_id decoded";
    } catch (const rt::CheckpointError& e) {
      EXPECT_EQ(e.kind(), rt::CheckpointErrorKind::kMalformed) << e.what();
    }
  }
}

/// Bytes of layer k's tables in a dense run from `base`: every table of a
/// stop-early run at k, at its width.
std::uint64_t layer_bytes(const PrefixTable& base, DiagramKind kind, int k) {
  const FsStarResult r = fs_star(base, util::full_mask(base.n), k, kind);
  std::uint64_t bytes = 0;
  for (const auto& [K, t] : r.tables) bytes += t.cells.bytes();
  return bytes;
}

// Under any byte limit, the two layers a run holds while it builds the
// second never take more bytes than the limit: admission counts the
// previous layer at its widths and the next at the width its ids can
// reach.  A limit of exactly the widest pair's bytes times the u32
// factor always completes, and a limit below some pair trips.
TEST(FsWidth, AdmittedBytesCoverTheLayersHeld) {
  util::Xoshiro256 rng(2802);
  const PrefixTable base = initial_table(tt::random_function(11, rng));
  const int n = base.n;
  ASSERT_EQ(symmetry_classes(base, util::full_mask(n)).size(),
            static_cast<std::size_t>(n));
  std::vector<std::uint64_t> bytes;
  for (int k = 0; k <= n; ++k) bytes.push_back(layer_bytes(base, kBdd, k));
  std::uint64_t widest_pair = 0;
  for (int k = 1; k <= n; ++k)
    widest_pair = std::max(widest_pair, bytes[static_cast<std::size_t>(k - 1)] +
                                            bytes[static_cast<std::size_t>(k)]);
  for (std::uint64_t limit = widest_pair / 4; limit <= 4 * widest_pair;
       limit += widest_pair / 8) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    rt::Budget budget;
    budget.bytes_limit = limit;
    rt::Governor gov(budget);
    const FsStarResult r =
        fs_star(base, util::full_mask(n), n, kBdd, nullptr, {}, &gov);
    for (int k = 1; k <= r.completed_layers; ++k)
      EXPECT_LE(bytes[static_cast<std::size_t>(k - 1)] +
                    bytes[static_cast<std::size_t>(k)],
                limit)
          << "layer " << k;
    if (limit < widest_pair) {
      EXPECT_LT(r.completed_layers, n);
    }
    if (limit >= 4 * widest_pair) {
      EXPECT_EQ(r.completed_layers, n);
    }
  }
}

}  // namespace
}  // namespace ovo::core
