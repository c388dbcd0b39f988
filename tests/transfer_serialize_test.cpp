// Tests for cross-manager transfer (order migration) and ZDD
// serialization.

#include <gtest/gtest.h>

#include "bdd/serialize.hpp"
#include "bdd/transfer.hpp"
#include "core/minimize.hpp"
#include "rt/checkpoint.hpp"
#include "tt/function_zoo.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "zdd/serialize.hpp"

namespace ovo {
namespace {

TEST(Transfer, PreservesFunctionAcrossOrders) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const tt::TruthTable t = tt::random_function(7, rng);
    bdd::Manager src(7);
    const bdd::NodeId f = src.from_truth_table(t);
    std::vector<int> order{6, 2, 4, 0, 5, 1, 3};
    bdd::Manager dst(7, order);
    const bdd::NodeId g = bdd::transfer(src, f, dst);
    EXPECT_EQ(dst.to_truth_table(g), t);
    // Canonicity in dst: direct construction gives the same id.
    EXPECT_EQ(g, dst.from_truth_table(t));
  }
}

TEST(Transfer, MigrationToOptimalOrderShrinks) {
  const tt::TruthTable f = tt::pair_sum(4);
  bdd::Manager bad(8, tt::pair_sum_interleaved_order(4));
  const bdd::NodeId worst = bad.from_truth_table(f);
  EXPECT_EQ(bad.size(worst), 30u);  // 2^{m+1} - 2
  const auto opt = core::fs_minimize(f);
  bdd::Manager good(8, opt.order_root_first);
  const bdd::NodeId best = bdd::transfer(bad, worst, good);
  EXPECT_EQ(good.size(best), 8u);
}

TEST(Transfer, TerminalsAndMismatches) {
  bdd::Manager a(3), b(3), c(4);
  EXPECT_EQ(bdd::transfer(a, bdd::kTrue, b), bdd::kTrue);
  EXPECT_EQ(bdd::transfer(a, bdd::kFalse, b), bdd::kFalse);
  EXPECT_THROW(bdd::transfer(a, bdd::kTrue, c), util::CheckError);
}

TEST(Transfer, SameOrderIsStructurePreserving) {
  util::Xoshiro256 rng(9);
  const tt::TruthTable t = tt::random_function(6, rng);
  bdd::Manager src(6), dst(6);
  const bdd::NodeId f = src.from_truth_table(t);
  const bdd::NodeId g = bdd::transfer(src, f, dst);
  EXPECT_EQ(src.size(f), dst.size(g));
}

TEST(ZddSerialize, RoundtripPreservesFamily) {
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const tt::TruthTable t = tt::random_sparse_function(6, 9, rng);
    zdd::Manager m(6, {5, 0, 3, 1, 4, 2});
    const zdd::NodeId f = m.from_truth_table(t);
    const std::string text = zdd::save_zdd(m, f);
    zdd::LoadedZdd loaded = zdd::load_zdd(text);
    EXPECT_EQ(loaded.manager.to_truth_table(loaded.root), t);
    EXPECT_EQ(loaded.manager.size(loaded.root), m.size(f));
    EXPECT_EQ(zdd::save_zdd(loaded.manager, loaded.root), text);
  }
}

TEST(ZddSerialize, TerminalsAndErrors) {
  zdd::Manager m(2);
  EXPECT_EQ(zdd::load_zdd(zdd::save_zdd(m, zdd::kUnit)).root, zdd::kUnit);
  EXPECT_THROW(zdd::load_zdd("ovo-bdd 1\nn 1\n"), rt::CheckpointError);
  EXPECT_THROW(zdd::load_zdd(""), rt::CheckpointError);
}

// --- binary forms ----------------------------------------------------------

TEST(BddSerializeBinary, RoundtripPreservesFunction) {
  util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    const tt::TruthTable t = tt::random_function(7, rng);
    bdd::Manager m(7, {3, 6, 0, 5, 1, 4, 2});
    const bdd::NodeId f = m.from_truth_table(t);
    const std::vector<std::uint8_t> bytes = bdd::save_bdd_binary(m, f);
    bdd::LoadedBdd loaded = bdd::load_bdd_binary(bytes.data(), bytes.size());
    EXPECT_EQ(loaded.manager.to_truth_table(loaded.root), t);
    EXPECT_EQ(loaded.manager.size(loaded.root), m.size(f));
    // Canonical: re-saving the loaded diagram is byte-identical.
    EXPECT_EQ(bdd::save_bdd_binary(loaded.manager, loaded.root), bytes);
  }
}

TEST(BddSerializeBinary, Terminals) {
  bdd::Manager m(3);
  const auto bytes = bdd::save_bdd_binary(m, bdd::kTrue);
  EXPECT_EQ(bdd::load_bdd_binary(bytes.data(), bytes.size()).root,
            bdd::kTrue);
}

TEST(ZddSerializeBinary, RoundtripPreservesFamily) {
  util::Xoshiro256 rng(13);
  const tt::TruthTable t = tt::random_sparse_function(6, 9, rng);
  zdd::Manager m(6, {5, 0, 3, 1, 4, 2});
  const zdd::NodeId f = m.from_truth_table(t);
  const std::vector<std::uint8_t> bytes = zdd::save_zdd_binary(m, f);
  zdd::LoadedZdd loaded = zdd::load_zdd_binary(bytes.data(), bytes.size());
  EXPECT_EQ(loaded.manager.to_truth_table(loaded.root), t);
  EXPECT_EQ(zdd::save_zdd_binary(loaded.manager, loaded.root), bytes);
}

/// The decoders must reject malformed bytes with a *typed* error —
/// rt::CheckpointError(kMalformed) for structural violations — never
/// crash or read out of bounds (the fuzz/corpus harnesses lean on this).
TEST(BddSerializeBinary, MalformedBytesAreRejectedTyped) {
  bdd::Manager m(4);
  const bdd::NodeId f = m.from_truth_table(tt::parity(4));
  std::vector<std::uint8_t> bytes = bdd::save_bdd_binary(m, f);

  // Truncation at every prefix length.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(bdd::load_bdd_binary(bytes.data(), len),
                 rt::CheckpointError)
        << "prefix " << len;
  }
  // Wrong tag ('Z' bytes fed to the BDD loader and vice versa).
  {
    zdd::Manager zm(2);
    const std::vector<std::uint8_t> z = zdd::save_zdd_binary(zm, zdd::kUnit);
    EXPECT_THROW(bdd::load_bdd_binary(z.data(), z.size()),
                 rt::CheckpointError);
    EXPECT_THROW(zdd::load_zdd_binary(bytes.data(), bytes.size()),
                 rt::CheckpointError);
  }
  // Trailing garbage after a valid image.
  {
    std::vector<std::uint8_t> longer = bytes;
    longer.push_back(0);
    EXPECT_THROW(bdd::load_bdd_binary(longer.data(), longer.size()),
                 rt::CheckpointError);
  }
  // A corrupted order byte breaks the permutation check.
  {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[6] = corrupt[7];  // duplicate one order entry
    EXPECT_THROW(bdd::load_bdd_binary(corrupt.data(), corrupt.size()),
                 rt::CheckpointError);
  }
}

}  // namespace
}  // namespace ovo
