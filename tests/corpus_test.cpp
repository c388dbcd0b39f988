// Regression corpus replay: every file under tests/data/corpus/ goes
// through the exact harness bodies the fuzz targets use (fuzz_one.hpp).
// The corpus is the fuzzer's memory — each file encodes a malformed-input
// class (truncated frames, CRC flips, oversized counts, deep nesting,
// dangling references) that the decoders must reject with a *typed*
// error, never a crash, an OOM, or an untyped exception.  This test runs
// in tier-1 on every build; the coverage-guided fuzzers (OVO_FUZZ) only
// ever *add* files here.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "fuzz_one.hpp"

namespace ovo {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// Replays every file in corpus subdirectory `category` through `one`.
/// The harness body absorbs the typed rejections; anything escaping here
/// is a finding and fails the test with the offending file named.
void replay_category(
    const std::string& category,
    const std::function<int(const std::uint8_t*, std::size_t)>& one) {
  const fs::path dir = fs::path(OVO_CORPUS_DIR) / category;
  ASSERT_TRUE(fs::is_directory(dir)) << dir << " missing";
  std::size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::vector<std::uint8_t> data = slurp(entry.path());
    try {
      one(data.data(), data.size());
    } catch (const std::exception& e) {
      FAIL() << "untyped escape replaying " << entry.path() << ": "
             << e.what();
    }
    ++replayed;
  }
  // An empty category would silently test nothing — that is a test bug.
  EXPECT_GE(replayed, 4u) << "corpus category '" << category
                          << "' is suspiciously small";
}

TEST(Corpus, Blif) { replay_category("blif", fuzz::one_blif); }
TEST(Corpus, Pla) { replay_category("pla", fuzz::one_pla); }
// Every malformed expression must be rejected as a tt::ParseError — the
// typed input error — not merely some util::CheckError.
TEST(Corpus, Expr) {
  replay_category("expr", fuzz::one_expr);
  std::size_t malformed = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(OVO_CORPUS_DIR) / "expr")) {
    if (!entry.is_regular_file() ||
        entry.path().filename().string().rfind("valid_", 0) == 0)
      continue;
    const std::vector<std::uint8_t> data = slurp(entry.path());
    EXPECT_THROW(tt::parse_expr(std::string(data.begin(), data.end())),
                 tt::ParseError)
        << entry.path();
    ++malformed;
  }
  EXPECT_GE(malformed, 4u);
}
TEST(Corpus, Snapshot) { replay_category("snapshot", fuzz::one_snapshot); }
TEST(Corpus, Diagram) { replay_category("diagram", fuzz::one_diagram); }

// The corpus' valid exemplars must actually be valid — a corpus where
// even the well-formed files fail to parse would still "pass" replay, so
// pin the positive paths explicitly.
TEST(Corpus, ValidExemplarsParse) {
  const fs::path dir(OVO_CORPUS_DIR);
  {
    const auto data = slurp(dir / "diagram" / "valid_bdd.txt");
    const bdd::LoadedBdd loaded =
        bdd::load_bdd(std::string(data.begin(), data.end()));
    EXPECT_EQ(loaded.manager.num_vars(), 2);
  }
  {
    const auto data = slurp(dir / "diagram" / "valid_bdd.bin");
    const bdd::LoadedBdd loaded =
        bdd::load_bdd_binary(data.data(), data.size());
    EXPECT_EQ(loaded.manager.num_vars(), 2);
  }
  {
    const auto data = slurp(dir / "diagram" / "valid_zdd.bin");
    const zdd::LoadedZdd loaded =
        zdd::load_zdd_binary(data.data(), data.size());
    EXPECT_EQ(loaded.manager.num_vars(), 2);
  }
  {
    const auto data = slurp(dir / "pla" / "valid_small.pla");
    const tt::Pla pla = tt::parse_pla(std::string(data.begin(), data.end()));
    EXPECT_EQ(pla.num_inputs, 3);
  }
  {
    const auto data = slurp(dir / "blif" / "valid_small.blif");
    const tt::BlifModel m =
        tt::parse_blif(std::string(data.begin(), data.end()));
    EXPECT_EQ(m.inputs.size(), 2u);
  }
  {
    const auto data = slurp(dir / "expr" / "valid_small.expr");
    EXPECT_NE(tt::parse_expr(std::string(data.begin(), data.end())), nullptr);
  }
  {
    // The CRC-valid frame with a garbage payload must pass the container
    // layer and fail *semantic* validation, proving the decode layers
    // compose (framing cannot vouch for payload structure).
    const auto data = slurp(dir / "snapshot" / "garbage_payload_valid_crc.bin");
    const rt::CheckpointData d =
        rt::parse_checkpoint(data.data(), data.size(), 0, ~std::uint32_t{0});
    EXPECT_THROW(core::decode_snapshot(d.payload.data(), d.payload.size()),
                 rt::CheckpointError);
  }
}

}  // namespace
}  // namespace ovo
