#pragma once
// Shared one-input harness bodies for the fuzzed input frontier.  Each
// function feeds arbitrary bytes to one untrusted-input decoder and
// absorbs exactly the *typed* rejection paths (tt::ParseError for the
// PLA, BLIF and expression readers, rt::CheckpointError for the snapshot
// decoder and the text and binary diagram loaders).  The three text
// readers also tabulate what they accept, up to kMaxTabulatedInputs
// inputs and kMaxTabulatedOutputs outputs, so the lowering to tt::Circuit
// and its simulation are on the frontier too.  Anything else — a crash,
// a sanitizer report, an internal check failing, an unexpected exception
// type terminating the process — is a finding.
//
// The same bodies back three harnesses:
//   * the libFuzzer targets in fuzz/fuzz_*.cpp (Clang, -fsanitize=fuzzer)
//   * the standalone replay driver (GCC; file replay + --rand generation)
//   * the tier-1 corpus regression test (tests/corpus_test.cpp), which
//     replays tests/data/corpus/ through the identical code path.

#include <cstddef>
#include <cstdint>
#include <string>

#include "bdd/serialize.hpp"
#include "core/fs_checkpoint.hpp"
#include "rt/checkpoint.hpp"
#include "tt/blif.hpp"
#include "tt/expr.hpp"
#include "tt/parse_error.hpp"
#include "tt/pla.hpp"
#include "zdd/serialize.hpp"

namespace ovo::fuzz {

inline std::string as_text(const std::uint8_t* data, std::size_t len) {
  return std::string(reinterpret_cast<const char*>(data), len);
}

/// Parsed inputs up to this size are tabulated as well.
constexpr std::size_t kMaxTabulatedInputs = 12;
constexpr std::size_t kMaxTabulatedOutputs = 16;

inline int one_blif(const std::uint8_t* data, std::size_t len) {
  try {
    const tt::BlifModel m = tt::parse_blif(as_text(data, len));
    if (m.inputs.size() <= kMaxTabulatedInputs &&
        m.outputs.size() <= kMaxTabulatedOutputs)
      m.output_tables();
  } catch (const tt::ParseError&) {
  }
  return 0;
}

inline int one_pla(const std::uint8_t* data, std::size_t len) {
  try {
    const tt::Pla p = tt::parse_pla(as_text(data, len));
    if (static_cast<std::size_t>(p.num_inputs) <= kMaxTabulatedInputs &&
        static_cast<std::size_t>(p.num_outputs) <= kMaxTabulatedOutputs)
      p.output_tables();
  } catch (const tt::ParseError&) {
  }
  return 0;
}

inline int one_expr(const std::uint8_t* data, std::size_t len) {
  try {
    const tt::ExprPtr e = tt::parse_expr(as_text(data, len));
    const int n = tt::expr_num_vars(*e);
    if (static_cast<std::size_t>(n) <= kMaxTabulatedInputs)
      tt::expr_to_truth_table(*e, n);
  } catch (const tt::ParseError&) {
  }
  return 0;
}

/// The checkpoint decode stack: container framing (magic / version /
/// length / CRC) and, when the frame carries the FS* snapshot version,
/// the full semantic payload validation of core::decode_snapshot.
inline int one_snapshot(const std::uint8_t* data, std::size_t len) {
  try {
    const rt::CheckpointData d =
        rt::parse_checkpoint(data, len, 0, ~std::uint32_t{0});
    if (d.version <= core::kFsSnapshotVersion)
      core::decode_snapshot(d.payload.data(), d.payload.size());
  } catch (const rt::CheckpointError&) {
  }
  return 0;
}

/// The diagram loaders, dispatched the way a CLI would: binary images by
/// their leading tag byte, anything else through the text parsers.
inline int one_diagram(const std::uint8_t* data, std::size_t len) {
  try {
    if (len > 0 && data[0] == 'B') {
      bdd::load_bdd_binary(data, len);
    } else if (len > 0 && data[0] == 'Z') {
      zdd::load_zdd_binary(data, len);
    } else {
      const std::string text = as_text(data, len);
      if (text.rfind("ovo-zdd", 0) == 0)
        zdd::load_zdd(text);
      else
        bdd::load_bdd(text);
    }
  } catch (const rt::CheckpointError&) {
  }
  return 0;
}

}  // namespace ovo::fuzz
