#pragma once
// Shared one-input harness bodies for the fuzzed input frontier.  Each
// function feeds arbitrary bytes to one untrusted-input decoder and
// absorbs exactly the *typed* rejection paths (util::CheckError for the
// PLA/BLIF parsers, tt::ParseError for the expression parser,
// rt::CheckpointError for the binary decoders).  Anything
// else — a crash, a sanitizer report, an unexpected exception type
// terminating the process — is a finding.
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
#include "util/check.hpp"
#include "zdd/serialize.hpp"

namespace ovo::fuzz {

inline std::string as_text(const std::uint8_t* data, std::size_t len) {
  return std::string(reinterpret_cast<const char*>(data), len);
}

inline int one_blif(const std::uint8_t* data, std::size_t len) {
  try {
    tt::parse_blif(as_text(data, len));
  } catch (const util::CheckError&) {
  }
  return 0;
}

inline int one_pla(const std::uint8_t* data, std::size_t len) {
  try {
    tt::parse_pla(as_text(data, len));
  } catch (const util::CheckError&) {
  }
  return 0;
}

inline int one_expr(const std::uint8_t* data, std::size_t len) {
  try {
    tt::parse_expr(as_text(data, len));
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
  } catch (const util::CheckError&) {
  } catch (const rt::CheckpointError&) {
  }
  return 0;
}

}  // namespace ovo::fuzz
