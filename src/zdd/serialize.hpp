#pragma once
// Text serialization of ZDDs (format mirrors bdd/serialize.hpp with an
// `ovo-zdd` header; loaded diagrams are re-interned through make(), so
// they are zero-suppressed-canonical by construction).

#include <cstdint>
#include <string>
#include <vector>

#include "zdd/manager.hpp"

namespace ovo::zdd {

std::string save_zdd(const Manager& m, NodeId root);

struct LoadedZdd {
  Manager manager;
  NodeId root;
};

/// Throws rt::CheckpointError(kMalformed) on malformed input, including a
/// variable count above the Manager's limit (tt::TruthTable::kMaxVars).
LoadedZdd load_zdd(const std::string& text);

/// Compact binary form (tag 'Z', version 1); decode mirrors
/// bdd/serialize.hpp's load_bdd_binary — every read bounds-checked via
/// rt::ByteReader, every violation typed as rt::CheckpointError(kMalformed).
std::vector<std::uint8_t> save_zdd_binary(const Manager& m, NodeId root);
LoadedZdd load_zdd_binary(const std::uint8_t* data, std::size_t len);

}  // namespace ovo::zdd
