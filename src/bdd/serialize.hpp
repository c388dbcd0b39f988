#pragma once
// Text serialization of ROBDDs: a small versioned format that survives
// round-trips across processes.  Node ids are compacted to a dense
// post-order numbering on save; load re-interns them through make(), so a
// loaded diagram is reduced and canonical by construction.
//
//   ovo-bdd 1
//   n <num_vars>
//   order <v0> <v1> ... (root level first)
//   nodes <count>
//   <idx> <level> <lo> <hi>     (idx dense from 2; 0/1 are terminals)
//   root <idx>

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/manager.hpp"

namespace ovo::bdd {

/// Serializes the diagram rooted at `root`.
std::string save_bdd(const Manager& m, NodeId root);

struct LoadedBdd {
  Manager manager;
  NodeId root;
};

/// Parses a diagram saved by save_bdd. Throws
/// rt::CheckpointError(kMalformed) on malformed input (bad header, an
/// order that is not a permutation, dangling references, level
/// violations).
LoadedBdd load_bdd(const std::string& text);

/// Compact binary form of the same diagram (tag 'B', version 1, dense
/// post-order node table).  The decoder goes through the checkpoint
/// layer's bounds-checked rt::ByteReader, so every field read is
/// length-validated before any allocation, and every violation (order,
/// references, level ordering) throws rt::CheckpointError(kMalformed).
std::vector<std::uint8_t> save_bdd_binary(const Manager& m, NodeId root);
LoadedBdd load_bdd_binary(const std::uint8_t* data, std::size_t len);

}  // namespace ovo::bdd
