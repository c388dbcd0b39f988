#pragma once
// Typed error for malformed input (PLA and BLIF files, expressions).
//
// Derives from util::CheckError so existing call sites that treat any
// checked failure uniformly keep working; catch ParseError specifically
// to distinguish bad *input data* (user-supplied files) from violated
// internal invariants.

#include <string>

#include "util/check.hpp"

namespace ovo::tt {

class ParseError : public util::CheckError {
 public:
  explicit ParseError(const std::string& what) : util::CheckError(what) {}
};

}  // namespace ovo::tt
