#pragma once
// Lightweight invariant checking used across the library.
//
// OVO_CHECK is active in all build types: it guards conditions whose failure
// indicates misuse of a public API or a violated algorithmic invariant, and
// throws ovo::util::CheckError so callers (and tests) can observe it.
// OVO_DCHECK compiles away in NDEBUG builds (its condition is never
// evaluated) and is used on hot paths.

#include <sstream>
#include <stdexcept>
#include <string>

namespace ovo::util {

/// Exception thrown when a checked invariant fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace ovo::util

#define OVO_CHECK(cond)                                               \
  do {                                                                \
    if (!(cond)) ::ovo::util::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define OVO_CHECK_MSG(cond, msg)                                      \
  do {                                                                \
    if (!(cond))                                                      \
      ::ovo::util::check_failed(#cond, __FILE__, __LINE__, (msg));    \
  } while (0)

#ifdef NDEBUG
// The condition stays an unevaluated operand: no code, no side effects,
// but every name it mentions counts as used, so a variable that exists
// only for a DCHECK draws no unused warning in release builds.
#define OVO_DCHECK(cond)     \
  do {                       \
    (void)sizeof(!(cond));   \
  } while (0)
#else
#define OVO_DCHECK(cond) OVO_CHECK(cond)
#endif
