#pragma once
// Execution policy threaded through the public entry points that can fan
// work out over the ovo::par thread pool (fs_minimize, fs_star, OptOBDD,
// the reorder baselines, the statevector sweeps).  The default policy is
// strictly serial: a caller that never asks for threads runs exactly the
// code path the library shipped with before parallelism existed, and the
// process never spawns a worker thread.

#include <cstdint>

namespace ovo::par {

/// The thread count auto-detection resolves to: the OVO_THREADS
/// environment variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1).  Cached after the
/// first call.
int default_threads();

/// Bound pruning in the FS* DP.  kOff runs the dense DP (every state is
/// kept); kBounds seeds an upper bound, skips every DP state whose
/// admissible lower bound exceeds it, and stores layers sparsely
/// (surviving states only).  Pruned runs return the same optimal order,
/// size, and tie-breaks as dense runs — see fs_star.hpp.
enum class PruneMode : std::uint8_t { kOff = 0, kBounds = 1 };

struct ExecPolicy {
  /// Number of cooperating threads (including the calling thread).
  /// 1 (the default) selects the serial path, which is bit-identical to
  /// the pre-parallel implementation; 0 auto-detects via
  /// default_threads().
  int num_threads = 1;

  /// Ignored: nothing reads it (the FS* DP has one engine, see
  /// fs_star.hpp).  It stays only because callers outside the library
  /// still assign it.
  bool pipeline = true;

  /// Bound pruning for the FS* DP (see PruneMode).  Off by default so
  /// every existing caller keeps the dense DP bit for bit.
  PruneMode prune = PruneMode::kOff;

  int resolved_threads() const {
    return num_threads == 0 ? default_threads() : num_threads;
  }
  bool serial() const { return resolved_threads() <= 1; }

  static ExecPolicy auto_detect() { return ExecPolicy{0}; }
};

}  // namespace ovo::par
