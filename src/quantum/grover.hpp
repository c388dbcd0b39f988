#pragma once
// Grover search with an unknown number of marked items (the BBHT schedule)
// and Dürr–Høyer quantum minimum finding on top of it — the Lemma 6
// primitive of the paper, executed on the amplitude-level simulator so that
// query counts and failure statistics are the real ones.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "parallel/exec_policy.hpp"
#include "rt/budget.hpp"
#include "util/rng.hpp"

namespace ovo::quantum {

struct GroverStats {
  std::uint64_t oracle_queries = 0;   ///< Grover iterations performed
  std::uint64_t measurements = 0;     ///< verification measurements
};

/// Searches for any x in [0, space) with marked(x), using the
/// Boyer–Brassard–Høyer–Tapp schedule for an unknown number of solutions.
/// Returns nullopt if the iteration budget is exhausted without a verified
/// hit (possible both when no solution exists and, with small probability,
/// when one does).
///
/// When governed, each BBHT run is admitted as a whole — (j+1) Grover
/// iterations at 3·dimension amplitude-cells each — at a serial program
/// point after the schedule draw, so the RNG stream consumed under a fixed
/// work budget is thread-count-independent.  A refused run or a hard stop
/// returns nullopt (no verified hit), and the statevector's mutating
/// sweeps drain at chunk boundaries on hard stops.
std::optional<std::uint64_t> grover_search(
    std::uint64_t space, const std::function<bool(std::uint64_t)>& marked,
    util::Xoshiro256& rng, GroverStats* stats = nullptr,
    const par::ExecPolicy& exec = {}, rt::Governor* gov = nullptr);

struct MinFindResult {
  std::size_t best_index = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t rounds = 0;
};

/// Dürr–Høyer minimum finding over an explicit value array, boosted by
/// independent repetition: each round runs the DH threshold descent; the
/// final answer is the best index seen across `rounds` rounds, so the
/// failure probability decays exponentially in `rounds` (the
/// log(1/epsilon) factor of Lemma 6).
///
/// When governed, the descent degrades gracefully: a budget-refused
/// search looks like an exhausted one (descent stops at the current
/// threshold), later rounds are skipped once the governor reports any
/// non-complete outcome, and the returned index is always the best
/// candidate actually inspected.
MinFindResult durr_hoyer_min(const std::vector<std::int64_t>& values,
                             util::Xoshiro256& rng, int rounds = 3,
                             const par::ExecPolicy& exec = {},
                             rt::Governor* gov = nullptr);

}  // namespace ovo::quantum
