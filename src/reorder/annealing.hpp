#pragma once
// Simulated annealing over reading orders — the classic stochastic
// heuristic for BDD variable ordering (Bollig/Löbbing/Wegener-style
// neighborhood of transpositions), evaluated with the exact chain
// oracle.  Complements sifting/window as a baseline whose quality the
// exact algorithms judge.

#include <cstdint>
#include <vector>

#include "reorder/oracle.hpp"
#include "util/rng.hpp"

namespace ovo::reorder {

struct AnnealOptions {
  double initial_temperature = 4.0;
  double cooling = 0.95;      ///< geometric per-epoch factor
  int epochs = 60;
  int moves_per_epoch = 20;   ///< proposed transpositions per epoch
};

struct AnnealResult {
  std::vector<int> order_root_first;
  std::uint64_t internal_nodes = 0;
  std::uint64_t orders_evaluated = 0;
  std::uint64_t moves_accepted = 0;
};

/// Anneals from `initial_order` (root first) over the oracle's function
/// and kind.  Deterministic given `rng`.  A non-null ctx.gov admits and
/// charges each move's whole-chain cost before drawing it, so a
/// work-limited run stops after the same move for any thread count and
/// returns the best order seen so far.  Each candidate is sized through
/// oracle.size_for_order over a core::InsertionSizer that lives for this
/// call, so a transposition recompacts only from the lowest level where
/// it differs from the last candidate sized.
AnnealResult simulated_annealing(CostOracle& oracle,
                                 std::vector<int> initial_order,
                                 const AnnealOptions& options,
                                 util::Xoshiro256& rng,
                                 const EvalContext& ctx = {});

}  // namespace ovo::reorder
