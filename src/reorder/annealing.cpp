#include "reorder/annealing.hpp"

#include <cmath>
#include <utility>

#include "core/minimize.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::reorder {

AnnealResult simulated_annealing(CostOracle& oracle, std::vector<int> order,
                                 const AnnealOptions& options,
                                 util::Xoshiro256& rng,
                                 const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OVO_CHECK_MSG(static_cast<int>(order.size()) == n,
                "annealing: order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order), "annealing: not a permutation");
  OVO_CHECK(options.initial_temperature > 0.0);
  OVO_CHECK(options.cooling > 0.0 && options.cooling < 1.0);
  rt::Governor* gov = ctx.gov;

  AnnealResult r;
  // The search's prefix chain over its latest candidate: a transposition
  // recompacts only from the lowest level where it differs from that
  // candidate.
  core::InsertionSizer sizer(oracle.base(), oracle.kind());
  if (gov != nullptr) gov->charge(oracle.chain_eval_cost());
  std::uint64_t current = oracle.size_for_order(sizer, order);
  ++r.orders_evaluated;
  r.internal_nodes = current;
  r.order_root_first = order;

  bool out_of_budget = false;
  double temperature = options.initial_temperature;
  for (int epoch = 0; epoch < options.epochs && !out_of_budget; ++epoch) {
    for (int move = 0; move < options.moves_per_epoch; ++move) {
      if (n < 2) break;
      // Admit the move's evaluation before drawing it, so the RNG
      // stream of a budget-tripped run is a prefix of the unbudgeted
      // one and the stopping move is deterministic.  The charge is a
      // whole chain's, however few levels the move recompacts.
      if (gov != nullptr && (gov->stopped() ||
                             !gov->admit_work(oracle.chain_eval_cost()))) {
        out_of_budget = true;
        break;
      }
      if (gov != nullptr) gov->charge(oracle.chain_eval_cost());
      const std::size_t i = rng.below(static_cast<std::uint64_t>(n));
      std::size_t j = rng.below(static_cast<std::uint64_t>(n));
      if (i == j) j = (j + 1) % static_cast<std::size_t>(n);
      std::swap(order[i], order[j]);
      const std::uint64_t cand = oracle.size_for_order(sizer, order, gov);
      if (cand == core::kAbortedSize) {  // hard stop mid-chain
        std::swap(order[i], order[j]);
        out_of_budget = true;
        break;
      }
      ++r.orders_evaluated;
      const double delta = static_cast<double>(cand) -
                           static_cast<double>(current);
      const bool accept =
          delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
      if (accept) {
        current = cand;
        ++r.moves_accepted;
        if (current < r.internal_nodes) {
          r.internal_nodes = current;
          r.order_root_first = order;
        }
      } else {
        std::swap(order[i], order[j]);  // revert
      }
    }
    temperature *= options.cooling;
  }
  return r;
}

}  // namespace ovo::reorder
