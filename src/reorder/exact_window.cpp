#include "reorder/exact_window.hpp"

#include <algorithm>

#include "core/fs_star.hpp"
#include "core/minimize.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::reorder {

ExactWindowResult exact_window(CostOracle& oracle, std::vector<int> order,
                               int window, int max_passes,
                               const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OVO_CHECK_MSG(static_cast<int>(order.size()) == n,
                "exact_window: order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order),
                "exact_window: not a permutation");
  OVO_CHECK_MSG(window >= 2 && window <= 16, "exact_window: window in [2,16]");
  window = std::min(window, n);
  rt::Governor* gov = ctx.gov;

  ExactWindowResult r;
  // The search's prefix chain over its current order: each window reads
  // the table below it and its current cost from the chain, which
  // recompacts only from the lowest level an improvement changed.
  core::InsertionSizer sizer(oracle.base(), oracle.kind());
  if (gov != nullptr) gov->charge(oracle.chain_eval_cost());
  r.internal_nodes = oracle.size_for_order(sizer, order);

  bool out_of_budget = false;
  for (int pass = 0; pass < max_passes && !out_of_budget; ++pass) {
    ++r.passes;
    bool improved = false;
    for (int s = 0; s + window <= n; ++s) {
      // The window and the levels below it are charged one charge per
      // level, of the cells compacting that level from oracle.base()
      // reads, however few levels the chain recompacts, so a budget
      // trips at the same point whatever the chain reuses; the windowed
      // FS* run pre-admits each DP layer itself.  Either refusal aborts
      // the window before the order is touched, so the incumbent stays
      // consistent.
      if (gov != nullptr &&
          (gov->stopped() || !gov->admit_work(oracle.chain_eval_cost()))) {
        out_of_budget = true;
        break;
      }
      sizer.size(order, &r.ops);
      const std::size_t below = static_cast<std::size_t>(n - s - window);
      const std::size_t top = static_cast<std::size_t>(n - s);
      if (gov != nullptr)
        for (std::size_t q = 0; q < top; ++q)
          gov->charge(sizer.level(q).cells.size());
      // Exact optimum over the window's variable set (Lemma 3: levels
      // above the window are unaffected by the within-window order).
      util::Mask J = 0;
      for (int p = s; p < s + window; ++p)
        J |= util::Mask{1} << order[static_cast<std::size_t>(p)];
      core::FsStarResult dp =
          core::fs_star(sizer.level(below), J, window, oracle.kind(), &r.ops,
                        ctx.exec, gov);
      if (dp.completed_layers < window) {
        out_of_budget = true;  // budget can no longer fit a window DP
        break;
      }
      std::vector<int> block_bottom_up = core::reconstruct_block_order(dp, J);
      const std::uint64_t best = dp.tables.at(J).mincost();
      const std::uint64_t current = sizer.level(top).mincost();
      ++r.windows_optimized;
      if (best < current) {
        for (int i = 0; i < window; ++i)
          order[static_cast<std::size_t>(s + i)] =
              block_bottom_up[static_cast<std::size_t>(window - 1 - i)];
        r.internal_nodes -= current - best;
        improved = true;
      }
    }
    if (!improved) break;
  }
  r.complete = !out_of_budget;
#ifndef NDEBUG
  {
    // Verify the incremental bookkeeping against a fresh chain — outside
    // the oracle, so debug builds report the same stats as release ones.
    core::PrefixTable dcur, dnext;
    OVO_DCHECK(core::diagram_size_from_base(oracle.base(), order,
                                            oracle.kind(), dcur, dnext) ==
               r.internal_nodes);
  }
#endif
  r.order_root_first = std::move(order);
  return r;
}

}  // namespace ovo::reorder
