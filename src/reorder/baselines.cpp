#include "reorder/baselines.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/minimize.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::reorder {

namespace {

/// Candidates actually sized in a batch.
std::uint64_t evaluated_count(const std::vector<std::uint64_t>& sizes) {
  std::uint64_t c = 0;
  for (const std::uint64_t s : sizes)
    if (s != core::kAbortedSize) ++c;
  return c;
}

}  // namespace

OrderSearchResult brute_force_minimize(CostOracle& oracle,
                                       const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OVO_CHECK_MSG(n >= 1 && n <= kBruteForceMaxVars,
                "brute_force_minimize: n must be in [1,10]");
  std::uint64_t total = 1;
  for (int i = 2; i <= n; ++i) total *= static_cast<std::uint64_t>(i);

  // Chunked by lexicographic rank: each chunk unranks its first
  // permutation and advances with next_permutation.  Strict-< folds (both
  // inside a chunk and across chunks, which combine in rank order) keep
  // the first lexicographic minimizer, matching the serial sweep exactly.
  // Every chunk shares the oracle's base table and keeps its own scratch
  // pair.
  struct ChunkBest {
    std::uint64_t best_rank = 0;
    std::uint64_t best_size = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t worst_size = 0;
    core::OpCounter ops;
  };
  constexpr std::uint64_t kGrain = 1024;  // permutations per chunk
  const ChunkBest agg = par::ThreadPool::shared().parallel_reduce(
      std::uint64_t{0}, total, kGrain, ctx.exec.resolved_threads(),
      ChunkBest{},
      [&](std::uint64_t b, std::uint64_t e) {
        ChunkBest c;
        core::PrefixTable cur, next;
        std::vector<int> order = util::permutation_unrank(n, b);
        for (std::uint64_t r = b; r < e; ++r) {
          const std::uint64_t s = core::diagram_size_from_base(
              oracle.base(), order, oracle.kind(), cur, next, &c.ops);
          if (s < c.best_size) {
            c.best_size = s;
            c.best_rank = r;
          }
          c.worst_size = std::max(c.worst_size, s);
          std::next_permutation(order.begin(), order.end());
        }
        return c;
      },
      [](ChunkBest a, ChunkBest b) {
        if (b.best_size < a.best_size) {
          a.best_size = b.best_size;
          a.best_rank = b.best_rank;
        }
        a.worst_size = std::max(a.worst_size, b.worst_size);
        a.ops += b.ops;
        return a;
      });

  oracle.stats().queries += total;
  oracle.stats().evals += total;
  oracle.stats().ops += agg.ops;

  OrderSearchResult best;
  best.orders_evaluated = total;
  best.internal_nodes = agg.best_size;
  best.worst_internal_nodes = agg.worst_size;
  best.order_root_first = util::permutation_unrank(n, agg.best_rank);
  return best;
}

OrderSearchResult sift(CostOracle& oracle, std::vector<int> order,
                       int max_passes, const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OVO_CHECK_MSG(static_cast<int>(order.size()) == n, "sift: order length");
  OVO_CHECK_MSG(util::is_permutation(order), "sift: not a permutation");
  rt::Governor* gov = ctx.gov;
  OrderSearchResult r;
  // The search's prefix chain: its tables live for this call only.
  core::InsertionSizer sizer(oracle.base(), oracle.kind());
  // The initial evaluation is charged but never skipped: a governed sift
  // must know its incumbent's size to improve on it.
  if (gov != nullptr) gov->charge(oracle.chain_eval_cost());
  r.internal_nodes = oracle.size_for_order(sizer, order);
  ++r.orders_evaluated;
  bool out_of_budget = false;
  for (int pass = 0; pass < max_passes && !out_of_budget; ++pass) {
    bool improved = false;
    for (int v = 0; v < n; ++v) {
      // Size every insertion position of v from one prefix chain, then
      // pick the best in ascending position order (first best wins).
      const auto it = std::find(order.begin(), order.end(), v);
      std::vector<int> work = order;
      work.erase(work.begin() + (it - order.begin()));
      const std::vector<std::uint64_t> sizes =
          oracle.insertion_sizes(sizer, work, v, ctx);
      const std::uint64_t evaluated = evaluated_count(sizes);
      r.orders_evaluated += evaluated;
      std::size_t best_pos = 0;
      std::uint64_t best_size = r.internal_nodes;
      for (std::size_t p = 0; p < sizes.size(); ++p) {
        if (sizes[p] < best_size) {
          best_size = sizes[p];
          best_pos = p;
        }
      }
      if (best_size < r.internal_nodes) {
        work.insert(work.begin() + static_cast<std::ptrdiff_t>(best_pos), v);
        order = std::move(work);
        r.internal_nodes = best_size;
        improved = true;
      }
      if (gov != nullptr && (gov->stopped() || evaluated < sizes.size())) {
        out_of_budget = true;  // keep the incumbent found so far
        break;
      }
    }
    if (!improved) break;
  }
  r.order_root_first = std::move(order);
  return r;
}

OrderSearchResult window_permute(CostOracle& oracle, std::vector<int> order,
                                 int window, int max_passes,
                                 const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OVO_CHECK_MSG(static_cast<int>(order.size()) == n, "window: order length");
  OVO_CHECK_MSG(util::is_permutation(order), "window: not a permutation");
  OVO_CHECK_MSG(window >= 2 && window <= 5, "window: size must be in [2,5]");
  rt::Governor* gov = ctx.gov;
  OrderSearchResult r;
  // The search's prefix chain over its latest candidate: a permutation
  // of root-first positions s..s+window-1 recompacts only the levels
  // from the window's bottom up.
  core::InsertionSizer sizer(oracle.base(), oracle.kind());
  if (gov != nullptr) gov->charge(oracle.chain_eval_cost());
  r.internal_nodes = oracle.size_for_order(sizer, order);
  ++r.orders_evaluated;
  if (window > n) window = n;
  std::uint64_t perms = 1;
  for (int i = 2; i <= window; ++i) perms *= static_cast<std::uint64_t>(i);
  bool out_of_budget = false;
  for (int pass = 0; pass < max_passes && !out_of_budget; ++pass) {
    bool improved = false;
    for (int s = 0; s + window <= n; ++s) {
      // Size the window's permutations in lexicographic order, admitted
      // as whole chains at the window's serial point (first best wins).
      std::uint64_t admitted = perms;
      if (gov != nullptr)
        admitted = gov->admit_charge_batch(oracle.chain_eval_cost(), perms);
      std::vector<int> cand = order;
      std::sort(cand.begin() + s, cand.begin() + s + window);
      std::vector<int> best = order;
      std::uint64_t best_size = r.internal_nodes;
      std::uint64_t evaluated = 0;
      for (; evaluated < admitted; ++evaluated) {
        const std::uint64_t size = oracle.size_for_order(sizer, cand, gov);
        if (size == core::kAbortedSize) break;
        if (size < best_size) {
          best_size = size;
          best = cand;
        }
        std::next_permutation(cand.begin() + s, cand.begin() + s + window);
      }
      r.orders_evaluated += evaluated;
      if (best_size < r.internal_nodes) {
        order = std::move(best);
        r.internal_nodes = best_size;
        improved = true;
      }
      if (gov != nullptr && (gov->stopped() || evaluated < perms)) {
        out_of_budget = true;
        break;
      }
    }
    if (!improved) break;
  }
  r.order_root_first = std::move(order);
  return r;
}

OrderSearchResult random_restart(CostOracle& oracle, int restarts,
                                 util::Xoshiro256& rng,
                                 const EvalContext& ctx) {
  const int n = oracle.num_vars();
  OrderSearchResult best;
  best.internal_nodes = std::numeric_limits<std::uint64_t>::max();
  // Draw the orders serially first — the RNG stream (carried shuffle
  // state included) is exactly the serial implementation's — then fan the
  // size evaluations out over the pool.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<int>> cands;
  cands.reserve(static_cast<std::size_t>(restarts));
  for (int t = 0; t < restarts; ++t) {
    for (int i = n - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    cands.push_back(order);
  }
  const std::vector<std::uint64_t> sizes =
      oracle.sizes_for_orders(cands, ctx);
  best.orders_evaluated = evaluated_count(sizes);
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    if (sizes[t] < best.internal_nodes) {
      best.internal_nodes = sizes[t];
      best.order_root_first = cands[t];
    }
  }
  return best;
}

}  // namespace ovo::reorder
