#include "bdd/dynamic_reorder.hpp"

#include <atomic>
#include <memory>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace ovo::bdd {

namespace {

/// Arenas below this size scan serially: the BFS frontier machinery and
/// atomic claims cost more than the walk they would parallelize.
constexpr std::size_t kParallelScanThreshold = std::size_t{1} << 14;

}  // namespace

std::size_t swap_adjacent_levels(Manager& m, int level) {
  return m.swap_adjacent_levels(level);
}

void move_level(Manager& m, int from_level, int to_level) {
  OVO_CHECK(from_level >= 0 && from_level < m.num_vars());
  OVO_CHECK(to_level >= 0 && to_level < m.num_vars());
  while (from_level < to_level) {
    m.swap_adjacent_levels(from_level);
    ++from_level;
  }
  while (from_level > to_level) {
    m.swap_adjacent_levels(from_level - 1);
    --from_level;
  }
}

std::uint64_t shared_reachable_size(const Manager& m,
                                    const std::vector<NodeId>& roots) {
  // Dense seen-bitvector over the arena: this runs once per sift swap, so
  // it must not allocate per-node like a hash set would.
  std::vector<std::uint8_t> seen(m.pool_size(), 0);
  std::uint64_t count = 0;
  std::vector<NodeId> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (m.is_terminal(u) || seen[u]) continue;
    seen[u] = 1;
    ++count;
    const Node un = m.node(u);
    stack.push_back(un.lo);
    stack.push_back(un.hi);
  }
  return count;
}

std::uint64_t shared_reachable_size(const Manager& m,
                                    const std::vector<NodeId>& roots,
                                    const par::ExecPolicy& exec) {
  const int threads = exec.resolved_threads();
  if (threads <= 1 || m.pool_size() < kParallelScanThreshold)
    return shared_reachable_size(m, roots);

  // Level-synchronous frontier BFS.  A node joins the next frontier only
  // if its claim byte flips 0 -> 1, so every node is counted exactly once
  // no matter which thread reaches it first; the count is the size of a
  // fixed set and therefore thread-count-independent.
  const std::unique_ptr<std::atomic<std::uint8_t>[]> claimed(
      new std::atomic<std::uint8_t>[m.pool_size()]());
  std::vector<NodeId> frontier;
  for (const NodeId u : roots)
    if (!m.is_terminal(u) &&
        claimed[u].exchange(1, std::memory_order_relaxed) == 0)
      frontier.push_back(u);
  std::uint64_t count = frontier.size();

  const int slots = par::ThreadPool::clamp_threads(threads);
  std::vector<std::vector<NodeId>> next(static_cast<std::size_t>(slots));
  while (!frontier.empty()) {
    const std::uint64_t grain =
        frontier.size() / (static_cast<std::uint64_t>(threads) * 4) + 1;
    par::ThreadPool::shared().parallel_for(
        std::uint64_t{0}, frontier.size(), grain, threads,
        [&](std::uint64_t i, int slot) {
          const Node un = m.node(frontier[static_cast<std::size_t>(i)]);
          for (const NodeId c : {un.lo, un.hi}) {
            if (m.is_terminal(c)) continue;
            if (claimed[c].exchange(1, std::memory_order_relaxed) == 0)
              next[static_cast<std::size_t>(slot)].push_back(c);
          }
        });
    frontier.clear();
    for (std::vector<NodeId>& v : next) {
      count += v.size();
      frontier.insert(frontier.end(), v.begin(), v.end());
      v.clear();
    }
  }
  return count;
}

SiftResult sift_in_place(Manager& m, const std::vector<NodeId>& roots,
                         int max_passes, const reorder::EvalContext& ctx) {
  const int n = m.num_vars();
  rt::Governor* gov = ctx.gov;
  const auto scan = [&]() {
    const std::uint64_t s = shared_reachable_size(m, roots, ctx.exec);
    if (ctx.stats != nullptr) {
      ++ctx.stats->queries;
      ++ctx.stats->evals;
      ctx.stats->ops.table_cells += s;
    }
    return s;
  };
  SiftResult r;
  r.initial_nodes = scan();
  r.final_nodes = r.initial_nodes;
  if (n < 2) return r;

  bool out_of_budget = false;
  for (int pass = 0; pass < max_passes && !out_of_budget; ++pass) {
    ++r.passes;
    bool improved = false;
    for (int var = 0; var < n; ++var) {
      const int start = m.level_of_var(var);
      std::uint64_t best_size = scan();
      int best_level = start;
      if (gov != nullptr) {
        // Admit the whole sweep (~2n swaps, each rescanning the live
        // DAG) at this serial point, so a work-limit trip always lands
        // between variables regardless of thread count.
        const std::uint64_t sweep_cost =
            2 * static_cast<std::uint64_t>(n) * best_size;
        if (gov->stopped() || !gov->admit_work(sweep_cost)) {
          out_of_budget = true;
          break;
        }
        gov->charge(sweep_cost);
      }
      bool hard_stop = false;
      int cur = start;
      // Sweep down to the bottom...
      for (int l = start; l + 1 < n; ++l) {
        m.swap_adjacent_levels(l);
        cur = l + 1;
        ++r.swaps;
        const std::uint64_t s = scan();
        if (s < best_size) {
          best_size = s;
          best_level = l + 1;
        }
        if (gov != nullptr && gov->poll()) {
          hard_stop = true;
          break;
        }
      }
      // ...then up to the top...
      if (!hard_stop) {
        for (int l = n - 1; l > 0; --l) {
          m.swap_adjacent_levels(l - 1);
          cur = l - 1;
          ++r.swaps;
          const std::uint64_t s = scan();
          if (s < best_size) {
            best_size = s;
            best_level = l - 1;
          }
          if (gov != nullptr && gov->poll()) {
            hard_stop = true;
            break;
          }
        }
      }
      // ...and settle at the best level seen — even on a hard stop, so
      // an interrupted sift still leaves the best arrangement found.
      move_level(m, cur, best_level);
      r.swaps += static_cast<std::uint64_t>(
          cur > best_level ? cur - best_level : best_level - cur);
      const std::uint64_t settled = scan();
      if (settled < r.final_nodes) {
        r.final_nodes = settled;
        improved = true;
      }
      if (hard_stop) {
        out_of_budget = true;
        break;
      }
    }
    if (!improved) break;
  }
  r.complete = !out_of_budget;
  r.final_nodes = scan();
  return r;
}

}  // namespace ovo::bdd
