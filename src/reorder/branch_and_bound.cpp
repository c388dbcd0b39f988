#include "reorder/branch_and_bound.hpp"

#include <algorithm>
#include <unordered_map>

#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace ovo::reorder {

namespace {

using core::DiagramKind;
using core::PrefixTable;

class Search {
 public:
  /// States below this cell count expand serially: deep in the search the
  /// tables are tiny and dispatch would dominate the compactions.
  static constexpr std::uint64_t kParallelCellThreshold = 1ull << 12;

  Search(DiagramKind kind, std::uint64_t upper, const par::ExecPolicy& exec,
         rt::Governor* gov, core::OpCounter& ops)
      : kind_(kind), best_(upper), exec_(exec), gov_(gov), ops_(ops) {}

  void run(const PrefixTable& root, BnbResult* out) {
    chain_.clear();
    support_ = core::bound_support(root, kind_);
    dfs(root);
    out->internal_nodes = best_;
    out->order_root_first.assign(best_chain_.rbegin(), best_chain_.rend());
    out->states_expanded = expanded_;
    out->states_pruned_bound = pruned_bound_;
    out->states_pruned_dominance = pruned_dominance_;
    out->complete = !tripped_;
  }

  bool found() const { return !best_chain_.empty(); }

 private:
  void dfs(const PrefixTable& state) {
    ++expanded_;
    if (state.free_count() == 0) {
      if (state.mincost() < best_ || best_chain_.empty()) {
        best_ = state.mincost();
        best_chain_ = chain_;
      }
      return;
    }
    if (gov_ != nullptr) {
      // The DFS entry is a serial program point, so admitting this
      // state's child-generation cost here makes the trip state-exact
      // and thread-count-independent.
      const std::uint64_t gen_cost =
          static_cast<std::uint64_t>(state.free_count()) *
          state.cells.size();
      if (gov_->stopped() || !gov_->admit_work(gen_cost)) {
        tripped_ = true;
        return;
      }
      gov_->charge(gen_cost);
    }
    // Generate children (one per free variable), cheapest width first so
    // good incumbents appear early.  The compactions are independent, each
    // writing its own slot, so they fan out over the pool on states big
    // enough to amortize dispatch; the sort sees the same sequence either
    // way, so the visit order is thread-count-independent.
    struct Child {
      int var;
      PrefixTable table;
    };
    const std::vector<int> free_vars = util::bits_of(state.free_mask());
    std::vector<Child> children(free_vars.size());
    const int threads = state.cells.size() >= kParallelCellThreshold
                            ? exec_.resolved_threads()
                            : 1;
    par::ThreadPool::shared().parallel_for(
        std::uint64_t{0}, free_vars.size(), std::uint64_t{1}, threads,
        [&](std::uint64_t i, int) {
          const int v = free_vars[static_cast<std::size_t>(i)];
          children[static_cast<std::size_t>(i)] =
              Child{v, core::compact(state, v, kind_)};
        });
    // Recorded serially after the fan-out (one compaction over the
    // state's cells per free variable), so the ledger is identical at
    // every thread count.
    ops_.table_cells += free_vars.size() * state.cells.size();
    ops_.compactions += free_vars.size();
    std::sort(children.begin(), children.end(),
              [](const Child& a, const Child& b) {
                return a.table.mincost() < b.table.mincost();
              });
    for (Child& c : children) {
      if (tripped_) return;  // unwind without exploring further siblings
      const std::uint64_t cost = c.table.mincost();
      // Until an incumbent *order* exists the bound may stem from an
      // external estimate that some optimal chain meets with equality, so
      // prune strictly; afterwards prune ties too.
      const std::uint64_t projected =
          cost + core::completion_bound(c.table, c.table.free_mask(),
                                        support_, /*final_cells=*/1, kind_,
                                        bound_scratch_);
      if (best_chain_.empty() ? projected > best_ : projected >= best_) {
        ++pruned_bound_;
        continue;
      }
      const auto [it, inserted] = seen_.emplace(c.table.vars, cost);
      if (!inserted) {
        if (it->second <= cost) {
          ++pruned_dominance_;
          continue;
        }
        it->second = cost;
      }
      chain_.push_back(c.var);
      dfs(c.table);
      chain_.pop_back();
    }
  }

  DiagramKind kind_;
  std::uint64_t best_;
  par::ExecPolicy exec_;
  rt::Governor* gov_ = nullptr;
  core::OpCounter& ops_;
  util::Mask support_ = 0;  // core::bound_support of the root
  core::BoundScratch bound_scratch_;
  bool tripped_ = false;
  std::vector<int> chain_;        // bottom-up insertion order so far
  std::vector<int> best_chain_;
  std::unordered_map<util::Mask, std::uint64_t> seen_;
  std::uint64_t expanded_ = 0;
  std::uint64_t pruned_bound_ = 0;
  std::uint64_t pruned_dominance_ = 0;
};

}  // namespace

BnbResult branch_and_bound_minimize(CostOracle& oracle,
                                    std::uint64_t initial_upper_bound,
                                    const EvalContext& ctx) {
  OVO_CHECK_MSG(oracle.num_vars() >= 1,
                "branch_and_bound: need >= 1 variable");
  const PrefixTable& root = oracle.base();
  // A governed cold start seeds a greedy incumbent first, so even an
  // immediately tripped search has a valid ordering to return.
  std::vector<int> greedy_chain;
  std::uint64_t greedy_cost = ~std::uint64_t{0};
  if (ctx.gov != nullptr && initial_upper_bound == ~std::uint64_t{0}) {
    PrefixTable greedy = root;
    core::greedy_complete(greedy, oracle.kind(), &greedy_chain);
    greedy_cost = greedy.mincost();
    initial_upper_bound = greedy_cost;
  }

  BnbResult out;
  Search search(oracle.kind(), initial_upper_bound, ctx.exec, ctx.gov,
                oracle.stats().ops);
  search.run(root, &out);
  if (!search.found() && !greedy_chain.empty()) {
    // The search never reached a leaf better than the greedy incumbent
    // (tripped early, or proved it unbeatable): fall back to it.
    out.internal_nodes = greedy_cost;
    out.order_root_first.assign(greedy_chain.rbegin(), greedy_chain.rend());
  }
  OVO_CHECK_MSG(!out.order_root_first.empty(),
                "branch_and_bound: initial upper bound excluded all "
                "solutions");
  return out;
}

}  // namespace ovo::reorder
