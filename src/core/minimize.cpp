#include "core/minimize.hpp"

#include <algorithm>

#include "core/fs_star.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

MinimizeResult minimize_from_base(const PrefixTable& base, DiagramKind kind,
                                  const par::ExecPolicy& exec,
                                  std::uint64_t prune_upper_bound = 0,
                                  const FsCheckpointOptions* ckpt = nullptr) {
  MinimizeResult out;
  const util::Mask all = util::full_mask(base.n);
  std::vector<int> bottom_up;
  const PrefixTable final_table =
      fs_star_full(base, all, kind, &out.ops, &bottom_up, exec,
                   prune_upper_bound, ckpt);
  out.min_internal_nodes = final_table.mincost();
  out.order_root_first.assign(bottom_up.rbegin(), bottom_up.rend());
  return out;
}

}  // namespace

MinimizeResult fs_minimize(const tt::TruthTable& f, DiagramKind kind,
                           const par::ExecPolicy& exec,
                           std::uint64_t prune_upper_bound,
                           const FsCheckpointOptions* ckpt) {
  OVO_CHECK_MSG(kind != DiagramKind::kMtbdd,
                "fs_minimize: use fs_minimize_mtbdd for value tables");
  return minimize_from_base(initial_table(f), kind, exec, prune_upper_bound,
                            ckpt);
}

MinimizeResult fs_minimize_mtbdd(const std::vector<std::int64_t>& values,
                                 int n, const par::ExecPolicy& exec) {
  return minimize_from_base(initial_table_values(values, n),
                            DiagramKind::kMtbdd, exec);
}

namespace {

std::uint64_t chain_size_impl(const PrefixTable& base,
                              const std::vector<int>& order_root_first,
                              DiagramKind kind, PrefixTable& table,
                              PrefixTable& next, OpCounter* ops,
                              std::vector<std::uint64_t>* profile,
                              const rt::Governor* gov) {
  OVO_CHECK_MSG(static_cast<int>(order_root_first.size()) == base.n,
                "order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order_root_first),
                "order not a permutation");
  if (profile != nullptr) profile->assign(order_root_first.size(), 0);
  // Copy the base into the scratch table, reusing its cells capacity.
  table.n = base.n;
  table.vars = base.vars;
  table.num_terminals = base.num_terminals;
  table.next_id = base.next_id;
  table.cells.assign(base.cells.begin(), base.cells.end());
  // Compact bottom-up (last-read variable first), ping-ponging between
  // two tables so each step reuses the other's cells buffer instead of
  // allocating a fresh table per compaction.
  for (std::size_t j = order_root_first.size(); j-- > 0;) {
    if (gov != nullptr && gov->stopped()) return kAbortedSize;
    const std::uint64_t before = table.mincost();
    compact_into(next, table, order_root_first[j], kind, ops);
    std::swap(table, next);
    if (profile != nullptr)
      (*profile)[order_root_first.size() - 1 - j] = table.mincost() - before;
  }
  return table.mincost();
}

/// Below this many (Q_q, R_q) cells an InsertionSizer call sizes its
/// positions on the calling thread: the fan-out would cost more than it
/// saves.  On 4 vCPUs a full step at 4 threads ran 0.52x serial speed at
/// n = 10 (3·2^10 pair cells) and 1.39x at n = 11; the Q_0 pair is half
/// of a step's pair cells, so the fan-out never passes about 2x.
constexpr std::uint64_t kInsertionFanOutCells = std::uint64_t{1} << 13;

std::uint64_t chain_size(const PrefixTable& base,
                         const std::vector<int>& order_root_first,
                         DiagramKind kind, OpCounter* ops,
                         std::vector<std::uint64_t>* profile,
                         const rt::Governor* gov = nullptr) {
  PrefixTable cur, next;
  return chain_size_impl(base, order_root_first, kind, cur, next, ops,
                         profile, gov);
}

}  // namespace

std::uint64_t diagram_size_from_base(const PrefixTable& base,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind,
                                     PrefixTable& scratch_cur,
                                     PrefixTable& scratch_next,
                                     OpCounter* ops,
                                     const rt::Governor* gov) {
  return chain_size_impl(base, order_root_first, kind, scratch_cur,
                         scratch_next, ops, nullptr, gov);
}

InsertionSizer::InsertionSizer(const PrefixTable& base, DiagramKind kind)
    : base_(base),
      kind_(kind),
      last_rest_(static_cast<std::size_t>(base.n)),
      last_sizes_(static_cast<std::size_t>(base.n)) {
  OVO_CHECK_MSG(base.vars == 0,
                "InsertionSizer: base must be TABLE_{emptyset}");
}

bool InsertionSizer::extend(const std::vector<int>& bottom_up,
                            std::size_t len, OpCounter* ops,
                            const rt::Governor* gov) {
  std::size_t keep = 0;
  while (keep < len && keep < chain_vars_.size() &&
         chain_vars_[keep] == bottom_up[keep])
    ++keep;
  chain_vars_.resize(keep);
  if (chain_.size() <= len) chain_.resize(len + 1);
  for (std::size_t q = keep; q < len; ++q) {
    if (gov != nullptr && gov->stopped()) return false;
    compact_into(chain_[q + 1], level(q), bottom_up[q], kind_, ops);
    chain_vars_.push_back(bottom_up[q]);
  }
  return true;
}

std::uint64_t InsertionSizer::size(const std::vector<int>& order_root_first,
                                   OpCounter* ops, const rt::Governor* gov) {
  OVO_CHECK_MSG(static_cast<int>(order_root_first.size()) == base_.n,
                "order length mismatch");
  OVO_CHECK_MSG(util::is_permutation(order_root_first),
                "order not a permutation");
  const std::vector<int> bottom_up(order_root_first.rbegin(),
                                   order_root_first.rend());
  if (!extend(bottom_up, bottom_up.size(), ops, gov)) return kAbortedSize;
  return level(bottom_up.size()).mincost();
}

bool InsertionSizer::sizes(const std::vector<int>& rest_root_first, int var,
                           std::size_t positions,
                           const par::ExecPolicy& exec,
                           std::vector<std::uint64_t>* out, OpCounter* ops,
                           const rt::Governor* gov) {
  const std::size_t n = static_cast<std::size_t>(base_.n);
  OVO_CHECK_MSG(rest_root_first.size() + 1 == n && var >= 0 &&
                    var < base_.n && positions <= n,
                "InsertionSizer: rest must hold the other n - 1 variables");
  out->assign(n, kAbortedSize);
  const std::size_t v = static_cast<std::size_t>(var);
  if (last_rest_[v] == rest_root_first && !last_sizes_[v].empty()) {
    std::copy_n(last_sizes_[v].begin(), positions, out->begin());
    return true;
  }
  std::vector<int> bottom_up(rest_root_first.rbegin(),
                             rest_root_first.rend());
  bottom_up.push_back(var);
  OVO_CHECK_MSG(util::is_permutation(bottom_up),
                "InsertionSizer: rest and var must be a permutation");
  bottom_up.pop_back();
  if (positions == 0) return false;
  if (!extend(bottom_up, n - 1, ops, gov)) return false;

  // Root-first position p is bottom-up q = n - 1 - p, so the admitted
  // positions are the top ones, q >= lo.  Each pair stores mincost(Q_q)
  // and the width w_q adds on top of it, mincost(R_q) - mincost(Q_q).
  const std::size_t lo = n - positions;
  std::vector<std::uint64_t> q_cost(n), r_delta(n, 0);
  std::uint64_t pair_cells = 0;  // Q_q reads P_q, R_q half as many cells
  for (std::size_t q = lo; q < n; ++q)
    pair_cells += level(q).cells.size() * 3 / 2;
  int threads = par::ThreadPool::clamp_threads(exec.resolved_threads());
  if (pair_cells < kInsertionFanOutCells) threads = 1;
  if (slot_q_.size() < static_cast<std::size_t>(threads))
    slot_q_.resize(static_cast<std::size_t>(threads));
  std::vector<OpCounter> shards(static_cast<std::size_t>(threads));
  par::ThreadPool::shared().parallel_for(
      lo, n, 1, threads, gov != nullptr ? gov->stop_flag() : nullptr,
      [&](std::uint64_t q, int slot) {
        PrefixTable& qt = slot_q_[static_cast<std::size_t>(slot)];
        OpCounter* shard = &shards[static_cast<std::size_t>(slot)];
        compact_into(qt, level(q), var, kind_, shard);
        q_cost[q] = qt.mincost();
        if (q + 1 < n)
          r_delta[q] = compaction_width(qt, bottom_up[q], kind_, shard);
      });
  if (ops != nullptr)
    for (const OpCounter& s : shards) *ops += s;
  if (gov != nullptr && gov->stopped()) return false;

  std::uint64_t above = 0;
  for (std::size_t q = n; q-- > lo;) {
    above += r_delta[q];
    (*out)[n - 1 - q] = q_cost[q] + above;
  }
  if (positions == n) {
    last_rest_[v] = rest_root_first;
    last_sizes_[v] = *out;
  }
  return false;
}

std::uint64_t diagram_size_for_order(const tt::TruthTable& f,
                                     const std::vector<int>& order_root_first,
                                     DiagramKind kind, OpCounter* ops,
                                     const rt::Governor* gov) {
  return chain_size(initial_table(f), order_root_first, kind, ops, nullptr,
                    gov);
}

std::uint64_t diagram_size_for_order_values(
    const std::vector<std::int64_t>& values, int n,
    const std::vector<int>& order_root_first, OpCounter* ops,
    const rt::Governor* gov) {
  return chain_size(initial_table_values(values, n), order_root_first,
                    DiagramKind::kMtbdd, ops, nullptr, gov);
}

std::vector<std::uint64_t> level_profile_for_order(
    const tt::TruthTable& f, const std::vector<int>& order_root_first,
    DiagramKind kind) {
  std::vector<std::uint64_t> profile;
  chain_size(initial_table(f), order_root_first, kind, nullptr, &profile);
  return profile;
}

}  // namespace ovo::core
