#include "reorder/oracle.hpp"

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace ovo::reorder {

CostOracle::CostOracle(const tt::TruthTable& f, core::DiagramKind kind)
    : kind_(kind), base_(core::initial_table(f)) {
  OVO_CHECK_MSG(kind != core::DiagramKind::kMtbdd,
                "CostOracle: use the value-table constructor for MTBDDs");
}

CostOracle::CostOracle(const std::vector<std::int64_t>& values, int n)
    : kind_(core::DiagramKind::kMtbdd),
      base_(core::initial_table_values(values, n)) {}

std::uint64_t CostOracle::size_for_order(
    core::InsertionSizer& sizer, const std::vector<int>& order_root_first,
    const rt::Governor* gov) {
  if (gov != nullptr && gov->stopped()) return core::kAbortedSize;
  ++stats_.queries;
  const std::uint64_t s = sizer.size(order_root_first, &stats_.ops, gov);
  if (s != core::kAbortedSize) ++stats_.evals;
  return s;
}

std::vector<std::uint64_t> CostOracle::insertion_sizes(
    core::InsertionSizer& sizer, const std::vector<int>& rest_root_first,
    int var, const EvalContext& ctx) {
  const std::uint64_t n = rest_root_first.size() + 1;
  std::uint64_t count = n;
  if (ctx.gov != nullptr)
    count = ctx.gov->admit_charge_batch(chain_eval_cost(), count);
  stats_.queries += count;
  OVO_TRACE_SPAN_ARGS("oracle.insertions", "oracle", 0, "var", var,
                      "positions", static_cast<std::int64_t>(count));
  std::vector<std::uint64_t> sizes;
  const bool repeat =
      sizer.sizes(rest_root_first, var, static_cast<std::size_t>(count),
                  ctx.exec, &sizes, &stats_.ops, ctx.gov);
  if (count > 0 && sizes.front() != core::kAbortedSize)
    (repeat ? stats_.memo_hits : stats_.evals) += count;
  return sizes;
}

std::vector<std::uint64_t> CostOracle::sizes_for_orders(
    const std::vector<std::vector<int>>& candidates, const EvalContext& ctx) {
  std::vector<std::uint64_t> sizes(candidates.size(), core::kAbortedSize);
  std::uint64_t count = candidates.size();
  rt::Governor* gov = ctx.gov;
  if (gov != nullptr)
    count = gov->admit_charge_batch(chain_eval_cost(), count);
  stats_.queries += count;

  // One candidate per chunk; per-slot scratch tables and OpCounter
  // shards, merged commutatively.
  struct Scratch {
    core::PrefixTable cur, next;
    core::OpCounter ops;
  };
  const int threads = ctx.exec.resolved_threads();
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(par::ThreadPool::clamp_threads(threads)));
  par::ThreadPool::shared().parallel_for(
      std::uint64_t{0}, count, 1, threads,
      gov != nullptr ? gov->stop_flag() : nullptr,
      [&](std::uint64_t i, int slot) {
        OVO_TRACE_SPAN_ARGS("oracle.eval", "oracle", slot, "candidate", i,
                            nullptr, 0);
        Scratch& sc = scratch[static_cast<std::size_t>(slot)];
        sizes[i] = core::diagram_size_from_base(base_, candidates[i], kind_,
                                                sc.cur, sc.next, &sc.ops, gov);
      });
  for (const Scratch& sc : scratch) stats_.ops += sc.ops;
  for (std::uint64_t i = 0; i < count; ++i)
    if (sizes[i] != core::kAbortedSize) ++stats_.evals;
  return sizes;
}

}  // namespace ovo::reorder
