#include "reorder/oracle.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace ovo::reorder {

namespace {

/// Bits needed to store one variable index of an n-variable order
/// (minimum 1, so n == 1 still gets a nonempty key).
int bits_for(int n) {
  int bits = 1;
  while ((1 << bits) < n) ++bits;
  return bits;
}

}  // namespace

CostOracle::CostOracle(const tt::TruthTable& f, core::DiagramKind kind)
    : kind_(kind), base_(core::initial_table(f)) {
  OVO_CHECK_MSG(kind != core::DiagramKind::kMtbdd,
                "CostOracle: use the value-table constructor for MTBDDs");
  const int bits = bits_for(base_.n);
  if (base_.n * bits <= 96) bits_per_var_ = bits;
}

CostOracle::CostOracle(const std::vector<std::int64_t>& values, int n)
    : kind_(core::DiagramKind::kMtbdd),
      base_(core::initial_table_values(values, n)) {
  const int bits = bits_for(base_.n);
  if (base_.n * bits <= 96) bits_per_var_ = bits;
}

bool CostOracle::pack_key(const std::vector<int>& order, std::uint64_t* a,
                          std::uint32_t* b) const {
  if (bits_per_var_ == 0) return false;
  unsigned __int128 acc = 0;
  for (const int v : order)
    acc = (acc << bits_per_var_) | static_cast<unsigned>(v);
  *a = static_cast<std::uint64_t>(acc);
  *b = static_cast<std::uint32_t>(acc >> 64);
  return true;
}

std::uint64_t CostOracle::size_for_order(
    const std::vector<int>& order_root_first, const rt::Governor* gov) {
  if (gov != nullptr && gov->stopped()) return core::kAbortedSize;
  ++stats_.queries;
  std::uint64_t a = 0;
  std::uint32_t b = 0;
  const bool keyed = pack_key(order_root_first, &a, &b);
  if (keyed) {
    if (const auto hit = memo_.lookup(a, b)) {
      ++stats_.memo_hits;
      return *hit;
    }
  }
  OVO_TRACE_SPAN_ARGS("oracle.eval", "oracle", 0, "vars",
                      base_.n, nullptr, 0);
  core::PrefixTable cur, next;
  const std::uint64_t s = core::diagram_size_from_base(
      base_, order_root_first, kind_, cur, next, &stats_.ops, gov);
  if (s == core::kAbortedSize) return s;  // hard stop: do not memoize
  ++stats_.evals;
  if (keyed && s <= std::numeric_limits<std::uint32_t>::max())
    memo_.store(a, b, static_cast<std::uint32_t>(s));
  return s;
}

std::uint64_t CostOracle::size_for_order(
    core::InsertionSizer& sizer, const std::vector<int>& order_root_first) {
  ++stats_.queries;
  ++stats_.evals;
  return sizer.size(order_root_first, &stats_.ops);
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

  // Serial memo pre-pass over the admitted prefix: resolve hits, collect
  // miss indices.  Serial so the hit/miss split — and therefore which
  // chains actually run — is identical for every thread count.
  std::vector<std::uint64_t> misses;
  for (std::uint64_t i = 0; i < count; ++i) {
    ++stats_.queries;
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    if (pack_key(candidates[static_cast<std::size_t>(i)], &a, &b)) {
      if (const auto hit = memo_.lookup(a, b)) {
        sizes[static_cast<std::size_t>(i)] = *hit;
        ++stats_.memo_hits;
        continue;
      }
    }
    misses.push_back(i);
  }

  // Fan the misses out, one candidate per chunk; per-slot scratch tables
  // and OpCounter shards, merged commutatively.
  struct Scratch {
    core::PrefixTable cur, next;
    core::OpCounter ops;
  };
  const int threads = ctx.exec.resolved_threads();
  std::vector<Scratch> scratch(
      static_cast<std::size_t>(par::ThreadPool::clamp_threads(threads)));
  par::ThreadPool::shared().parallel_for(
      std::uint64_t{0}, misses.size(), 1, threads,
      gov != nullptr ? gov->stop_flag() : nullptr,
      [&](std::uint64_t j, int slot) {
        OVO_TRACE_SPAN_ARGS("oracle.eval", "oracle", slot, "candidate",
                            misses[static_cast<std::size_t>(j)], nullptr, 0);
        Scratch& sc = scratch[static_cast<std::size_t>(slot)];
        const std::size_t i =
            static_cast<std::size_t>(misses[static_cast<std::size_t>(j)]);
        sizes[i] = core::diagram_size_from_base(base_, candidates[i], kind_,
                                                sc.cur, sc.next, &sc.ops, gov);
      });
  for (const Scratch& sc : scratch) stats_.ops += sc.ops;

  // Serial store pass: count and memoize the evaluations that completed.
  for (const std::uint64_t j : misses) {
    const std::size_t i = static_cast<std::size_t>(j);
    if (sizes[i] == core::kAbortedSize) continue;
    ++stats_.evals;
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    if (pack_key(candidates[i], &a, &b) &&
        sizes[i] <= std::numeric_limits<std::uint32_t>::max())
      memo_.store(a, b, static_cast<std::uint32_t>(sizes[i]));
  }
  return sizes;
}

}  // namespace ovo::reorder
