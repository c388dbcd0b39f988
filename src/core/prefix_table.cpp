#include "core/prefix_table.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "ds/hash.hpp"
#include "rt/fault.hpp"
#include "util/check.hpp"

namespace ovo::core {

namespace {

/// Interning tables are sized for the incoming value count but clamped so
/// one call never pre-commits more than ~64K entries up front (the table
/// still grows on demand past the clamp).
std::size_t dedup_reserve(std::uint64_t entries) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 16;
  return static_cast<std::size_t>(std::min(entries, kCap));
}

/// COMPACT's pair table, (u0, u1) -> new id: open addressing with linear
/// probing over a power-of-two slot count, key pack_pair(u0, u1), one per
/// thread.  Both ids of a pair lie below the input's next_id, so a sweep
/// of `half` pairs meets at most min(half, next_id^2) distinct ones; each
/// call readies enough slots for that bound at load <= 0.7, and the table
/// never fills mid-sweep.  The arrays are kept across calls and only
/// grow: a thread retains 12 bytes per slot of the largest bound it has
/// used.  A call never needs more slots than its input has cells (or
/// 16), so that is at most 3x the bytes of the largest table the thread
/// compacted.
struct PairTable {
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> ids;  ///< kEmpty marks a free slot

  /// Clears the slots `bound` distinct pairs need and returns their mask.
  std::uint64_t reset(std::uint64_t bound) {
    std::uint64_t slots = 16;
    while (bound * 10 > slots * 7) slots *= 2;
    if (slots > ids.size()) {
      keys.resize(slots);
      ids.resize(slots);
    }
    std::fill_n(ids.data(), slots, kEmpty);
    return slots - 1;
  }
};

thread_local PairTable t_pairs;

/// The id limit of an unbounded sweep.  Ids are u32 and the pair table
/// reserves this one to mark a free slot, so no sweep reaches it.
constexpr std::uint32_t kNoLimit = PairTable::kEmpty;

/// What one sweep counted; the rest of the ledger follows from these.
struct Sweep {
  std::uint32_t next_id;  ///< first id the sweep did not hand out
  std::uint64_t pairs;    ///< pairs read: all of them unless it stopped
  std::uint64_t lookups;  ///< pairs looked up (cells not passed through)
  std::uint64_t probes;   ///< slots those lookups inspected
};

/// The COMPACT loop.  New cell b pairs input cells idx0 (b with a 0
/// spliced in at bit `pos`, var's rank among the free variables) and
/// idx0 | 2^pos.  A pass-through pair (ZDD: u1 == 0, else u0 == u1)
/// keeps u0; any other pair takes its id from the pair table, new ids
/// numbered in sweep order from `next_id`.  The sweep stops as soon as
/// its next id reaches `limit` — one compare per new id, none per cell —
/// and before reading a cell when `next_id` is there already.  kStore =
/// false only counts (compaction_width).  `In` is the input's cell type:
/// u32 for a PrefixTable, u8, u16 or u32 for a NarrowTable.
template <bool kZdd, bool kStore, typename In>
Sweep sweep(const In* in, std::uint64_t half, int pos, std::uint32_t next_id,
            std::uint32_t limit, std::uint32_t* out) {
  // The compaction's one allocation event, fired whether the sweep runs,
  // stops or never starts and whether or not the pair table grows, so a
  // fault schedule sees one kAlloc per compaction whatever ran on this
  // thread before.
  rt::fault_alloc_hook();
  if (next_id >= limit) return {next_id, 0, 0, 0};
  PairTable& table = t_pairs;
  const std::uint64_t mask =
      table.reset(std::min(half, std::uint64_t{next_id} * next_id));
  std::uint64_t* const keys = table.keys.data();
  std::uint32_t* const ids = table.ids.data();
  const std::uint64_t low = (std::uint64_t{1} << pos) - 1;
  const std::uint64_t step = std::uint64_t{1} << pos;
  std::uint64_t lookups = 0;
  std::uint64_t probes = 0;
  for (std::uint64_t b = 0; b < half; ++b) {
    const std::uint64_t idx0 = ((b & ~low) << 1) | (b & low);
    const std::uint32_t u0 = in[idx0];
    const std::uint32_t u1 = in[idx0 | step];
    std::uint32_t id = u0;
    if (kZdd ? u1 != 0 : u0 != u1) {
      const std::uint64_t key = ds::pack_pair(u0, u1);
      std::uint64_t s = ds::mix64(key) & mask;
      ++lookups;
      ++probes;
      while ((id = ids[s]) != PairTable::kEmpty && keys[s] != key) {
        s = (s + 1) & mask;
        ++probes;
      }
      if (id == PairTable::kEmpty) {
        keys[s] = key;
        ids[s] = id = next_id;
        if (++next_id == limit) return {next_id, b + 1, lookups, probes};
      }
    }
    if constexpr (kStore) out[b] = id;
  }
  return {next_id, half, lookups, probes};
}

/// Returns f(data) over a table's cells at their stored type.
template <typename F>
decltype(auto) with_cells(const PrefixTable& t, F&& f) {
  return f(t.cells.data());
}
template <typename F>
decltype(auto) with_cells(const NarrowTable& t, F&& f) {
  return t.cells.visit([&](const auto* data, std::size_t) { return f(data); });
}

/// Checks that `var` is free in `t`, then sweeps `t` with the kind's
/// pass-through rule.  var's bit in the dense cell index is its rank among
/// t's free variables (ascending index).
template <bool kStore, typename Table>
Sweep sweep_table(const Table& t, int var, DiagramKind kind,
                  std::uint32_t limit, std::uint32_t* out) {
  OVO_CHECK(var >= 0 && var < t.n);
  const util::Mask bit = util::Mask{1} << var;
  OVO_CHECK_MSG((t.vars & bit) == 0, "compact: variable already in prefix");
  const int pos = util::popcount(util::full_mask(t.n) & ~t.vars & (bit - 1));
  const std::uint64_t half = t.cells.size() >> 1;
  return with_cells(t, [&](const auto* in) {
    return kind == DiagramKind::kZdd
               ? sweep<true, kStore>(in, half, pos, t.next_id, limit, out)
               : sweep<false, kStore>(in, half, pos, t.next_id, limit, out);
  });
}

/// Adds one compaction of `t` to `ops`: all of t's cells and one
/// compaction however far the sweep got, the cells it did not read as
/// cut, each new id one insert, every other lookup a hit, and the
/// sized-to-fit table never resizes.
template <typename Table>
void add_counts(OpCounter* ops, const Table& t, const Sweep& s) {
  if (ops == nullptr) return;
  const std::uint64_t inserts = s.next_id - t.next_id;
  ops->table_cells += t.cells.size();
  ops->cut_cells += t.cells.size() - 2 * s.pairs;
  ++ops->compactions;
  ops->dedup.lookups += s.lookups;
  ops->dedup.hits += s.lookups - inserts;
  ops->dedup.inserts += inserts;
  ops->dedup.probes += s.probes;
}

/// The compaction of `t` by `var` into `out`, bounded by `id_limit`
/// (compact_into_bounded's contract, for either table type).
template <typename Table>
bool compact_table(PrefixTable& out, const Table& t, int var,
                   DiagramKind kind, std::uint32_t id_limit, OpCounter* ops) {
  out.cells.resize(t.cells.size() >> 1);
  const Sweep s = sweep_table<true>(t, var, kind, id_limit, out.cells.data());
  out.n = t.n;
  out.vars = t.vars | (util::Mask{1} << var);
  out.num_terminals = t.num_terminals;
  out.next_id = s.next_id;
  add_counts(ops, t, s);
  return s.next_id < id_limit;
}

}  // namespace

PrefixTable initial_table(const tt::TruthTable& f) {
  PrefixTable t;
  t.n = f.num_vars();
  t.vars = 0;
  t.num_terminals = 2;
  t.next_id = 2;
  t.cells.resize(f.size());
  for (std::uint64_t a = 0; a < f.size(); ++a)
    t.cells[a] = f.get(a) ? 1u : 0u;
  return t;
}

PrefixTable initial_table_values(const std::vector<std::int64_t>& values,
                                 int n,
                                 std::vector<std::int64_t>* terminal_values) {
  OVO_CHECK_MSG(n >= 0 && n <= tt::TruthTable::kMaxVars,
                "initial_table_values: n out of range");
  OVO_CHECK_MSG(values.size() == (std::uint64_t{1} << n),
                "initial_table_values: size must be 2^n");
  PrefixTable t;
  t.n = n;
  t.vars = 0;
  t.cells.resize(values.size());
  // Interns values in first-appearance order; key = the value's bit pattern.
  ds::UniqueTable intern(dedup_reserve(values.size()));
  std::vector<std::int64_t> interned;
  for (std::uint64_t a = 0; a < values.size(); ++a) {
    const auto [id, inserted] = intern.find_or_insert(
        static_cast<std::uint64_t>(values[a]),
        static_cast<std::uint32_t>(intern.size()));
    if (inserted) interned.push_back(values[a]);
    t.cells[a] = id;
  }
  t.num_terminals = static_cast<std::uint32_t>(intern.size());
  t.next_id = t.num_terminals;
  if (terminal_values != nullptr) *terminal_values = std::move(interned);
  return t;
}

PrefixTable compact(const PrefixTable& t, int var, DiagramKind kind,
                    OpCounter* ops, rt::Governor* gov) {
  PrefixTable out;
  compact_into(out, t, var, kind, ops, gov);
  return out;
}

void compact_into(PrefixTable& out, const PrefixTable& t, int var,
                  DiagramKind kind, OpCounter* ops, rt::Governor* gov) {
  if (gov != nullptr) gov->charge(t.cells.size());
  compact_into_bounded(out, t, var, kind, kNoLimit, ops);
}

bool compact_into_bounded(PrefixTable& out, const PrefixTable& t, int var,
                          DiagramKind kind, std::uint32_t id_limit,
                          OpCounter* ops) {
  OVO_DCHECK(&out != &t);
  return compact_table(out, t, var, kind, id_limit, ops);
}

void compact_into(PrefixTable& out, const NarrowTable& t, int var,
                  DiagramKind kind, OpCounter* ops) {
  compact_table(out, t, var, kind, kNoLimit, ops);
}

bool compact_into_bounded(PrefixTable& out, const NarrowTable& t, int var,
                          DiagramKind kind, std::uint32_t id_limit,
                          OpCounter* ops) {
  return compact_table(out, t, var, kind, id_limit, ops);
}

void NarrowCells::resize(std::size_t count, int width) {
  OVO_DCHECK(width == 1 || width == 2 || width == 4);
  if (width == 1)
    cells_.emplace<std::vector<std::uint8_t>>(count);
  else if (width == 2)
    cells_.emplace<std::vector<std::uint16_t>>(count);
  else
    cells_.emplace<std::vector<std::uint32_t>>(count);
}

PrefixTable NarrowTable::widen() const {
  PrefixTable t;
  t.n = n;
  t.vars = vars;
  t.num_terminals = num_terminals;
  t.next_id = next_id;
  cells.visit([&](const auto* data, std::size_t size) {
    t.cells.assign(data, data + size);
  });
  return t;
}

void narrow_into(NarrowTable& out, const PrefixTable& t) {
  out.n = t.n;
  out.vars = t.vars;
  out.num_terminals = t.num_terminals;
  out.next_id = t.next_id;
  out.cells.resize(t.cells.size(), cell_width(t.next_id));
  out.cells.visit([&](auto* data, std::size_t size) {
    using Cell = std::remove_pointer_t<decltype(data)>;
    for (std::size_t i = 0; i < size; ++i)
      data[i] = static_cast<Cell>(t.cells[i]);
  });
}

NarrowTable narrow(const PrefixTable& t) {
  NarrowTable out;
  narrow_into(out, t);
  return out;
}

std::uint64_t compaction_width(const PrefixTable& t, int var,
                               DiagramKind kind, OpCounter* ops) {
  const Sweep s = sweep_table<false>(t, var, kind, kNoLimit, nullptr);
  add_counts(ops, t, s);
  return s.next_id - t.next_id;
}

util::Mask bound_support(const PrefixTable& base, DiagramKind kind) {
  util::Mask support = 0;
  const std::vector<int> free_vars = util::bits_of(base.free_mask());
  for (std::size_t p = 0; p < free_vars.size(); ++p) {
    const std::size_t stride = std::size_t{1} << p;
    bool depends = false;
    for (std::size_t lo = 0; lo < base.cells.size() && !depends;
         lo += 2 * stride) {
      for (std::size_t i = lo; i < lo + stride; ++i) {
        if (kind == DiagramKind::kZdd
                ? base.cells[i + stride] != 0
                : base.cells[i] != base.cells[i + stride]) {
          depends = true;
          break;
        }
      }
    }
    if (depends) support |= util::Mask{1} << free_vars[p];
  }
  return support;
}

std::uint64_t completion_bound(const PrefixTable& t, util::Mask remaining,
                               util::Mask support, std::uint64_t final_cells,
                               DiagramKind kind, BoundScratch& scratch) {
  // d: the distinct ids among t's cells, id 0 left out for ZDDs.
  if (scratch.stamp.size() < t.next_id)
    scratch.stamp.resize(static_cast<std::size_t>(t.next_id), 0);
  if (++scratch.gen == 0) {  // generation wrap: clear once, restart at 1
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.gen = 1;
  }
  if (kind == DiagramKind::kZdd) scratch.stamp[0] = scratch.gen;
  std::uint64_t d = 0;
  for (const std::uint32_t id : t.cells) {
    if (scratch.stamp[id] != scratch.gen) {
      scratch.stamp[id] = scratch.gen;
      ++d;
    }
  }
  const std::uint64_t sinks = d > final_cells ? d - final_cells : 0;
  const std::uint64_t dep =
      static_cast<std::uint64_t>(util::popcount(support & remaining));
  return std::max(sinks, dep);
}

void greedy_complete(PrefixTable& t, DiagramKind kind,
                     std::vector<int>* order_bottom_up, OpCounter* ops) {
  while (t.free_count() > 0) {
    std::uint64_t best_width = ~std::uint64_t{0};
    int best_var = -1;
    util::for_each_bit(t.free_mask(), [&](int v) {
      const std::uint64_t w = compaction_width(t, v, kind, ops);
      if (w < best_width) {
        best_width = w;
        best_var = v;
      }
    });
    t = compact(t, best_var, kind, ops);
    order_bottom_up->push_back(best_var);
  }
}

}  // namespace ovo::core
