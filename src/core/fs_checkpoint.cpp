#include "core/fs_checkpoint.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/combinatorics.hpp"

namespace ovo::core {

namespace {

using rt::ByteReader;
using rt::ByteWriter;
using rt::CheckpointError;
using rt::CheckpointErrorKind;

[[noreturn]] void malformed(const char* what) {
  throw CheckpointError(CheckpointErrorKind::kMalformed, what);
}

/// FNV-1a over a little-endian integer of `bytes` bytes.
void fnv_int(std::uint64_t& h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
}

std::uint64_t base_content_hash(const PrefixTable& base) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  fnv_int(h, static_cast<std::uint64_t>(base.n), 4);
  fnv_int(h, base.vars, 8);
  fnv_int(h, base.num_terminals, 4);
  fnv_int(h, base.next_id, 4);
  for (const std::uint32_t cell : base.cells) fnv_int(h, cell, 4);
  return h;
}

/// Every metric in ascending dotted-name order: the entry order of a
/// keyed counter section.
const std::vector<obs::Metric>& metrics_by_name() {
  static const std::vector<obs::Metric> order = [] {
    std::vector<obs::Metric> v;
    for (std::size_t i = 0; i < obs::kMetricCount; ++i)
      v.push_back(static_cast<obs::Metric>(i));
    std::sort(v.begin(), v.end(), [](obs::Metric a, obs::Metric b) {
      return std::strcmp(obs::metric_name(a), obs::metric_name(b)) < 0;
    });
    return v;
  }();
  return order;
}

/// One keyed section: a u32 count, then (name, u64 bits) for each
/// nonzero slot of `l`'s pinned projection, by ascending name.  Measured
/// slots are never written, so execution detail cannot change the bytes.
void encode_counters(ByteWriter& w, const obs::Ledger& l) {
  const obs::Ledger pinned = l.pinned();
  std::uint32_t count = 0;
  for (const obs::Metric m : metrics_by_name()) count += pinned.get(m) != 0;
  w.u32(count);
  for (const obs::Metric m : metrics_by_name()) {
    if (pinned.get(m) == 0) continue;
    w.str(obs::metric_name(m));
    w.u64(pinned.get(m));
  }
}

obs::Ledger decode_counters(ByteReader& r) {
  const std::uint32_t count = r.u32();
  if (count > obs::kMetricCount)
    malformed("counter section has more entries than the metric registry");
  const std::vector<obs::Metric>& order = metrics_by_name();
  obs::Ledger l;
  std::string prev;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    if (i > 0 && name <= prev)
      malformed("counter names not strictly ascending");
    const auto it = std::lower_bound(
        order.begin(), order.end(), name,
        [](obs::Metric m, const std::string& n) {
          return n.compare(obs::metric_name(m)) > 0;
        });
    if (it == order.end() || name != obs::metric_name(*it))
      malformed("counter name not in the metric registry");
    if (!obs::is_pinned(*it))
      malformed("counter section stores a measured metric");
    const std::uint64_t bits = r.u64();
    if (bits == 0) malformed("counter section stores a zero value");
    l.set(*it, bits);
    prev = name;
  }
  return l;
}

bool strictly_ascending(const std::vector<FsState>& states) {
  return std::adjacent_find(states.begin(), states.end(),
                            [](const FsState& a, const FsState& b) {
                              return a.mask >= b.mask;
                            }) == states.end();
}

util::Mask spread_dense(util::Mask dense, const std::vector<int>& j_vars) {
  util::Mask K = 0;
  util::for_each_bit(dense, [&](int b) {
    K |= util::Mask{1} << j_vars[static_cast<std::size_t>(b)];
  });
  return K;
}

}  // namespace

FsFingerprint fs_fingerprint(const PrefixTable& base, util::Mask J,
                             int stop_k, DiagramKind kind,
                             par::PruneMode prune) {
  FsFingerprint fp;
  fp.base_hash = base_content_hash(base);
  fp.n = static_cast<std::uint32_t>(base.n);
  fp.prefix_vars = base.vars;
  fp.block = J;
  fp.stop_k = static_cast<std::uint32_t>(stop_k);
  fp.kind = static_cast<std::uint8_t>(kind);
  fp.prune = static_cast<std::uint8_t>(prune);
  return fp;
}

std::uint64_t snapshot_payload_bound(std::uint64_t tables,
                                     std::uint64_t cell_bytes,
                                     std::uint64_t states,
                                     std::uint64_t seed_order_len) {
  // Fixed fields, at most 64 classes, and both counter sections (names
  // stay under 32 bytes).
  constexpr std::uint64_t kScalarBytes =
      128 + 8 * 64 + 2 * 44 * obs::kMetricCount;
  return kScalarBytes + 4 * seed_order_len + (8 + 4 + 8) * tables +
         cell_bytes + (8 + 8 + 8) * states;
}

void encode_snapshot_into(const FsSnapshotView& view, ByteWriter& w) {
  OVO_CHECK(view.fingerprint != nullptr && view.dense != nullptr &&
            view.tables != nullptr && view.classes != nullptr &&
            view.states != nullptr && view.counters != nullptr &&
            view.seed_counters != nullptr);
  OVO_CHECK(view.dense->size() == view.tables->size());
  OVO_DCHECK(strictly_ascending(*view.states));
  static const std::vector<int> kNoOrder;
  const std::vector<int>& seed_order =
      view.seed_order != nullptr ? *view.seed_order : kNoOrder;

  // Size the payload once: the layer's cells and the records are all
  // but a few hundred bytes of it, and one reservation keeps the encode
  // a single pass over memory with no regrowth copies.  A writer reused
  // across fences already holds the capacity and reserves nothing.
  std::uint64_t cell_bytes = 0;
  for (const NarrowTable& t : *view.tables) cell_bytes += t.cells.bytes();
  w.reserve(w.size() + static_cast<std::size_t>(snapshot_payload_bound(
                           view.tables->size(), cell_bytes,
                           view.states->size(), seed_order.size())));

  const FsFingerprint& fp = *view.fingerprint;
  w.u64(fp.base_hash);
  w.u32(fp.n);
  w.u64(fp.prefix_vars);
  w.u64(fp.block);
  w.u32(fp.stop_k);
  w.u8(fp.kind);
  w.u8(fp.prune);
  w.u32(view.num_terminals);
  w.u32(static_cast<std::uint32_t>(view.layer));
  w.u64(view.certified_lower_bound);
  w.u64(seed_order.size());
  for (const int v : seed_order) w.u32(static_cast<std::uint32_t>(v));
  encode_counters(w, *view.counters);
  encode_counters(w, *view.seed_counters);
  w.u64(view.classes->size());
  for (const util::Mask c : *view.classes) w.u64(c);

  // Layer tables, already in colex (ascending-mask) order in the engine,
  // each table's cells at its width.
  w.u64(view.dense->size());
  for (std::size_t i = 0; i < view.dense->size(); ++i) {
    const NarrowTable& t = (*view.tables)[i];
    OVO_DCHECK(t.cells.width() == cell_width(t.next_id));
    w.u64((*view.dense)[i]);
    w.u32(t.next_id);
    w.u64(t.cells.size());
    t.cells.visit([&](const auto* cells, std::size_t size) {
      w.uint_array(cells, size);
    });
  }

  // The records, in their stored ascending-mask order.
  w.u64(view.states->size());
  for (const FsState& st : *view.states) {
    w.u64(st.mask);
    w.u64(st.ties);
    w.u64(st.mincost);
  }
}

std::vector<std::uint8_t> encode_snapshot(const FsSnapshotView& view) {
  ByteWriter w;
  encode_snapshot_into(view, w);
  return w.take();
}

FsStarSnapshot decode_snapshot(const std::uint8_t* data, std::size_t len) {
  ByteReader r(data, len);
  FsStarSnapshot s;
  FsFingerprint& fp = s.fingerprint;
  fp.base_hash = r.u64();
  fp.n = r.u32();
  fp.prefix_vars = r.u64();
  fp.block = r.u64();
  fp.stop_k = r.u32();
  fp.kind = r.u8();
  fp.prune = r.u8();
  if (fp.n < 1 || fp.n > 64) malformed("fingerprint n outside [1, 64]");
  const util::Mask universe = util::full_mask(static_cast<int>(fp.n));
  if ((fp.prefix_vars & ~universe) != 0)
    malformed("fingerprint prefix outside the variable universe");
  if ((fp.block & ~universe) != 0)
    malformed("fingerprint block outside the variable universe");
  if ((fp.prefix_vars & fp.block) != 0)
    malformed("fingerprint block overlaps the prefix");
  const int j_size = util::popcount(fp.block);
  if (fp.stop_k > static_cast<std::uint32_t>(j_size))
    malformed("fingerprint stop layer exceeds the block size");
  if (fp.kind > 2) malformed("fingerprint diagram kind out of range");
  if (fp.prune > 1) malformed("fingerprint prune mode out of range");

  s.num_terminals = r.u32();
  if (s.num_terminals < 1) malformed("num_terminals must be >= 1");
  const std::uint32_t layer = r.u32();
  if (layer > fp.stop_k) malformed("snapshot layer exceeds the stop layer");
  s.layer = static_cast<int>(layer);
  s.certified_lower_bound = r.u64();
  const std::uint64_t seed_len = r.array_count(4);
  if (seed_len > 64) malformed("seed order longer than 64 variables");
  s.seed_order.reserve(static_cast<std::size_t>(seed_len));
  util::Mask seeded = 0;
  for (std::uint64_t i = 0; i < seed_len; ++i) {
    const std::uint32_t v = r.u32();
    if (v >= fp.n) malformed("seed order variable out of range");
    seeded |= util::Mask{1} << v;
    s.seed_order.push_back(static_cast<int>(v));
  }
  // A resumed pruned run may return its seed order as the answer.
  if (seed_len != 0 &&
      (seeded != fp.block || seed_len != static_cast<std::uint64_t>(j_size)))
    malformed("seed order is not a permutation of the block");
  s.counters = decode_counters(r);
  s.seed_counters = decode_counters(r);

  // J's symmetry classes: a partition of the block, ascending by lowest
  // member, and all singletons on a stop-early run.
  const std::uint64_t n_classes = r.array_count(8);
  if (n_classes > static_cast<std::uint64_t>(j_size))
    malformed("more symmetry classes than block variables");
  util::Mask covered = 0;
  std::vector<int> class_sizes;
  for (std::uint64_t i = 0; i < n_classes; ++i) {
    const util::Mask c = r.u64();
    if (c == 0 || (c & ~fp.block) != 0 || (c & covered) != 0)
      malformed("symmetry class empty, outside the block or overlapping");
    if (!s.classes.empty() &&
        util::lowest_bit(c) <= util::lowest_bit(s.classes.back()))
      malformed("symmetry classes not ascending by lowest member");
    if (fp.stop_k < static_cast<std::uint32_t>(j_size) &&
        util::popcount(c) != 1)
      malformed("stop-early snapshot with a symmetric class");
    covered |= c;
    class_sizes.push_back(util::popcount(c));
    s.classes.push_back(c);
  }
  if (covered != fp.block) malformed("symmetry classes do not cover the block");

  const std::uint64_t layer_card =
      util::orbit_counts(class_sizes).states[layer];
  const std::vector<int> j_vars = util::bits_of(fp.block);
  const int free_count =
      static_cast<int>(fp.n) - util::popcount(fp.prefix_vars);
  if (static_cast<int>(layer) > free_count)
    malformed("snapshot layer exceeds the base's free variables");
  const std::uint64_t expected_cells =
      std::uint64_t{1} << (free_count - static_cast<int>(layer));

  const std::uint64_t n_tables = r.array_count(8 + 4 + 8);
  // A dense snapshot must carry the *whole* canonical layer; a pruned one
  // carries at least one survivor (an empty layer would have tripped the
  // incumbent-below-optimum check before any fence).
  if (fp.prune == 0 && n_tables != layer_card)
    malformed("dense snapshot does not cover its whole canonical layer");
  if (n_tables == 0 || n_tables > layer_card)
    malformed("snapshot table count outside the layer's cardinality");
  s.dense.reserve(static_cast<std::size_t>(n_tables));
  s.tables.reserve(static_cast<std::size_t>(n_tables));
  const util::Mask dense_universe = util::full_mask(j_size);
  for (std::uint64_t i = 0; i < n_tables; ++i) {
    const util::Mask d = r.u64();
    if ((d & ~dense_universe) != 0)
      malformed("layer mask outside the block's dense universe");
    if (util::popcount(d) != static_cast<int>(layer))
      malformed("layer mask cardinality disagrees with the layer");
    if (!s.dense.empty() && d <= s.dense.back())
      malformed("layer masks not strictly ascending");
    const util::Mask K = spread_dense(d, j_vars);
    if (canonical_mask(s.classes, K) != K)
      malformed("layer mask not canonical");
    NarrowTable t;
    t.n = static_cast<int>(fp.n);
    t.vars = fp.prefix_vars | K;
    t.num_terminals = s.num_terminals;
    t.next_id = r.u32();
    if (t.next_id < t.num_terminals)
      malformed("table next_id below its terminal count");
    const int width = cell_width(t.next_id);
    const std::uint64_t n_cells =
        r.array_count(static_cast<std::size_t>(width));
    if (n_cells != expected_cells)
      malformed("table cell count disagrees with the fingerprint");
    t.cells.resize(static_cast<std::size_t>(n_cells), width);
    // expected_cells >= 1, so the table has a largest cell.
    const std::uint32_t top =
        t.cells.visit([&](auto* cells, std::size_t size) {
          r.uint_array(cells, size);
          return static_cast<std::uint32_t>(
              *std::max_element(cells, cells + size));
        });
    if (top >= t.next_id) malformed("table cell id out of range");
    s.dense.push_back(d);
    s.tables.push_back(std::move(t));
  }

  // One record per published state: the empty set with no ties, every
  // other state with ties that meet it.
  const std::uint64_t n_states = r.array_count(8 + 8 + 8);
  s.states.reserve(static_cast<std::size_t>(n_states));
  for (std::uint64_t i = 0; i < n_states; ++i) {
    FsState st;
    st.mask = r.u64();
    st.ties = r.u64();
    st.mincost = r.u64();
    if (!s.states.empty() && st.mask <= s.states.back().mask)
      malformed("state masks not strictly ascending");
    if ((st.mask & ~fp.block) != 0) malformed("state mask outside the block");
    if (canonical_mask(s.classes, st.mask) != st.mask)
      malformed("state mask not canonical");
    bool classes_only = (st.ties & ~fp.block) == 0;
    for (const util::Mask c : s.classes)
      classes_only &= (st.ties & c) == 0 || (st.ties & c) == c;
    if (!classes_only) malformed("tie set not a union of symmetry classes");
    if (st.mask == 0 && st.ties != 0) malformed("empty set with a tie set");
    if (st.mask != 0 && (st.mask & st.ties) == 0)
      malformed("tie set misses its state");
    s.states.push_back(st);
  }

  if (!r.done()) malformed("trailing bytes after the snapshot payload");
  return s;
}

FsStarSnapshot load_snapshot(const std::string& path) {
  const rt::CheckpointData data =
      rt::load_checkpoint(path, kFsSnapshotVersion, kFsSnapshotVersion);
  return decode_snapshot(data.payload.data(), data.payload.size());
}

}  // namespace ovo::core
