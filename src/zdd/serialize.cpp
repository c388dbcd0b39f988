#include "zdd/serialize.hpp"

#include <sstream>
#include <vector>

#include "ds/unique_table.hpp"
#include "rt/checkpoint.hpp"
#include "util/combinatorics.hpp"

namespace ovo::zdd {

namespace {

/// zdd::Manager's variable limit; the loaders reject larger counts.
constexpr int kMaxVars = tt::TruthTable::kMaxVars;

std::vector<NodeId> post_order(const Manager& m, NodeId root,
                               ds::UniqueTable* index) {
  index->insert(kEmpty, 0);
  index->insert(kUnit, 1);
  std::vector<NodeId> ordered;
  auto rec = [&](auto&& self, NodeId u) -> void {
    if (index->find(u) != nullptr) return;
    const Node un = m.node(u);
    self(self, un.lo);
    self(self, un.hi);
    index->insert(u, static_cast<std::uint32_t>(2 + ordered.size()));
    ordered.push_back(u);
  };
  rec(rec, root);
  return ordered;
}

}  // namespace

std::string save_zdd(const Manager& m, NodeId root) {
  ds::UniqueTable index;
  const std::vector<NodeId> ordered = post_order(m, root, &index);

  std::ostringstream os;
  os << "ovo-zdd 1\n";
  os << "n " << m.num_vars() << "\n";
  os << "order";
  for (const int v : m.order()) os << ' ' << v;
  os << "\n";
  os << "nodes " << ordered.size() << "\n";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const Node un = m.node(ordered[i]);
    os << (2 + i) << ' ' << un.level << ' ' << *index.find(un.lo) << ' '
       << *index.find(un.hi) << "\n";
  }
  os << "root " << *index.find(root) << "\n";
  return os.str();
}

LoadedZdd load_zdd(const std::string& text) {
  const auto malformed = [](const char* what) {
    throw rt::CheckpointError(rt::CheckpointErrorKind::kMalformed,
                              std::string("load_zdd: ") + what);
  };
  std::istringstream is(text);
  std::string word;
  int version = 0;
  if (!(is >> word >> version) || word != "ovo-zdd" || version != 1)
    malformed("bad header");
  int n = 0;
  // Bound n before the order vector exists: a fuzzer-supplied n must not
  // drive the allocation below, nor reach the Manager's own range check.
  if (!(is >> word >> n) || word != "n" || n < 0 || n > kMaxVars)
    malformed("bad variable count");
  if (!(is >> word) || word != "order") malformed("missing order");
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int& v : order)
    if (!(is >> v)) malformed("truncated order");
  if (!util::is_permutation(order)) malformed("order is not a permutation");
  std::size_t count = 0;
  if (!(is >> word >> count) || word != "nodes")
    malformed("missing node count");
  // Every node line needs >= 8 characters ("2 0 0 1\n"), so a count the
  // input cannot possibly back is rejected before any growth.
  if (count > text.size() / 8) malformed("node count exceeds input size");

  LoadedZdd out{Manager(n, std::move(order)), kEmpty};
  std::vector<NodeId> id_map{kEmpty, kUnit};
  id_map.reserve(count + 2);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t idx = 0;
    int level = 0;
    std::size_t lo = 0, hi = 0;
    if (!(is >> idx >> level >> lo >> hi)) malformed("truncated node table");
    if (idx != 2 + i) malformed("node indices must be dense");
    if (lo >= id_map.size() || hi >= id_map.size())
      malformed("dangling child reference");
    // make_node only OVO_DCHECKs the ordering invariant, so the loader
    // must enforce it on untrusted input (children strictly deeper).
    if (level < 0 || level >= out.manager.node(id_map[lo]).level ||
        level >= out.manager.node(id_map[hi]).level)
      malformed("node level not above its children");
    id_map.push_back(out.manager.make(level, id_map[lo], id_map[hi]));
  }
  std::size_t root_idx = 0;
  if (!(is >> word >> root_idx) || word != "root") malformed("missing root");
  if (root_idx >= id_map.size()) malformed("dangling root");
  out.root = id_map[root_idx];
  return out;
}

std::vector<std::uint8_t> save_zdd_binary(const Manager& m, NodeId root) {
  ds::UniqueTable index;
  const std::vector<NodeId> ordered = post_order(m, root, &index);

  rt::ByteWriter w;
  w.u8('Z');
  w.u8(1);  // format version
  w.u32(static_cast<std::uint32_t>(m.num_vars()));
  for (const int v : m.order()) w.u8(static_cast<std::uint8_t>(v));
  w.u64(ordered.size());
  for (const NodeId u : ordered) {
    const Node un = m.node(u);
    w.u8(static_cast<std::uint8_t>(un.level));
    w.u32(*index.find(un.lo));
    w.u32(*index.find(un.hi));
  }
  w.u32(*index.find(root));
  return w.take();
}

LoadedZdd load_zdd_binary(const std::uint8_t* data, std::size_t len) {
  using rt::CheckpointError;
  using rt::CheckpointErrorKind;
  const auto malformed = [](const char* what) {
    throw CheckpointError(CheckpointErrorKind::kMalformed,
                          std::string("load_zdd_binary: ") + what);
  };
  rt::ByteReader r(data, len);
  if (r.u8() != 'Z') malformed("wrong diagram tag");
  if (r.u8() != 1) malformed("unsupported format version");
  const std::uint32_t n = r.u32();
  if (n > kMaxVars) malformed("variable count exceeds 26");
  std::vector<int> order(n);
  std::uint64_t seen = 0;
  for (int& v : order) {
    const std::uint8_t raw = r.u8();
    if (raw >= n || ((seen >> raw) & 1) != 0)
      malformed("order is not a permutation");
    seen |= std::uint64_t{1} << raw;
    v = raw;
  }
  const std::uint64_t count = r.array_count(9);
  LoadedZdd out{Manager(static_cast<int>(n), std::move(order)), kEmpty};
  std::vector<NodeId> id_map{kEmpty, kUnit};
  id_map.reserve(static_cast<std::size_t>(count) + 2);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t level = r.u8();
    const std::uint32_t lo = r.u32();
    const std::uint32_t hi = r.u32();
    if (level >= n) malformed("node level out of range");
    if (lo >= id_map.size() || hi >= id_map.size())
      malformed("dangling child reference");
    if (level >= out.manager.node(id_map[lo]).level ||
        level >= out.manager.node(id_map[hi]).level)
      malformed("node level not above its children");
    id_map.push_back(out.manager.make(static_cast<int>(level), id_map[lo],
                                      id_map[hi]));
  }
  const std::uint32_t root_idx = r.u32();
  if (root_idx >= id_map.size()) malformed("dangling root");
  if (!r.done()) malformed("trailing bytes after root");
  out.root = id_map[root_idx];
  return out;
}

}  // namespace ovo::zdd
