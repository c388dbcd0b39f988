// probe — helper binary of the ordering benchmark (see NOTES.md).
//
// It links the same library the `ovo` CLI is built from and serves
// run.py in six modes.  Every mode prints one JSON object per line.
//
//   probe info   THREADS                 build and run-info stamp
//   probe ready  THREADS MANIFEST        reads the inputs, starts the
//                                        worker pool, prints the ready time
//   probe ref    KIND TT...              branch-and-bound optimum of each
//                                        truth-table file (serial)
//   probe check  LIST                    rebuilds each listed order with a
//                                        bdd/zdd manager, prints its size
//   probe stream THREADS MANIFEST SECONDS  the batch-small closed loop:
//                                        one process, instances back to back
//                                        until SECONDS have passed
//   probe trace  THREADS WORKLOAD MANIFEST SCRATCH_DIR
//                                        per-layer replay with spans
//
// A truth-table file holds n on its first line and the 2^n cells as a
// '0'/'1' string (cell 0 first) on its second.  A manifest line is
// "ID FORMAT TEXT_FILE TT_FILE KIND" with FORMAT one of formula/pla/blif
// and KIND bdd or zdd.  Timestamps are CLOCK_MONOTONIC nanoseconds, the
// clock Python's time.monotonic_ns() reads, so run.py can subtract its
// own spawn time from them.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"
#include "core/fs_checkpoint.hpp"
#include "core/minimize.hpp"
#include "core/prefix_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/oracle.hpp"
#include "reorder/strategy.hpp"
#include "rt/checkpoint.hpp"
#include "tt/blif.hpp"
#include "tt/expr.hpp"
#include "tt/pla.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"
#include "zdd/manager.hpp"

namespace {

using namespace ovo;

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

tt::TruthTable read_tt(const std::string& path) {
  std::istringstream in(read_file(path));
  int n = -1;
  std::string bits;
  in >> n >> bits;
  if (n < 0 || bits.size() != (std::size_t{1} << n))
    throw std::runtime_error("malformed truth-table file '" + path + "'");
  return tt::TruthTable::from_bits(n, bits);
}

core::DiagramKind parse_kind(const std::string& s) {
  if (s == "bdd") return core::DiagramKind::kBdd;
  if (s == "zdd") return core::DiagramKind::kZdd;
  throw std::runtime_error("unknown kind '" + s + "'");
}

struct Item {
  std::string id, format, text_path, tt_path, kind;
  std::string text;  // filled by load_texts
};

std::vector<Item> read_manifest(const std::string& path) {
  std::vector<Item> items;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    Item it;
    if (!(ls >> it.id >> it.format >> it.text_path >> it.tt_path >> it.kind))
      throw std::runtime_error("malformed manifest line: " + line);
    items.push_back(std::move(it));
  }
  return items;
}

void load_texts(std::vector<Item>& items) {
  for (Item& it : items) it.text = read_file(it.text_path);
}

/// What `ovo order` does with its input: parse the text by format, then
/// tabulate every output (tt layer).
std::vector<tt::TruthTable> parse_and_tabulate(const Item& it) {
  if (it.format == "pla") return tt::parse_pla(it.text).output_tables();
  if (it.format == "blif") return tt::parse_blif(it.text).output_tables();
  if (it.format == "formula") {
    const tt::ExprPtr e = tt::parse_expr(it.text);
    const int n = std::max(1, tt::expr_num_vars(*e));
    return {tt::expr_to_truth_table(*e, n)};
  }
  throw std::runtime_error("unknown format '" + it.format + "'");
}

/// Forces the shared worker pool to its full size, the way the first
/// parallel DP call of a process does.
void start_pool(int threads) {
  if (threads <= 1) return;
  par::ThreadPool::shared().parallel_for(
      0, static_cast<std::uint64_t>(threads), 1, threads,
      [](std::uint64_t, int) {});
}

std::string order_json(const std::vector<int>& order) {
  std::string s = "[";
  for (std::size_t i = 0; i < order.size(); ++i)
    s += (i == 0 ? "" : ",") + std::to_string(order[i] + 1);
  return s + "]";
}

/// The `ovo order --json` report for one strategy result, rendered with
/// the same obs serializer the CLI uses.
std::string render_report(const reorder::Strategy& s,
                          const reorder::StrategyResult& r,
                          core::DiagramKind kind, int threads) {
  std::string out = "{\"strategy\":\"";
  out += s.name;
  out += "\"";
  obs::append_json_str(out, "kind",
                       kind == core::DiagramKind::kZdd ? "zdd" : "bdd");
  obs::append_json_u64(out, "nodes", r.internal_nodes);
  out += r.optimal ? ",\"optimal\":true" : ",\"optimal\":false";
  obs::append_json_u64(out, "lower_bound", r.lower_bound);
  obs::append_json_str(out, "outcome", rt::outcome_name(r.outcome));
  obs::Ledger l;
  r.oracle.to_ledger(l);
  obs::append_counters_json(out, l);
  obs::append_run_info_json(out, threads);
  out += ",\"order\":" + order_json(r.order_root_first) + "}";
  return out;
}

reorder::EvalContext make_ctx(int threads) {
  reorder::EvalContext ctx;
  ctx.exec.num_threads = threads;
  return ctx;
}

// ---------------------------------------------------------------------------

int cmd_info(int threads) {
  std::string s = "{\"probe\":\"ovo-perfbench\"";
  obs::append_run_info_json(s, threads);
  obs::append_json_str(s, "compiler", __VERSION__);
  obs::append_json_u64(s, "ovo_trace", OVO_TRACE_ENABLED);
#ifdef NDEBUG
  obs::append_json_u64(s, "ndebug", 1);
#else
  obs::append_json_u64(s, "ndebug", 0);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  obs::append_json_u64(s, "sanitizer", 1);
#else
  obs::append_json_u64(s, "sanitizer", 0);
#endif
  std::printf("%s}\n", s.c_str());
  return 0;
}

int cmd_ready(int threads, const std::string& manifest) {
  std::vector<Item> items = read_manifest(manifest);
  load_texts(items);
  start_pool(threads);
  std::printf("{\"ready_ns\":%" PRIu64 "}\n", mono_ns());
  return 0;
}

int cmd_ref(const std::string& kind, const std::vector<std::string>& files) {
  const reorder::Strategy* bnb = reorder::find_strategy("bnb");
  reorder::StrategyOptions opt;
  opt.kind = parse_kind(kind);
  for (const std::string& path : files) {
    const auto r = bnb->run(read_tt(path), opt, make_ctx(1));
    std::printf("{\"file\":\"%s\",\"nodes\":%" PRIu64 ",\"optimal\":%s}\n",
                path.c_str(), r.internal_nodes, r.optimal ? "true" : "false");
    std::fflush(stdout);
  }
  return 0;
}

/// LIST lines: "TT_FILE KIND v1,v2,..." (1-based, root first).
int cmd_check(const std::string& list) {
  std::istringstream in(read_file(list));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tt_path, kind, spec;
    ls >> tt_path >> kind >> spec;
    const tt::TruthTable f = read_tt(tt_path);
    std::vector<int> order;
    std::stringstream ss(spec);
    std::string v;
    while (std::getline(ss, v, ',')) order.push_back(std::stoi(v) - 1);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    bool perm = static_cast<int>(order.size()) == f.num_vars();
    for (std::size_t i = 0; perm && i < sorted.size(); ++i)
      perm = sorted[i] == static_cast<int>(i);
    std::int64_t size = -1;
    if (perm && parse_kind(kind) == core::DiagramKind::kZdd) {
      zdd::Manager m(f.num_vars(), order);
      size = static_cast<std::int64_t>(m.size(m.from_truth_table(f)));
    } else if (perm) {
      bdd::Manager m(f.num_vars(), order);
      size = static_cast<std::int64_t>(m.size(m.from_truth_table(f)));
    }
    std::printf("{\"permutation\":%s,\"nodes\":%" PRId64 "}\n",
                perm ? "true" : "false", size);
  }
  return 0;
}

int cmd_stream(int threads, const std::string& manifest, double seconds) {
  std::vector<Item> items = read_manifest(manifest);
  load_texts(items);
  start_pool(threads);
  const std::uint64_t ready = mono_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::printf("{\"ready_ns\":%" PRIu64 "}\n", ready);
  std::fflush(stdout);
  const reorder::Strategy* fs = reorder::find_strategy("fs");
  const reorder::Strategy* sift = reorder::find_strategy("sift");
  for (const Item& it : items) {
    std::string line;
    const std::uint64_t t0 = mono_ns();
    if (t0 - ready >= budget) break;
    try {
      const std::vector<tt::TruthTable> outs = parse_and_tabulate(it);
      reorder::StrategyOptions opt;
      opt.kind = parse_kind(it.kind);
      const auto exact = fs->run(outs.front(), opt, make_ctx(threads));
      const std::string exact_json =
          render_report(*fs, exact, opt.kind, threads);
      const auto heur = sift->run(outs.front(), opt, make_ctx(threads));
      const std::string heur_json =
          render_report(*sift, heur, opt.kind, threads);
      const std::uint64_t t1 = mono_ns();
      line = "{\"id\":\"" + it.id + "\",\"ns\":" + std::to_string(t1 - t0) +
             ",\"exact\":" + exact_json + ",\"heuristic\":" + heur_json + "}";
    } catch (const std::exception&) {
      line = "{\"id\":\"" + it.id + "\",\"error\":\"exception\"}";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Traced replay.  Spans are the benchmark's own: each wraps one call into
// a public function of one module; run.py derives self times from the
// parent links.

struct Spans {
  struct Rec {
    std::string name;
    int parent;
    std::uint64_t begin, end;
  };
  std::vector<Rec> recs;
  std::vector<int> open;

  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    const int id = static_cast<int>(recs.size());
    recs.push_back({name, open.empty() ? -1 : open.back(), mono_ns(), 0});
    open.push_back(id);
    struct Close {
      Spans* s;
      int id;
      ~Close() {
        s->recs[static_cast<std::size_t>(id)].end = mono_ns();
        s->open.pop_back();
      }
    } close{this, id};
    return fn();
  }

  std::string json() const {
    std::string s = "[";
    for (std::size_t i = 0; i < recs.size(); ++i)
      s += (i == 0 ? "[\"" : ",[\"") + recs[i].name + "\"," +
           std::to_string(recs[i].parent) + "," +
           std::to_string(recs[i].end - recs[i].begin) + "]";
    return s + "]";
  }
};

/// Counters of one instance, summed by key.
struct Counters {
  std::map<std::string, double> v;
  void add(const std::string& key, double x) { v[key] += x; }
  void add_ops(const core::OpCounter& ops) {
    add("core.table_cells", static_cast<double>(ops.table_cells));
    add("core.compactions", static_cast<double>(ops.compactions));
    add("core.peak_cells", static_cast<double>(ops.peak_cells));
    add("core.dedup_lookups", static_cast<double>(ops.dedup.lookups));
    add("core.dedup_probes", static_cast<double>(ops.dedup.probes));
    add("core.dedup_hits", static_cast<double>(ops.dedup.hits));
    add("core.prune.surviving",
        static_cast<double>(ops.prune.states_surviving));
    add("core.prune.sparse_cells", static_cast<double>(ops.prune.sparse_cells));
    add("core.prune.ratio", ops.prune.prune_ratio());
  }
  std::string json() const {
    std::string s;
    char buf[128];
    for (const auto& [key, x] : v) {
      std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", s.empty() ? "" : ",",
                    key.c_str(), x);
      s += buf;
    }
    return "{" + s + "}";
  }
};

/// Runs one 4-thread DP call inside span `name` and adds what the par
/// layer did during it: scheduler deltas, process CPU and wall time.
template <typename Fn>
auto time_par(Spans& sp, Counters& c, const char* name, Fn&& fn) {
  const par::SchedStats s0 = par::sched_stats();
  const double cpu0 = cpu_s();
  const std::uint64_t w0 = mono_ns();
  auto r = sp.time(name, std::forward<Fn>(fn));
  const par::SchedStats s1 = par::sched_stats();
  c.add("par.cpu_s", cpu_s() - cpu0);
  c.add("par.wall_s", 1e-9 * static_cast<double>(mono_ns() - w0));
  c.add("par.graphs", static_cast<double>(s1.graphs - s0.graphs));
  c.add("par.tasks", static_cast<double>(s1.tasks - s0.tasks));
  c.add("par.barrier_wait_ns",
        static_cast<double>(s1.barrier_wait_ns - s0.barrier_wait_ns));
  c.add("par.overlap_ns", static_cast<double>(s1.overlap_ns - s0.overlap_ns));
  return r;
}

/// Fixed seeded orders (seed from the instance id, so every run of an
/// instance evaluates the same chains).
std::vector<std::vector<int>> kernel_orders(const std::string& id, int n,
                                            int count) {
  util::Xoshiro256 rng(std::hash<std::string>{}(id));
  std::vector<std::vector<int>> orders;
  for (int k = 0; k < count; ++k) {
    std::vector<int> o(static_cast<std::size_t>(n));
    std::iota(o.begin(), o.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(o[static_cast<std::size_t>(i)],
                o[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    orders.push_back(std::move(o));
  }
  return orders;
}

/// Every workload replays the same calls per instance, so every layer is
/// measured on every workload's inputs; which of them form the solve
/// itself is run.py's business (SOLVE_SPANS there).
int cmd_trace(int threads, const std::string& workload,
              const std::string& manifest, const std::string& scratch) {
  std::vector<Item> items = read_manifest(manifest);
  load_texts(items);
  start_pool(threads);
  const bool pruned = workload == "exact-pruned";
  const reorder::Strategy* sift = reorder::find_strategy("sift");
  for (const Item& it : items) {
    Spans sp;
    Counters c;
    const core::DiagramKind kind = parse_kind(it.kind);
    const std::uint64_t t0 = mono_ns();
    sp.time("instance", [&] {
      const auto outs =
          sp.time("tt.load", [&] { return parse_and_tabulate(it); });
      const tt::TruthTable& f = outs.front();
      const int n = f.num_vars();
      par::ExecPolicy dp;
      dp.num_threads = threads;
      if (pruned) dp.prune = par::PruneMode::kBounds;

      // reorder: run_fs's seed stage, the sift seed on a fresh oracle.
      reorder::CostOracle oracle(f, kind);
      reorder::EvalContext sctx = make_ctx(threads);
      sctx.exec = dp;
      const reorder::PruneSeedResult seed = sp.time("reorder.seed", [&] {
        return reorder::seed_prune_bound(oracle, "sift", 8, 16, 42, sctx);
      });
      const reorder::OracleStats& os = oracle.stats();
      c.add("reorder.queries", static_cast<double>(os.queries));
      c.add("reorder.oracle_evals", static_cast<double>(os.evals));
      c.add("reorder.memo_hits", static_cast<double>(os.memo_hits));
      c.add("reorder.seed_cells", static_cast<double>(os.ops.table_cells));
      const std::uint64_t ub = pruned ? seed.upper_bound : 0;

      // core + par: the DP as `ovo order` runs it (pipelined engine).
      const core::MinimizeResult m = time_par(sp, c, "core.fs_minimize", [&] {
        return core::fs_minimize(f, kind, dp, ub);
      });
      c.add_ops(m.ops);
      c.add("nodes", static_cast<double>(m.min_internal_nodes));

      // reorder: the sift strategy as `ovo compare` runs it, and the
      // report a library caller renders.
      reorder::StrategyOptions opt;
      opt.kind = kind;
      const auto sr = sp.time("reorder.sift", [&] {
        return sift->run(f, opt, make_ctx(threads));
      });
      sp.time("obs.render", [&] {
        return render_report(*sift, sr, kind, threads).size();
      });

      // par: the single-thread baseline of the same DP.
      par::ExecPolicy serial = dp;
      serial.num_threads = 1;
      sp.time("core.fs_minimize.serial", [&] {
        return core::fs_minimize(f, kind, serial, ub).min_internal_nodes;
      });

      // rt: the same DP on the barrier engine, without and with a
      // snapshot at every layer (exact-checkpointed: the CLI's route,
      // `auto` with --checkpoint).
      par::ExecPolicy barrier = dp;
      barrier.pipeline = false;
      time_par(sp, c, "core.fs_minimize.barrier", [&] {
        return core::fs_minimize(f, kind, barrier, ub).min_internal_nodes;
      });
      std::vector<std::vector<std::uint8_t>> payloads;
      core::FsCheckpointOptions ckpt;
      ckpt.path = scratch + "/" + it.id + ".ckpt";
      ckpt.on_bytes = [&](const std::vector<std::uint8_t>& b) {
        payloads.push_back(b);
      };
      if (workload == "exact-checkpointed") {
        reorder::StrategyOptions aopt;
        aopt.kind = kind;
        aopt.ckpt = ckpt;
        time_par(sp, c, "reorder.auto", [&] {
          return reorder::find_strategy("auto")
              ->run(f, aopt, make_ctx(threads))
              .internal_nodes;
        });
      } else {
        time_par(sp, c, "core.fs_minimize.ckpt", [&] {
          return core::fs_minimize(f, kind, barrier, ub, &ckpt)
              .min_internal_nodes;
        });
      }
      double bytes = 0;
      for (const auto& p : payloads) bytes += static_cast<double>(p.size());
      c.add("rt.ckpt_count", static_cast<double>(payloads.size()));
      c.add("rt.ckpt_bytes", bytes);
      const std::string replay = scratch + "/" + it.id + ".replay";
      sp.time("rt.write", [&] {
        for (const auto& p : payloads)
          rt::write_file_atomic(replay, p.data(), p.size());
        return payloads.size();
      });
      sp.time("rt.load", [&] {
        return core::load_snapshot(ckpt.path).fingerprint.prune;
      });
      std::remove(replay.c_str());
      std::remove(ckpt.path.c_str());

      // core: compact_into alone, chains over fixed seeded orders on this
      // instance's own TABLE_emptyset.
      const core::PrefixTable base = core::initial_table(f);
      const auto orders = kernel_orders(it.id, n, n >= 15 ? 8 : 64);
      core::PrefixTable cur, next;
      core::OpCounter kops;
      sp.time("core.kernel", [&] {
        std::uint64_t sum = 0;
        for (const auto& o : orders)
          sum += core::diagram_size_from_base(base, o, kind, cur, next, &kops);
        return sum;
      });
      c.add("core.kernel_cells", static_cast<double>(kops.table_cells));
      c.add("n", n);
      return 0;
    });
    std::printf("{\"id\":\"%s\",\"ns\":%" PRIu64 ",\"spans\":%s,\"counters\":%s}\n",
                it.id.c_str(), mono_ns() - t0, sp.json().c_str(),
                c.json().c_str());
    std::fflush(stdout);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: probe info THREADS | ready THREADS MANIFEST | "
               "ref KIND TT... | check LIST | stream THREADS MANIFEST SECONDS | "
               "trace THREADS WORKLOAD MANIFEST SCRATCH_DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 2 && a[0] == "info") return cmd_info(std::stoi(a[1]));
    if (a.size() == 3 && a[0] == "ready")
      return cmd_ready(std::stoi(a[1]), a[2]);
    if (a.size() >= 2 && a[0] == "ref")
      return cmd_ref(a[1], {a.begin() + 2, a.end()});
    if (a.size() == 2 && a[0] == "check") return cmd_check(a[1]);
    if (a.size() == 4 && a[0] == "stream")
      return cmd_stream(std::stoi(a[1]), a[2], std::stod(a[3]));
    if (a.size() == 5 && a[0] == "trace")
      return cmd_trace(std::stoi(a[1]), a[2], a[3], a[4]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe: %s\n", e.what());
    return 1;
  }
  return usage();
}
