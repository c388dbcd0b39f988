// ovo — command-line front end for the optimal-variable-ordering library.
//
//   ovo order   [--zdd] [--strategy NAME] [--engine fs|bnb|quantum]
//               [--shared] [--threads N] [--prune off|bounds]
//               [--prune-seed NAME] [--timeout-ms N] [--node-limit N]
//               [--mem-limit-mb N] [--work-limit N] [--json]
//               [--json-out FILE] [--trace FILE] [--checkpoint FILE]
//               [--checkpoint-every K] [--resume FILE]
//               [--fault-cancel-at N] [--fault-alloc-at N]
//               [--fault-fileop SITE:N] [--fault-prob P]
//               [--fault-seed S] <input>
//   ovo size    --order v1,v2,... [--zdd] <input>
//   ovo compare [--threads N] <input>   # exact vs heuristics report
//   ovo tables  [--k 1..12] [--iters N] # reproduce paper Tables 1 and 2
//   ovo dot     <input>                 # minimum OBDD as Graphviz
//   ovo --list-strategies               # registered ordering strategies
//
// Every minimizer is a named strategy in the reorder::strategies()
// registry; --strategy selects one directly, and the --engine flag is a
// plain alias of it (fs, bnb, quantum).  The default, `fs`, runs the
// exact DP on the governed ladder that `auto` names too.  The budget
// flags bound a run (see docs/INTERNALS.md, "Resource governance");
// every strategy then returns its best incumbent plus why it stopped.
// --json emits one machine-readable object including the outcome, the certified
// lower bound, and the unified oracle counters — rendered through the
// obs shared serializer, so its field names match BENCH_fs.json /
// BENCH_quantum.json exactly; --json-out additionally writes that object
// to FILE atomically (temp file + fsync + rename), so a killed run never
// leaves a torn artifact.  --trace FILE collects obs trace spans during
// the run and writes them as Chrome trace-event JSON (open the file in
// chrome://tracing or Perfetto; see EXPERIMENTS.md).
//
// Crash safety: --checkpoint snapshots the exact DP's state at layer
// fences (and when a budget/cancel trips); --resume restarts from such a
// snapshot and replays the remaining layers bit-identically.  SIGINT or
// SIGTERM trips the run's CancelToken: the run, the default route
// included, winds down through the normal cancelled path — best-so-far
// order, certified lower bound, final snapshot — and a second signal
// exits immediately (status 130).
//
// Fault injection (deterministic chaos, see rt/fault.hpp): the --fault-*
// flags install a FaultSchedule for the run.  --fault-cancel-at N trips
// the cancel token at the Nth governor poll; --fault-alloc-at N fails
// the Nth node-store allocation event (std::bad_alloc); --fault-fileop
// SITE:N fails the Nth filesystem operation at a named site (file_open,
// file_read, file_write, file_fsync, file_rename, file_close,
// file_unlink); --fault-prob P (+ --fault-seed S) fails each I/O or
// dispatch event independently with probability P, reproducibly for a
// given seed.  Exit codes: 0 success, 1 error, 2 usage, 3 checkpoint
// error, 4 injected fault (std::bad_alloc / rt::FaultInjected), 130
// second signal.  Numeric flag values must be whole, in-range strings of
// digits ("-5", "4x", "abc" are usage errors naming the flag), an input
// past an engine's limit (`--strategy brute` over more than 10
// variables, `--strategy dynamic --zdd`, `--shared` needing more than 26
// variables) is a usage error naming the limit.  So is a flag only the
// exact DP reads on a route that runs none, named with the route:
// --checkpoint, --checkpoint-every, --resume or --prune-seed with
// --shared or a strategy other than fs and auto, and --prune with a
// strategy that runs no FS* DP (all but fs, auto, exact-window and
// quantum; --shared prunes too).  So is a flag that only qualifies
// another one given without it: --json-out without --json,
// --checkpoint-every without --checkpoint, --prune-seed without --prune
// bounds, --fault-seed without --fault-prob.  An unknown flag, or a flag
// missing its value, is a usage error in every subcommand.  An input that cannot be
// read or parsed is a typed error (exit 1).
//
// <input> is one of:
//   - a path ending in .pla  (Berkeley PLA; first output used unless
//     --shared, which optimizes all outputs as one shared diagram),
//   - a path ending in .blif (combinational BLIF subset),
//   - `-`: a Boolean formula read from standard input (for formulas
//     longer than the 128 KiB one argument may hold),
//   - anything else: parsed as a Boolean formula over x1, x2, ...
//     e.g.  ovo order "x1 & x2 | x3 & x4"

#include <atomic>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <climits>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/manager.hpp"
#include "core/fs_checkpoint.hpp"
#include "core/minimize.hpp"
#include "core/multi_output.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/exec_policy.hpp"
#include "quantum/min_find.hpp"
#include "quantum/opt_obdd.hpp"
#include "quantum/params.hpp"
#include "reorder/baselines.hpp"
#include "reorder/branch_and_bound.hpp"
#include "reorder/minimize_auto.hpp"
#include "reorder/strategy.hpp"
#include "rt/budget.hpp"
#include "rt/checkpoint.hpp"
#include "rt/fault.hpp"
#include "tt/blif.hpp"
#include "tt/expr.hpp"
#include "tt/pla.hpp"
#include "util/combinatorics.hpp"

namespace {

using namespace ovo;

/// Shared cancellation token tripped by SIGINT/SIGTERM (and by
/// --fault-cancel-at, which simulates a signal at a deterministic
/// governor checkpoint for tests).
rt::CancelToken g_interrupt;
std::atomic<int> g_signals{0};

/// Async-signal-safe by construction: relaxed atomic ops and _Exit only.
/// First signal requests a graceful stop through the governor; a second
/// one means the user is done waiting.
void on_signal(int) {
  if (g_signals.fetch_add(1, std::memory_order_relaxed) > 0)
    std::_Exit(130);
  g_interrupt.cancel();
}

/// A malformed command line (bad flag value, missing argument): main()
/// prints the message and the usage text and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An input the CLI cannot read: main() prints the message and exits 1.
struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct LoadedInput {
  std::vector<tt::TruthTable> outputs;  ///< one per output
  std::string description;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InputError("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The whole of standard input: the formula of a `-` input, which is how
/// a formula longer than the 128 KiB one argument may hold gets in.
/// Empty input yields "", which the formula parser rejects like any
/// other malformed formula.
std::string read_stdin() {
  std::ostringstream os;
  os << std::cin.rdbuf();
  return os.str();
}

LoadedInput load_input(const std::string& spec) {
  LoadedInput out;
  if (ends_with(spec, ".pla")) {
    const tt::Pla pla = tt::parse_pla(read_file(spec));
    out.outputs = pla.output_tables();
    out.description = "PLA " + spec + " (" +
                      std::to_string(pla.num_inputs) + " inputs, " +
                      std::to_string(pla.num_outputs) + " outputs)";
  } else if (ends_with(spec, ".blif")) {
    const tt::BlifModel m = tt::parse_blif(read_file(spec));
    out.outputs = m.output_tables();
    out.description = "BLIF " + (m.name.empty() ? spec : m.name) + " (" +
                      std::to_string(m.inputs.size()) + " inputs, " +
                      std::to_string(m.outputs.size()) + " outputs)";
  } else {
    const tt::ExprPtr e = tt::parse_expr(spec == "-" ? read_stdin() : spec);
    const int n = std::max(1, tt::expr_num_vars(*e));
    out.outputs.push_back(tt::expr_to_truth_table(*e, n));
    out.description =
        "formula on " + std::to_string(n) + " variables";
  }
  if (out.outputs.empty()) throw InputError("input has no outputs");
  return out;
}

void print_order(const std::vector<int>& order) {
  for (std::size_t i = 0; i < order.size(); ++i)
    std::printf("%sx%d", i == 0 ? "" : " ", order[i] + 1);
  std::printf("\n");
}

/// Parses `value` as a whole string of decimal digits in [lo, hi]: no
/// sign, no whitespace, no trailing junk, no wrap-around.  Anything else
/// is a UsageError naming `flag`.
std::uint64_t parse_u64_flag(const char* flag, const std::string& value,
                             std::uint64_t lo = 0,
                             std::uint64_t hi = UINT64_MAX) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  throw UsageError(std::string(flag) + ": expected an integer from " +
                   std::to_string(lo) + " to " + std::to_string(hi) +
                   ", got '" + value + "'");
}

/// As parse_u64_flag, for flags stored in an int.
int parse_int_flag(const char* flag, const std::string& value, int lo) {
  return static_cast<int>(parse_u64_flag(
      flag, value, static_cast<std::uint64_t>(lo), INT_MAX));
}

/// --threads N: 0 = auto (OVO_THREADS env or hardware concurrency);
/// default 1 (serial).
par::ExecPolicy parse_threads(const std::string& value) {
  par::ExecPolicy exec;
  exec.num_threads = parse_int_flag("--threads", value, 0);
  return exec;
}

void appendf(std::string& s, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

/// Builds the one-object JSON report as a string, so callers can both
/// print it and persist it atomically (--json-out).  Every counter field
/// is rendered through the obs shared serializer: the keys here are the
/// metric table's canonical json_keys, byte-identical to the ones the
/// scaling benches emit.  `sym_classes`, the exact DP's symmetry classes
/// of two or more inputs, prints as 1-based variable lists and is left
/// out when there are none.
std::string json_order_string(const std::string& strategy,
                              core::DiagramKind kind, std::uint64_t nodes,
                              bool optimal, std::uint64_t lower_bound,
                              const std::string& outcome,
                              std::uint64_t work_units, int threads,
                              const std::vector<int>& order,
                              const reorder::OracleStats* oracle = nullptr,
                              const std::vector<util::Mask>& sym_classes = {}) {
  std::string s;
  appendf(s, "{\"strategy\":\"%s\"", strategy.c_str());
  obs::append_json_str(s, "kind",
                       kind == core::DiagramKind::kZdd ? "zdd" : "bdd");
  obs::append_json_u64(s, "nodes", nodes);
  appendf(s, ",\"optimal\":%s", optimal ? "true" : "false");
  obs::append_json_u64(s, "lower_bound", lower_bound);
  obs::append_json_str(s, "outcome", outcome.c_str());
  obs::Ledger l;
  l.record(obs::Metric::kRtWorkCharged, work_units);
  obs::append_metric_json(s, l, obs::Metric::kRtWorkCharged);
  if (oracle != nullptr) {
    oracle->to_ledger(l);
    obs::append_counters_json(s, l);
  }
  if (!sym_classes.empty()) {
    s += ",\"sym_classes\":[";
    for (std::size_t c = 0; c < sym_classes.size(); ++c) {
      s += c == 0 ? "[" : ",[";
      bool first = true;
      util::for_each_bit(sym_classes[c], [&](int v) {
        appendf(s, "%s%d", first ? "" : ",", v + 1);
        first = false;
      });
      s += "]";
    }
    s += "]";
  }
  obs::append_run_info_json(s, threads);
  s += ",\"order\":[";
  for (std::size_t i = 0; i < order.size(); ++i)
    appendf(s, "%s%d", i == 0 ? "" : ",", order[i] + 1);
  s += "]}\n";
  return s;
}

/// Stops collection and writes the Chrome trace on every exit from
/// cmd_order (including error unwinds), so --trace never loses the spans
/// of a run that failed late.
struct TraceFlusher {
  std::string path;
  ~TraceFlusher() {
#if OVO_TRACE_ENABLED
    if (path.empty()) return;
    obs::trace::disable();
    if (!obs::trace::write_json(path))
      std::fprintf(stderr, "warning: could not write trace to '%s'\n",
                   path.c_str());
#endif
  }
};

/// Prints the JSON report and, when --json-out was given, writes it to
/// that path atomically.
void emit_json(const std::string& text, const std::string& json_out) {
  std::fputs(text.c_str(), stdout);
  if (!json_out.empty())
    rt::write_file_atomic(json_out, text.data(), text.size());
}

/// Inputs past an engine's limit are usage errors, raised before the
/// library call whose internal check would otherwise fire.
void check_engine_limits(const LoadedInput& in, bool shared,
                         const std::string& strategy,
                         core::DiagramKind kind) {
  const int n = in.outputs.front().num_vars();
  if (shared) {
    // fs_minimize_shared tabulates the outputs as one function over the
    // inputs plus ceil(log2 m) selector variables (core/multi_output.hpp).
    const int vars = n + std::bit_width(in.outputs.size() - 1);
    if (vars > tt::TruthTable::kMaxVars)
      throw UsageError(
          "--shared: " + std::to_string(n) + " inputs and " +
          std::to_string(in.outputs.size()) + " outputs need " +
          std::to_string(vars) + " variables, at most " +
          std::to_string(tt::TruthTable::kMaxVars) + " are supported");
    return;
  }
  if (strategy == "brute" && n > reorder::kBruteForceMaxVars)
    throw UsageError("--strategy brute: sweeps all n! orders of at most " +
                     std::to_string(reorder::kBruteForceMaxVars) +
                     " variables, the input has " + std::to_string(n));
  if (strategy == "dynamic" && kind == core::DiagramKind::kZdd)
    throw UsageError("--strategy dynamic: sifts a live BDD only, so it "
                     "takes no --zdd");
}

void print_strategy_list() {
  for (const reorder::Strategy& s : reorder::strategies())
    std::printf("%-13s %s\n", s.name, s.description);
}

int cmd_order(const std::vector<std::string>& args) {
  core::DiagramKind kind = core::DiagramKind::kBdd;
  std::string engine = "fs";
  std::string strategy_name;
  bool shared = false;
  bool json = false;
  rt::Budget budget;
  par::ExecPolicy exec;
  par::PruneMode prune = par::PruneMode::kOff;
  std::string prune_seed = "sift";
  // The flags only the exact DP reads, when given: a route that runs no
  // DP refuses them.
  bool prune_given = false;
  bool prune_seed_given = false;
  bool checkpoint_every_given = false;
  std::string json_out;
  std::string trace_path;
  std::string checkpoint_path;
  std::string resume_path;
  int checkpoint_every = 1;
  std::uint64_t fault_cancel_at = 0;
  rt::FaultSchedule fault_schedule;
  bool fault_requested = false;
  bool fault_prob_given = false;
  bool fault_seed_given = false;
  std::optional<std::string> input;  // "" is an empty formula
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--zdd") {
      kind = core::DiagramKind::kZdd;
    } else if (args[i] == "--engine" && i + 1 < args.size()) {
      engine = args[++i];
    } else if (args[i] == "--strategy" && i + 1 < args.size()) {
      strategy_name = args[++i];
    } else if (args[i] == "--list-strategies") {
      print_strategy_list();
      return 0;
    } else if (args[i] == "--shared") {
      shared = true;
    } else if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      exec = parse_threads(args[++i]);
    } else if (args[i] == "--prune" && i + 1 < args.size()) {
      const std::string& mode = args[++i];
      if (mode == "off") {
        prune = par::PruneMode::kOff;
      } else if (mode == "bounds") {
        prune = par::PruneMode::kBounds;
      } else {
        throw UsageError("--prune: expected off|bounds, got '" + mode + "'");
      }
      prune_given = true;
    } else if (args[i] == "--prune-seed" && i + 1 < args.size()) {
      prune_seed = args[++i];
      prune_seed_given = true;
      if (!reorder::is_prune_seed(prune_seed)) {
        std::string names;
        for (const std::string_view s : reorder::kPruneSeeds)
          names += (names.empty() ? "" : "|") + std::string(s);
        throw UsageError("--prune-seed: expected " + names + ", got '" +
                         prune_seed + "'");
      }
    } else if (args[i] == "--timeout-ms" && i + 1 < args.size()) {
      budget.deadline_ms = parse_u64_flag("--timeout-ms", args[++i]);
    } else if (args[i] == "--node-limit" && i + 1 < args.size()) {
      budget.node_limit = parse_u64_flag("--node-limit", args[++i]);
    } else if (args[i] == "--mem-limit-mb" && i + 1 < args.size()) {
      budget.bytes_limit = parse_u64_flag("--mem-limit-mb", args[++i], 0,
                                          UINT64_MAX >> 20)
                           << 20;
    } else if (args[i] == "--work-limit" && i + 1 < args.size()) {
      budget.work_limit = parse_u64_flag("--work-limit", args[++i]);
    } else if (args[i] == "--json-out" && i + 1 < args.size()) {
      json_out = args[++i];
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--checkpoint" && i + 1 < args.size()) {
      checkpoint_path = args[++i];
    } else if (args[i] == "--checkpoint-every" && i + 1 < args.size()) {
      checkpoint_every = parse_int_flag("--checkpoint-every", args[++i], 1);
      checkpoint_every_given = true;
    } else if (args[i] == "--resume" && i + 1 < args.size()) {
      resume_path = args[++i];
    } else if (args[i] == "--fault-cancel-at" && i + 1 < args.size()) {
      fault_cancel_at = parse_u64_flag("--fault-cancel-at", args[++i]);
    } else if (args[i] == "--fault-alloc-at" && i + 1 < args.size()) {
      fault_schedule.fail_nth(rt::FaultSite::kAlloc,
                              parse_u64_flag("--fault-alloc-at", args[++i]));
      fault_requested = true;
    } else if (args[i] == "--fault-fileop" && i + 1 < args.size()) {
      // SITE:N — fail the Nth event at a named site, e.g. file_write:3.
      const std::string spec = args[++i];
      const std::size_t colon = spec.find(':');
      rt::FaultSite site = rt::FaultSite::kCount;
      if (colon == std::string::npos ||
          !rt::parse_fault_site(spec.substr(0, colon).c_str(), &site))
        throw UsageError(
            "--fault-fileop: expected SITE:N (sites: file_open, file_read, "
            "file_write, file_fsync, file_rename, file_close, "
            "file_unlink), got '" + spec + "'");
      fault_schedule.fail_nth(
          site, parse_u64_flag("--fault-fileop", spec.substr(colon + 1)));
      fault_requested = true;
    } else if (args[i] == "--fault-prob" && i + 1 < args.size()) {
      const std::string& value = args[++i];
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(
          value.data(), end, fault_schedule.probability);
      if (ec != std::errc{} || ptr != end ||
          !(fault_schedule.probability >= 0.0 &&
            fault_schedule.probability <= 1.0))
        throw UsageError("--fault-prob: expected a probability in [0, 1], "
                         "got '" + value + "'");
      // Probabilistic chaos targets the I/O and dispatch sites; the
      // allocation and poll sites have dedicated deterministic flags.
      fault_schedule.prob_mask =
          rt::FaultSchedule::site_bit(rt::FaultSite::kTaskDispatch) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileOpen) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileRead) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileWrite) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileFsync) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileRename) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileClose) |
          rt::FaultSchedule::site_bit(rt::FaultSite::kFileUnlink);
      fault_requested = true;
      fault_prob_given = true;
    } else if (args[i] == "--fault-seed" && i + 1 < args.size()) {
      fault_schedule.seed = parse_u64_flag("--fault-seed", args[++i]);
      fault_seed_given = true;
    } else if (args[i].rfind("--", 0) == 0) {
      throw UsageError("order: unknown flag or missing value: " + args[i]);
    } else {
      input = args[i];
    }
  }
  if (!input) throw UsageError("order: missing input");
  exec.prune = prune;  // after the loop: --threads rebuilds ExecPolicy

  // --trace: start span collection now so strategy setup (seeding, base
  // construction) is on the timeline too; flushed on every exit path.
  TraceFlusher trace_flusher;
  if (!trace_path.empty()) {
#if OVO_TRACE_ENABLED
    trace_flusher.path = trace_path;
    obs::trace::enable();
#else
    std::fprintf(stderr,
                 "note: --trace ignored (built with -DOVO_TRACE=OFF)\n");
#endif
  }
  // `budgeted` reflects the user's explicit limit flags only (the
  // signal-driven CancelToken is attached below), for the note that
  // --shared runs ignore them.
  const bool budgeted = !budget.unlimited();

  // Graceful interruption: Ctrl-C / SIGTERM trips the CancelToken and
  // the run winds down through the normal cancelled path (snapshot,
  // best-so-far JSON).  --fault-cancel-at trips the same token at a
  // deterministic governor checkpoint instead, for tests.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  budget.cancel = &g_interrupt;
  std::optional<rt::ScopedFaultPlan> fault;
  if (fault_cancel_at > 0) {
    fault_schedule.cancel_at_poll = fault_cancel_at;
    fault_schedule.cancel = &g_interrupt;
    fault_requested = true;
  }
  if (fault_requested) fault.emplace(fault_schedule);

  // --engine is a plain alias of --strategy; --strategy wins when both
  // are given.  An unknown name, or a flag only the exact DP reads on a
  // route that runs none (a checkpoint flag where no snapshot is kept, a
  // prune seed where no pruned ladder runs, --prune where no FS* DP
  // runs), is the user's error, found before the input is read.
  const reorder::Strategy* strategy = nullptr;
  if (!shared) {
    if (strategy_name.empty()) {
      if (engine != "fs" && engine != "bnb" && engine != "quantum")
        throw UsageError("--engine: expected fs, bnb or quantum, got '" +
                         engine + "'");
      strategy_name = engine;
    }
    strategy = reorder::find_strategy(strategy_name);
    if (strategy == nullptr)
      throw UsageError("--strategy: unknown strategy '" + strategy_name +
                       "' (see ovo --list-strategies)");
  }
  const std::string route =
      shared ? "--shared" : "strategy '" + strategy_name + "'";
  const bool ladder =
      !shared && (strategy_name == "fs" || strategy_name == "auto");
  const char* snapshot_flag = !checkpoint_path.empty() ? "--checkpoint"
                              : !resume_path.empty()   ? "--resume"
                              : checkpoint_every_given ? "--checkpoint-every"
                                                       : nullptr;
  if (!ladder && snapshot_flag != nullptr)
    throw UsageError(std::string(snapshot_flag) + ": " + route +
                     " takes no snapshot; only the fs and auto strategies "
                     "checkpoint");
  if (!ladder && prune_seed_given)
    throw UsageError("--prune-seed: " + route +
                     " takes no prune seed; only the fs and auto strategies "
                     "seed a pruned DP");
  if (prune_given && !ladder && !shared && strategy_name != "exact-window" &&
      strategy_name != "quantum")
    throw UsageError("--prune: " + route +
                     " runs no FS* DP; only fs, auto, exact-window, quantum "
                     "and --shared prune");
  // A flag that only qualifies another one means nothing without it: the
  // user's error too, found before the input is read.
  const struct {
    bool orphan;
    const char* flag;
    const char* needs;
  } qualifiers[] = {
      {!json_out.empty() && !json, "--json-out", "--json"},
      {checkpoint_every_given && checkpoint_path.empty(),
       "--checkpoint-every", "--checkpoint"},
      {prune_seed_given && prune != par::PruneMode::kBounds, "--prune-seed",
       "--prune bounds"},
      {fault_seed_given && !fault_prob_given, "--fault-seed",
       "--fault-prob"},
  };
  for (const auto& q : qualifiers)
    if (q.orphan) throw UsageError(std::string(q.flag) + ": needs " + q.needs);
  const LoadedInput loaded = load_input(*input);
  check_engine_limits(loaded, shared, strategy_name, kind);
  if (!json) std::printf("input: %s\n", loaded.description.c_str());

  if (shared) {
    if (budgeted)
      std::fprintf(stderr,
                   "note: budget flags are not supported with --shared\n");
    const auto r = core::fs_minimize_shared(loaded.outputs, kind, exec);
    if (json) {
      emit_json(json_order_string("fs-shared", kind, r.min_internal_nodes,
                                  true, r.min_internal_nodes, "complete",
                                  r.ops.table_cells,
                                  exec.resolved_threads(),
                                  r.order_root_first),
                json_out);
      return 0;
    }
    std::printf("shared minimum: %" PRIu64 " internal nodes\norder: ",
                r.min_internal_nodes);
    print_order(r.order_root_first);
    return 0;
  }

  const tt::TruthTable& f = loaded.outputs.front();
  if (loaded.outputs.size() > 1 && !json)
    std::printf("note: %zu outputs; optimizing the first (use --shared "
                "for all)\n",
                loaded.outputs.size());
  // A resumed run must replay the original run's configuration; the
  // snapshot's fingerprint pins the prune mode, so adopt it rather than
  // fail on a forgotten --prune flag (an actually different instance
  // still raises kWrongInstance inside the DP).
  core::FsStarSnapshot snapshot;
  if (!resume_path.empty()) {
    snapshot = core::load_snapshot(resume_path);
    const auto snap_prune = static_cast<par::PruneMode>(
        snapshot.fingerprint.prune);
    if (snap_prune != exec.prune) {
      std::fprintf(stderr,
                   "note: --resume snapshot was written with --prune %s; "
                   "adopting it\n",
                   snap_prune == par::PruneMode::kBounds ? "bounds" : "off");
      exec.prune = snap_prune;
    }
  }

  rt::Governor gov(budget);
  reorder::EvalContext ctx;
  ctx.exec = exec;
  // Always governed: an "unlimited" budget still carries the signal
  // cancel token, and work accounting is what a resumed run restores.
  ctx.gov = &gov;
  reorder::StrategyOptions sopt;
  sopt.kind = kind;
  sopt.prune_seed = prune_seed;
  sopt.ckpt.path = checkpoint_path;
  sopt.ckpt.every = checkpoint_every;
  if (!resume_path.empty()) sopt.ckpt.resume = &snapshot;
  const reorder::StrategyResult r = strategy->run(f, sopt, ctx);
  const std::string outcome = rt::outcome_name(r.outcome);
  if (json) {
    emit_json(json_order_string(strategy->name, kind, r.internal_nodes,
                                r.optimal, r.lower_bound, outcome,
                                r.run.work_units, exec.resolved_threads(),
                                r.order_root_first, &r.oracle,
                                r.sym_classes),
              json_out);
    return 0;
  }
  std::printf("strategy: %s (%" PRIu64 " size queries, %" PRIu64
              " evaluated, %" PRIu64 " memo hits; outcome %s)\n",
              strategy->name, r.oracle.queries, r.oracle.evals,
              r.oracle.memo_hits, outcome.c_str());
  std::printf("%s %s: %" PRIu64 " internal nodes\norder: ",
              r.optimal ? "minimum" : "best found",
              kind == core::DiagramKind::kZdd ? "ZDD" : "OBDD",
              r.internal_nodes);
  print_order(r.order_root_first);
  return 0;
}

int cmd_size(const std::vector<std::string>& args) {
  core::DiagramKind kind = core::DiagramKind::kBdd;
  std::string order_spec;
  std::optional<std::string> input;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--zdd") {
      kind = core::DiagramKind::kZdd;
    } else if (args[i] == "--order" && i + 1 < args.size()) {
      order_spec = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      throw UsageError("size: unknown flag or missing value: " + args[i]);
    } else {
      input = args[i];
    }
  }
  if (!input || order_spec.empty())
    throw UsageError("size: need --order and an input");
  const LoadedInput loaded = load_input(*input);
  std::vector<int> order;
  std::stringstream ss(order_spec);
  std::string item;
  // The CLI is 1-based like formulas.
  while (std::getline(ss, item, ','))
    order.push_back(parse_int_flag("--order", item, 1) - 1);
  const int n = loaded.outputs.front().num_vars();
  if (static_cast<int>(order.size()) != n || !util::is_permutation(order))
    throw UsageError("--order: expected a permutation of 1.." +
                     std::to_string(n) + ", got '" + order_spec + "'");
  const std::uint64_t s =
      core::diagram_size_for_order(loaded.outputs.front(), order, kind);
  std::printf("%" PRIu64 " internal nodes\n", s);
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  par::ExecPolicy exec;
  std::optional<std::string> input;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      exec = parse_threads(args[++i]);
    } else if (args[i].rfind("--", 0) == 0) {
      throw UsageError("compare: unknown flag or missing value: " + args[i]);
    } else {
      input = args[i];
    }
  }
  if (!input) throw UsageError("compare: missing input");
  const LoadedInput loaded = load_input(*input);
  const tt::TruthTable& f = loaded.outputs.front();
  std::printf("input: %s\n\n", loaded.description.c_str());
  const auto exact = core::fs_minimize(f, core::DiagramKind::kBdd, exec);
  std::vector<int> id(static_cast<std::size_t>(f.num_vars()));
  std::iota(id.begin(), id.end(), 0);
  reorder::CostOracle oracle(f, core::DiagramKind::kBdd);
  const reorder::EvalContext ctx{exec};
  const auto sifted = reorder::sift(oracle, id, /*max_passes=*/8, ctx);
  const std::uint64_t identity = core::diagram_size_for_order(f, id);
  std::printf("exact optimum : %" PRIu64 " internal nodes\n",
              exact.min_internal_nodes);
  std::printf("sifting       : %" PRIu64 "\n", sifted.internal_nodes);
  std::printf("identity order: %" PRIu64 "\n", identity);
  if (f.num_vars() <= 8) {
    const auto bf = reorder::brute_force_minimize(oracle, ctx);
    std::printf("pessimal order: %" PRIu64 "\n", bf.worst_internal_nodes);
  }
  return 0;
}

/// Largest --k `tables` accepts.  quantum::solve_alphas runs a
/// double-precision shooting chain that loses its digits beyond it: at
/// k = 13 Table 2's tower and at k >= 14 Table 1's root finder stop
/// converging.
constexpr int kMaxTablesK = 12;

int cmd_tables(const std::vector<std::string>& args) {
  int k = 6, iters = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--k" && i + 1 < args.size()) {
      try {
        k = static_cast<int>(
            parse_u64_flag("--k", args[++i], 1, kMaxTablesK));
      } catch (const UsageError& e) {
        throw UsageError(std::string(e.what()) +
                         " (Table 1's double-precision alpha chain loses "
                         "its digits past k = " +
                         std::to_string(kMaxTablesK) + ")");
      }
    } else if (args[i] == "--iters" && i + 1 < args.size()) {
      iters = parse_int_flag("--iters", args[++i], 1);
    } else {
      throw UsageError("tables: unknown flag or missing value: " + args[i]);
    }
  }
  std::printf("Table 1 (gamma_k):\n");
  for (int kk = 1; kk <= k; ++kk) {
    const auto s = quantum::solve_alphas(kk, 3.0);
    std::printf("  k=%d gamma=%.5f alphas:", kk, s.gamma);
    for (const double a : s.alphas) std::printf(" %.6f", a);
    std::printf("\n");
  }
  std::printf("Table 2 (composition tower, k=%d):\n", k);
  for (const auto& row : quantum::composition_tower(k, iters))
    std::printf("  beta=%.5f\n", row.gamma);
  return 0;
}

int cmd_dot(const std::vector<std::string>& args) {
  for (const std::string& a : args)
    if (a.rfind("--", 0) == 0)
      throw UsageError("dot: unknown flag: " + a);
  if (args.size() != 1) throw UsageError("dot: exactly one input");
  const LoadedInput loaded = load_input(args[0]);
  const tt::TruthTable& f = loaded.outputs.front();
  const auto r = core::fs_minimize(f);
  bdd::Manager m(f.num_vars(), r.order_root_first);
  std::printf("%s", m.to_dot(m.from_truth_table(f), "minimum").c_str());
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ovo order   [--zdd] [--strategy NAME] [--engine fs|bnb|quantum]\n"
      "              [--shared] [--threads N] [--prune off|bounds]\n"
      "              [--prune-seed sift|window|restarts|anneal|none]\n"
      "              [--timeout-ms N] [--node-limit N] [--mem-limit-mb N]\n"
      "              [--work-limit N] [--json] [--json-out FILE]\n"
      "              [--trace FILE] [--checkpoint FILE]\n"
      "              [--checkpoint-every K]\n"
      "              [--resume FILE] [--fault-cancel-at N]\n"
      "              [--fault-alloc-at N] [--fault-fileop SITE:N]\n"
      "              [--fault-prob P] [--fault-seed S] <input>\n"
      "  ovo size    --order v1,v2,... [--zdd] <input>\n"
      "  ovo compare [--threads N] <input>\n"
      "  ovo tables  [--k 1..12] [--iters N]\n"
      "  ovo dot     <input>\n"
      "  ovo --list-strategies\n"
      "<input>: file.pla | file.blif | a formula like \"x1 & x2 | x3\" |\n"
      "         - (a formula on standard input)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "--list-strategies") {
      print_strategy_list();
      return 0;
    }
    if (cmd == "order") return cmd_order(args);
    if (cmd == "size") return cmd_size(args);
    if (cmd == "compare") return cmd_compare(args);
    if (cmd == "tables") return cmd_tables(args);
    if (cmd == "dot") return cmd_dot(args);
    usage();
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    usage();
    return 2;
  } catch (const rt::CheckpointError& e) {
    // what() is already "<kind-name>: <detail>".
    std::fprintf(stderr, "checkpoint error: %s\n", e.what());
    return 3;
  } catch (const rt::FaultInjected& e) {
    std::fprintf(stderr, "injected fault: %s\n", e.what());
    return 4;
  } catch (const std::bad_alloc&) {
    // Real OOM or --fault-alloc-at; either way the run unwound cleanly.
    std::fprintf(stderr, "injected fault: allocation failure\n");
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
