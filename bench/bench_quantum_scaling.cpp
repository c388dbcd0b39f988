// Theorems 10/13 claim: the quantum algorithm's time grows as
// O*(gamma^n) with gamma <= 2.83728 (k = 6) resp. 2.77286 (tower), versus
// FS's 3^n.  Absolute numbers come from a simulator, so we reproduce the
// *shape*: (a) simulated runs at small n whose charged quantum work
// undercuts the classical simulation work, and (b) the analytic recurrence
// evaluated at large n, whose fitted growth base must land near the
// paper's gamma and strictly below 3.

// Flags: --json <path> (emit the per-n simulation rows as a JSON array,
// written atomically; each row mirrors the run into the unified reorder
// cost-oracle ledger and carries its queries / evals / memo-hits
// counters).  Every count here is the same on every run and at every
// thread count (MigrationPins.QuantumOptObdd pins the latter); time
// belongs to the repo benchmark (perfbench/).
//
// Budget flags (--timeout-ms / --node-limit / --mem-limit-mb /
// --work-limit) put one rt::Governor over the whole simulation sweep:
// each row's classical table cells are charged after it completes and
// the governor is polled between rows, so a trip skips the remaining
// (larger) rows.  Every emitted row carries its Outcome, the skipped
// rows are reported, and the growth-fit exit checks are waived (a
// truncated sweep no longer measures the full shape).

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/minimize.hpp"
#include "obs/metrics.hpp"
#include "quantum/analysis.hpp"
#include "quantum/opt_obdd.hpp"
#include "quantum/params.hpp"
#include "rt/budget.hpp"
#include "rt/checkpoint.hpp"
#include "tt/function_zoo.hpp"
#include "util/fit.hpp"
#include "util/rng.hpp"

namespace {

void appendf(std::string& s, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ovo;
  util::Xoshiro256 rng(7);

  std::string json_path;
  rt::Budget budget;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      budget.deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--node-limit") == 0 && i + 1 < argc) {
      budget.node_limit = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mem-limit-mb") == 0 && i + 1 < argc) {
      budget.bytes_limit =
          std::strtoull(argv[++i], nullptr, 10) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--work-limit") == 0 && i + 1 < argc) {
      budget.work_limit = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_quantum_scaling [--json path] "
          "[--timeout-ms N] [--node-limit N] [--mem-limit-mb N] "
          "[--work-limit N]\n");
      return 2;
    }
  }
  const bool budgeted = !budget.unlimited();
  rt::Governor gov(budget);
  if (budgeted) {
    std::printf("budgeted sweep: one governor over all rows (classical "
                "cells charged per row)\n\n");
  }

  // --- (a) simulated runs at small n --------------------------------------
  std::printf("OptOBDD simulation (k = 1, alpha = 0.27, accounting "
              "finder)\n\n");
  std::printf("%3s %12s %16s %18s %10s\n", "n", "FS cells",
              "sim classical", "quantum charged", "min ok");
  bool all_optimal = true;
  std::string rows;  // the JSON array's rows, comma-separated
  int rows_skipped = 0;
  for (int n = 5; n <= 11; ++n) {
    if (budgeted &&
        (gov.stopped() || gov.outcome() != rt::Outcome::kComplete)) {
      ++rows_skipped;
      continue;
    }
    const tt::TruthTable t = tt::random_function(n, rng);
    const core::MinimizeResult fs = core::fs_minimize(t);
    quantum::AccountingMinimumFinder finder(static_cast<double>(n));
    quantum::OptObddOptions opt;
    opt.alphas = {0.27};
    opt.finder = &finder;
    // Mirror the run into the unified cost-oracle ledger so the JSON rows
    // carry the same queries/evals/memo-hits fields as the FS bench.
    reorder::OracleStats ostats;
    opt.oracle_stats = &ostats;
    const quantum::OptObddResult q = quantum::opt_obdd_minimize(t, opt);
    if (budgeted) {
      // The row ran to completion before its cost is known, so charge it
      // afterwards; the poll inside charge() also checks the deadline.
      gov.charge(q.classical_ops.table_cells);
    }
    const bool ok = q.min_internal_nodes == fs.min_internal_nodes;
    all_optimal &= ok;
    std::printf("%3d %12llu %16llu %18.0f %10s\n", n,
                static_cast<unsigned long long>(fs.ops.table_cells),
                static_cast<unsigned long long>(q.classical_ops.table_cells),
                q.quantum.quantum_charged_cells, ok ? "yes" : "NO");

    // Counters render through the obs shared serializer, so the keys here
    // are the metric table's — identical to the FS bench and CLI.  The
    // oracle ledger's table_cells are the simulation's classical cells.
    obs::Ledger l;
    ostats.to_ledger(l);
    std::string row = "  {";
    appendf(row, "\"n\":%d", n);
    appendf(row, ",\"fs_table_cells\":%" PRIu64, fs.ops.table_cells);
    obs::append_json_f64(row, "quantum_charged_cells",
                         q.quantum.quantum_charged_cells);
    obs::append_json_str(row, "outcome", rt::outcome_name(gov.outcome()));
    obs::append_metrics_json(
        row, l,
        {obs::Metric::kOracleQueries, obs::Metric::kOracleEvals,
         obs::Metric::kOracleMemoHits, obs::Metric::kOracleMinFindCalls,
         obs::Metric::kOracleMinFindQueries, obs::Metric::kFsTableCells});
    obs::append_run_info_json(row, /*threads=*/1);
    if (!rows.empty()) rows += ",\n";
    rows += row + "}";
  }
  if (budgeted) {
    std::printf("\nbudget outcome: %s (%d of 7 rows skipped)\n",
                rt::outcome_name(gov.outcome()), rows_skipped);
  }

  // --- (b) analytic recurrence at large n ----------------------------------
  std::printf("\nAnalytic recurrence (Theorem 10, k = 6 paper alphas) vs "
              "FS, n = 30..60:\n\n");
  const quantum::ChainSolution k6 = quantum::solve_alphas(6, 3.0);
  std::printf("%4s %16s %16s %12s\n", "n", "log2 FS cells",
              "log2 quantum", "advantage");
  for (int n = 30; n <= 60; n += 5) {
    const auto bounds = quantum::realize_boundaries(k6.alphas, n);
    const quantum::PredictedCost pc =
        quantum::opt_obdd_predicted_cells(n, bounds);
    const double fs = quantum::fs_total_cells(n);
    std::printf("%4d %16.2f %16.2f %11.1fx\n", n, std::log2(fs),
                std::log2(pc.total), fs / pc.total);
  }

  // Fit the growth bases far out where the O*(.)-hidden polynomial factor
  // stops biasing the slope.
  std::vector<int> ns;
  std::vector<double> fs_curve, q_curve;
  for (int n = 100; n <= 220; n += 10) {
    const auto bounds = quantum::realize_boundaries(k6.alphas, n);
    ns.push_back(n);
    fs_curve.push_back(quantum::fs_total_cells(n));
    q_curve.push_back(quantum::opt_obdd_predicted_cells(n, bounds).total);
  }
  const util::ExponentFit fs_fit = util::fit_exponent(ns, fs_curve);
  const util::ExponentFit q_fit = util::fit_exponent(ns, q_curve);
  std::printf("\nfitted growth bases (n = 100..220): FS %.4f (paper 3.0), "
              "quantum %.4f (paper gamma_6 = %.5f)\n",
              fs_fit.base, q_fit.base, k6.gamma);

  if (!json_path.empty()) {
    // One atomic commit of the whole artifact: a killed bench never
    // leaves a torn JSON array under json_path.
    const std::string json = "[\n" + rows + "\n]\n";
    try {
      rt::write_file_atomic(json_path, json.data(), json.size());
    } catch (const rt::CheckpointError& e) {
      std::fprintf(stderr, "cannot write '%s': %s\n", json_path.c_str(),
                   e.what());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (budgeted) {
    // A truncated sweep no longer measures the claimed shape; report what
    // ran and exit clean.
    std::printf("result: budgeted sweep finished (%s); shape checks "
                "waived\n",
                rt::outcome_name(gov.outcome()));
    return 0;
  }
  const bool shape_ok = all_optimal &&
                        q_fit.base < fs_fit.base &&
                        std::fabs(q_fit.base - k6.gamma) < 0.05 &&
                        std::fabs(fs_fit.base - 3.0) < 0.02;
  std::printf("result: %s\n",
              shape_ok
                  ? "quantum growth base lands at gamma_6, below FS's 3^n"
                  : "MISMATCH in growth bases");
  return shape_ok ? 0 : 1;
}
