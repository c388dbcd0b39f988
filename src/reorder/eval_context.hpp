#pragma once
// The single way execution policy and budget reach an ordering
// algorithm, plus the unified cost-oracle counters every algorithm
// reports through.  Header-only on purpose: the bdd and quantum layers
// use these types without linking ovo_reorder (only ovo_rt, for the
// Governor the context points at).

#include <cstdint>

#include "core/prefix_table.hpp"
#include "obs/metrics.hpp"
#include "parallel/exec_policy.hpp"
#include "rt/budget.hpp"

namespace ovo::reorder {

/// Unified per-search statistics, replacing the per-algorithm
/// orders_evaluated / chain-cost counters.  Every size query an algorithm
/// makes is either answered without computing (memo_hits: sift's
/// repeated steps, answered from the sizes the step kept) or actually
/// evaluated (evals); queries == memo_hits + evals holds unless a hard
/// stop cut an evaluation short.
struct OracleStats {
  std::uint64_t queries = 0;    ///< size queries answered
  std::uint64_t evals = 0;      ///< size queries actually computed
  std::uint64_t memo_hits = 0;  ///< queries answered without evaluating
  /// Table cells processed by the evaluations (the paper's work measure);
  /// also collects DP/compaction work for the non-chain engines.
  core::OpCounter ops;
  /// Quantum minimum-finding mirror: calls made and the queries a quantum
  /// computer would have spent, so classical and Grover-simulated paths
  /// count their oracle queries in the same ledger.
  std::uint64_t min_find_calls = 0;
  double min_find_queries = 0.0;

  /// Accumulates this struct into `l` under oracle.* (plus the nested
  /// OpCounter's fs.* / ds.unique.* / fs.prune.* slots).
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kOracleQueries, queries);
    l.record(obs::Metric::kOracleEvals, evals);
    l.record(obs::Metric::kOracleMemoHits, memo_hits);
    l.record(obs::Metric::kOracleMinFindCalls, min_find_calls);
    l.add_f64(obs::Metric::kOracleMinFindQueries, min_find_queries);
    ops.to_ledger(l);
  }
  void from_ledger(const obs::Ledger& l) {
    queries = l.get(obs::Metric::kOracleQueries);
    evals = l.get(obs::Metric::kOracleEvals);
    memo_hits = l.get(obs::Metric::kOracleMemoHits);
    min_find_calls = l.get(obs::Metric::kOracleMinFindCalls);
    min_find_queries = l.get_f64(obs::Metric::kOracleMinFindQueries);
    ops.from_ledger(l);
  }

  /// Shard merge under the registry's policies (all oracle.* metrics
  /// are sums; the nested ops ledger maxes its peaks).
  OracleStats& operator+=(const OracleStats& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }
};

/// Everything an ordering algorithm needs from its caller.  Defaults
/// reproduce the ungoverned serial path exactly: no governor, one thread.
/// Stochastic strategies take their random stream as an explicit
/// parameter.
struct EvalContext {
  par::ExecPolicy exec{};
  /// Budget enforcement; nullptr = unlimited.  Not owned.
  rt::Governor* gov = nullptr;
  /// Optional external counter sink for algorithms that run without a
  /// CostOracle of their own (dynamic sifting, the quantum layer).
  OracleStats* stats = nullptr;
};

}  // namespace ovo::reorder
