#include "quantum/grover.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "quantum/statevector.hpp"
#include "util/check.hpp"

namespace ovo::quantum {

namespace {

int qubits_for(std::uint64_t space) {
  int q = 0;
  while ((std::uint64_t{1} << q) < space) ++q;
  return q;
}

}  // namespace

std::optional<std::uint64_t> grover_search(
    std::uint64_t space, const std::function<bool(std::uint64_t)>& marked,
    util::Xoshiro256& rng, GroverStats* stats, const par::ExecPolicy& exec,
    rt::Governor* gov) {
  OVO_CHECK(space >= 1);
  const int q = qubits_for(space);
  Statevector psi(q);
  psi.set_exec_policy(exec);
  psi.set_governor(gov);
  const auto oracle = [&](std::uint64_t x) { return x < space && marked(x); };

  // BBHT: grow the iteration-count ceiling geometrically.
  const double lambda = 6.0 / 5.0;
  double m = 1.0;
  const double sqrt_dim = std::sqrt(static_cast<double>(psi.dimension()));
  // Total budget ~ 9 sqrt(N): past this, declare "no solution found".
  const std::uint64_t budget =
      9 * static_cast<std::uint64_t>(std::ceil(sqrt_dim)) + 9;
  std::uint64_t used = 0;
  while (used <= budget) {
    const std::uint64_t j =
        rng.below(static_cast<std::uint64_t>(std::ceil(m)));
    // One run sweeps the full amplitude vector ~3 times per iteration
    // (oracle + diffusion's reduce and write-back) plus once for the
    // measurement; admitting it whole, after the schedule draw, keeps the
    // RNG stream a deterministic prefix under a fixed work budget.
    if (gov != nullptr) {
      const std::uint64_t run_cost = (3 * j + 1) * psi.dimension();
      if (gov->stopped() || !gov->admit_work(run_cost)) return std::nullopt;
      gov->charge(run_cost);
    }
    OVO_TRACE_SPAN_ARGS("grover.run", "quantum", 0, "iterations", j,
                        "qubits", q);
    psi.reset_uniform();
    for (std::uint64_t i = 0; i < j; ++i) {
      psi.apply_phase_oracle(oracle);
      psi.apply_diffusion();
      if (gov != nullptr && gov->stopped()) return std::nullopt;
    }
    // Each run costs its Grover iterations plus the classical verification
    // of the measured candidate (counted as one query so the budget always
    // advances — j may be 0 when the schedule ceiling is 1).
    used += j + 1;
    if (stats != nullptr) {
      stats->oracle_queries += j + 1;
      ++stats->measurements;
    }
    const std::uint64_t x = psi.measure(rng);
    if (oracle(x)) return x;  // classical verification of the measurement
    m = std::min(lambda * m, sqrt_dim);
  }
  return std::nullopt;
}

MinFindResult durr_hoyer_min(const std::vector<std::int64_t>& values,
                             util::Xoshiro256& rng, int rounds,
                             const par::ExecPolicy& exec, rt::Governor* gov) {
  OVO_CHECK_MSG(!values.empty(), "durr_hoyer_min: empty value array");
  OVO_CHECK(rounds >= 1);
  const std::uint64_t n = values.size();
  MinFindResult out;
  bool have_best = false;

  for (int r = 0; r < rounds; ++r) {
    // Once the governor has recorded any non-complete outcome (soft
    // refusal or hard stop), further boosting rounds would be cut short
    // anyway — stop with the best index seen so far.
    if (gov != nullptr && gov->outcome() != rt::Outcome::kComplete) break;
    ++out.rounds;
    // DH threshold descent, starting from a uniformly random index.
    std::uint64_t threshold_idx = rng.below(n);
    while (true) {
      GroverStats stats;
      const std::int64_t threshold = values[threshold_idx];
      const auto better = [&](std::uint64_t x) {
        return values[x] < threshold;
      };
      const auto hit = grover_search(n, better, rng, &stats, exec, gov);
      out.oracle_queries += stats.oracle_queries;
      if (!hit.has_value()) break;  // probably at the minimum (or budget)
      threshold_idx = *hit;
    }
    if (!have_best ||
        values[threshold_idx] < values[out.best_index]) {
      out.best_index = threshold_idx;
      have_best = true;
    }
  }
  return out;
}

}  // namespace ovo::quantum
