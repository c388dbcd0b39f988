#include "quantum/min_find.hpp"

#include <algorithm>
#include <cmath>

#include "quantum/grover.hpp"
#include "util/check.hpp"

namespace ovo::quantum {

AccountingMinimumFinder::AccountingMinimumFinder(double log_inv_eps,
                                                 double failure_rate,
                                                 std::uint64_t seed)
    : log_inv_eps_(std::max(1.0, log_inv_eps)),
      failure_rate_(failure_rate),
      rng_(seed) {
  OVO_CHECK(failure_rate >= 0.0 && failure_rate < 1.0);
}

MinOutcome AccountingMinimumFinder::find_min(
    const std::vector<std::int64_t>& values) {
  OVO_CHECK_MSG(!values.empty(), "find_min: empty value array");
  MinOutcome out;
  std::size_t argmin = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (values[i] < values[argmin]) argmin = i;
  out.best_index = argmin;
  out.quantum_queries =
      std::sqrt(static_cast<double>(values.size())) * log_inv_eps_;
  if (failure_rate_ > 0.0 && values.size() > 1 &&
      rng_.uniform() < failure_rate_) {
    // DH failure mode: the answer is some candidate that is not the
    // minimum (still a valid prefix/ordering, just suboptimal).
    std::size_t other = rng_.below(values.size());
    if (other == argmin) other = (other + 1) % values.size();
    out.best_index = other;
    out.failed = true;
  }
  return out;
}

GroverMinimumFinder::GroverMinimumFinder(int rounds, std::uint64_t seed,
                                         const par::ExecPolicy& exec)
    : rounds_(rounds), rng_(seed), exec_(exec) {
  OVO_CHECK(rounds >= 1);
}

MinOutcome GroverMinimumFinder::find_min(
    const std::vector<std::int64_t>& values) {
  OVO_CHECK_MSG(!values.empty(), "find_min: empty value array");
  const MinFindResult r = durr_hoyer_min(values, rng_, rounds_, exec_);
  MinOutcome out;
  out.best_index = r.best_index;
  out.quantum_queries = static_cast<double>(r.oracle_queries);
  const std::int64_t true_min =
      *std::min_element(values.begin(), values.end());
  out.failed = values[r.best_index] != true_min;
  return out;
}

}  // namespace ovo::quantum
