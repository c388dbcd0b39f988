#include "tt/function_zoo.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace ovo::tt {

TruthTable pair_sum(int pairs) {
  OVO_CHECK(pairs >= 1);
  const int n = 2 * pairs;
  return TruthTable::tabulate(n, [&](std::uint64_t a) {
    for (int p = 0; p < pairs; ++p) {
      const bool x = (a >> (2 * p)) & 1u;
      const bool y = (a >> (2 * p + 1)) & 1u;
      if (x && y) return true;
    }
    return false;
  });
}

std::vector<int> pair_sum_interleaved_order(int pairs) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(2 * pairs));
  for (int p = 0; p < pairs; ++p) order.push_back(2 * p);      // x1,x3,x5...
  for (int p = 0; p < pairs; ++p) order.push_back(2 * p + 1);  // x2,x4,x6...
  return order;
}

std::vector<int> pair_sum_natural_order(int pairs) {
  std::vector<int> order(static_cast<std::size_t>(2 * pairs));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TruthTable parity(int n) {
  return TruthTable::tabulate(n, [](std::uint64_t a) {
    return (std::popcount(a) & 1) != 0;
  });
}

TruthTable conjunction(int n) {
  const std::uint64_t all = util::full_mask(n);
  return TruthTable::tabulate(n,
                              [all](std::uint64_t a) { return a == all; });
}

TruthTable disjunction(int n) {
  return TruthTable::tabulate(n, [](std::uint64_t a) { return a != 0; });
}

TruthTable majority(int n) {
  return TruthTable::tabulate(n, [n](std::uint64_t a) {
    return 2 * std::popcount(a) > n;
  });
}

TruthTable threshold(int n, int k) {
  return TruthTable::tabulate(n, [k](std::uint64_t a) {
    return std::popcount(a) >= k;
  });
}

TruthTable hidden_weighted_bit(int n) {
  return TruthTable::tabulate(n, [](std::uint64_t a) {
    const int w = std::popcount(a);
    if (w == 0) return false;
    return ((a >> (w - 1)) & 1u) != 0;
  });
}

TruthTable multiplier_bit(int n, int out_bit) {
  OVO_CHECK_MSG(n % 2 == 0, "multiplier_bit: n must be even");
  const int half = n / 2;
  OVO_CHECK(out_bit >= 0 && out_bit < n);
  const std::uint64_t lo_mask = util::full_mask(half);
  return TruthTable::tabulate(n, [=](std::uint64_t a) {
    const std::uint64_t u = a & lo_mask;
    const std::uint64_t v = (a >> half) & lo_mask;
    return ((u * v) >> out_bit) & 1u;
  });
}

TruthTable multiplier_middle_bit(int n) {
  return multiplier_bit(n, n / 2 - 1);
}

TruthTable adder_carry(int n) {
  OVO_CHECK_MSG(n % 2 == 0, "adder_carry: n must be even");
  const int half = n / 2;
  return TruthTable::tabulate(n, [=](std::uint64_t a) {
    // Interleaved operands: even bits -> u, odd bits -> v.
    std::uint64_t u = 0, v = 0;
    for (int i = 0; i < half; ++i) {
      u |= ((a >> (2 * i)) & 1u) << i;
      v |= ((a >> (2 * i + 1)) & 1u) << i;
    }
    return ((u + v) >> half) & 1u;
  });
}

TruthTable indirect_storage_access(int n) {
  int sel = 0;
  while ((1 << sel) < n - sel) ++sel;
  OVO_CHECK_MSG(sel >= 1 && sel < n, "indirect_storage_access: n too small");
  const int data = n - sel;
  return TruthTable::tabulate(n, [=](std::uint64_t a) {
    const std::uint64_t idx = a & util::full_mask(sel);
    if (idx >= static_cast<std::uint64_t>(data)) return false;
    return ((a >> (sel + idx)) & 1u) != 0;
  });
}

TruthTable random_function(int n, util::Xoshiro256& rng) {
  return TruthTable::tabulate(
      n, [&rng](std::uint64_t) { return rng.coin(); });
}

TruthTable random_sparse_function(int n, std::uint64_t ones,
                                  util::Xoshiro256& rng) {
  TruthTable t(n);
  const std::uint64_t cells = t.size();
  OVO_CHECK_MSG(ones <= cells, "random_sparse_function: too many ones");
  // Floyd's sampling: uniform `ones`-subset of cells.
  std::vector<std::uint64_t> chosen;
  chosen.reserve(ones);
  for (std::uint64_t j = cells - ones; j < cells; ++j) {
    const std::uint64_t t_cand = rng.below(j + 1);
    const bool hit =
        std::find(chosen.begin(), chosen.end(), t_cand) != chosen.end();
    chosen.push_back(hit ? j : t_cand);
  }
  for (std::uint64_t c : chosen) t.set(c, true);
  return t;
}

TruthTable random_read_once(int n, util::Xoshiro256& rng) {
  std::vector<int> vars(static_cast<std::size_t>(n));
  std::iota(vars.begin(), vars.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(vars[static_cast<std::size_t>(i)], vars[rng.below(
        static_cast<std::uint64_t>(i) + 1)]);
  // Fold a random AND/OR tree over the shuffled variables.
  std::vector<bool> ops;  // true = AND
  for (int i = 0; i + 1 < n; ++i) ops.push_back(rng.coin());
  return TruthTable::tabulate(n, [&](std::uint64_t a) {
    bool acc = ((a >> vars[0]) & 1u) != 0;
    for (int i = 1; i < n; ++i) {
      const bool x = ((a >> vars[static_cast<std::size_t>(i)]) & 1u) != 0;
      acc = ops[static_cast<std::size_t>(i - 1)] ? (acc && x) : (acc || x);
    }
    return acc;
  });
}

TruthTable random_negated_conjunction(int n, int negated,
                                      util::Xoshiro256& rng) {
  OVO_CHECK_MSG(negated >= 0 && negated <= n,
                "random_negated_conjunction: negated outside [0, n]");
  util::Mask zeros = 0;
  while (util::popcount(zeros) < negated)
    zeros |= util::Mask{1} << rng.below(static_cast<std::uint64_t>(n));
  const TruthTable g = random_function(n, rng);
  return TruthTable::tabulate(
      n, [&](std::uint64_t a) { return (a & zeros) == 0 && g.get(a); });
}

}  // namespace ovo::tt
