#include "tt/truth_table.hpp"

#include <bit>
#include <unordered_set>

namespace ovo::tt {

TruthTable TruthTable::from_bits(int n, const std::string& bits) {
  TruthTable t(n);
  OVO_CHECK_MSG(bits.size() == t.size(), "from_bits: wrong length");
  for (std::uint64_t a = 0; a < t.size(); ++a) {
    const char c = bits[a];
    OVO_CHECK_MSG(c == '0' || c == '1', "from_bits: invalid character");
    t.set(a, c == '1');
  }
  return t;
}

TruthTable TruthTable::from_words(int n, std::vector<std::uint64_t> words) {
  TruthTable t(n);
  OVO_CHECK_MSG(words.size() == t.words_.size(), "from_words: wrong length");
  t.words_ = std::move(words);
  // Cells past 2^n stay zero, so whole words compare equal exactly when
  // the functions do.
  if (n < 6) t.words_[0] &= util::full_mask(1 << n);
  return t;
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t total = 0;
  for (const std::uint64_t word : words_)
    total += static_cast<std::uint64_t>(std::popcount(word));
  return total;
}

bool TruthTable::is_constant() const {
  const std::uint64_t ones = count_ones();
  return ones == 0 || ones == size();
}

bool TruthTable::depends_on(int var) const {
  OVO_CHECK(var >= 0 && var < n_);
  const std::uint64_t step = std::uint64_t{1} << var;
  for (std::uint64_t a = 0; a < size(); ++a) {
    if ((a & step) != 0) continue;
    if (get(a) != get(a | step)) return true;
  }
  return false;
}

util::Mask TruthTable::support() const {
  util::Mask m = 0;
  for (int v = 0; v < n_; ++v)
    if (depends_on(v)) m |= util::Mask{1} << v;
  return m;
}

TruthTable TruthTable::restrict_var(int var, bool val) const {
  OVO_CHECK(var >= 0 && var < n_);
  TruthTable out(n_);
  const std::uint64_t step = std::uint64_t{1} << var;
  for (std::uint64_t a = 0; a < size(); ++a) {
    const std::uint64_t src = val ? (a | step) : (a & ~step);
    out.set(a, get(src));
  }
  return out;
}

TruthTable TruthTable::cofactor(int var, bool val) const {
  OVO_CHECK(var >= 0 && var < n_);
  OVO_CHECK_MSG(n_ >= 1, "cofactor of 0-ary function");
  TruthTable out(n_ - 1);
  const util::Mask low = util::full_mask(var);
  for (std::uint64_t a = 0; a < out.size(); ++a) {
    // Insert `val` at position `var` in assignment a.
    const std::uint64_t hi = (a & ~low) << 1;
    const std::uint64_t src =
        hi | (a & low) | (val ? (std::uint64_t{1} << var) : 0);
    out.set(a, get(src));
  }
  return out;
}

TruthTable TruthTable::permute_inputs(const std::vector<int>& perm) const {
  OVO_CHECK_MSG(static_cast<int>(perm.size()) == n_,
                "permute_inputs: arity mismatch");
  TruthTable out(n_);
  for (std::uint64_t a = 0; a < size(); ++a) {
    std::uint64_t b = 0;
    for (int i = 0; i < n_; ++i) {
      const int p = perm[static_cast<std::size_t>(i)];
      OVO_DCHECK(p >= 0 && p < n_);
      b |= ((a >> i) & 1u) << p;
    }
    out.set(a, get(b));
  }
  return out;
}

std::uint64_t TruthTable::count_distinct_subfunctions(util::Mask bottom) const {
  OVO_CHECK(util::is_subset(bottom, util::full_mask(n_)));
  const util::Mask top = util::full_mask(n_) & ~bottom;
  const int top_bits = util::popcount(top);
  const int bot_bits = util::popcount(bottom);
  std::unordered_set<std::string> seen;
  for (std::uint64_t t = 0; t < (std::uint64_t{1} << top_bits); ++t) {
    const std::uint64_t top_assign = util::scatter_bits(t, top);
    std::string sub;
    sub.reserve(std::uint64_t{1} << bot_bits);
    for (std::uint64_t b = 0; b < (std::uint64_t{1} << bot_bits); ++b) {
      const std::uint64_t a = top_assign | util::scatter_bits(b, bottom);
      sub.push_back(get(a) ? '1' : '0');
    }
    seen.insert(std::move(sub));
  }
  return seen.size();
}

TruthTable TruthTable::operator~() const {
  std::vector<std::uint64_t> words(words_.size());
  for (std::size_t w = 0; w < words_.size(); ++w) words[w] = ~words_[w];
  return from_words(n_, std::move(words));
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  check_same_shape(o);
  TruthTable out(n_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] & o.words_[w];
  return out;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  check_same_shape(o);
  TruthTable out(n_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] | o.words_[w];
  return out;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  check_same_shape(o);
  TruthTable out(n_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] ^ o.words_[w];
  return out;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(n_);
  for (const std::uint64_t word : words_) {
    h ^= word;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

std::string TruthTable::to_bit_string() const {
  std::string s;
  s.reserve(size());
  for (std::uint64_t a = 0; a < size(); ++a) s.push_back(get(a) ? '1' : '0');
  return s;
}

}  // namespace ovo::tt
