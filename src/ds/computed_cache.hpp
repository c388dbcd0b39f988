#pragma once
// Bounded computed table (operation cache) with generation-based eviction —
// replaces the unbounded std::unordered_map ITE/op caches.
//
// The cache is direct-mapped over a power-of-two slot array: a store
// overwrites whatever lives in the slot (entries are memoized results of
// canonical operations, so losing one only costs recomputation, never
// correctness).  Invalidation — needed after an adjacent-level swap or a
// GC renumbering, when cached node ids go stale — bumps a generation
// counter in O(1) instead of clearing the array; slots from older
// generations read as misses.
//
// Capacity grows geometrically (dropping contents, which need no rehash)
// while the store rate indicates heavy eviction, up to a fixed cap, so the
// table stays bounded regardless of workload.  See docs/INTERNALS.md.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ds/hash.hpp"

namespace ovo::ds {

/// Always-on computed-cache counters, read through the managers' Stats.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;      ///< stores that displaced a live entry
  std::uint64_t resizes = 0;        ///< capacity growths
  std::uint64_t invalidations = 0;  ///< generation bumps

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Keys are a 64-bit word plus a 32-bit word: the BDD ITE cache packs
/// (f, g) into `a` and h into `b`; the ZDD op cache packs (p, q) into `a`
/// and the operation tag into `b`.
class ComputedCache {
 public:
  /// The slot array is allocated lazily on the first store, so managers
  /// that never reach the cached operation pay nothing for the cache.
  explicit ComputedCache(std::size_t initial_slots = 1u << 12,
                         std::size_t max_slots = 1u << 20)
      : initial_slots_(round_pow2(initial_slots)), max_slots_(max_slots) {}

  std::size_t capacity() const { return slots_.size(); }
  const CacheStats& stats() const { return stats_; }

  std::optional<std::uint32_t> lookup(std::uint64_t a, std::uint32_t b) {
    ++stats_.lookups;
    if (slots_.empty()) return std::nullopt;
    const Entry& e = slots_[index(a, b)];
    if (e.gen == gen_ && e.a == a && e.b == b) {
      ++stats_.hits;
      return e.val;
    }
    return std::nullopt;
  }

  void store(std::uint64_t a, std::uint32_t b, std::uint32_t val) {
    if (slots_.empty())
      slots_.resize(initial_slots_);
    else
      maybe_grow();
    Entry& e = slots_[index(a, b)];
    if (e.gen == gen_ && (e.a != a || e.b != b)) ++stats_.evictions;
    e = Entry{a, b, val, gen_};
    ++stats_.stores;
    ++stores_since_resize_;
  }

  /// O(1) full invalidation: stale-generation entries read as misses.
  void invalidate_all() {
    ++stats_.invalidations;
    if (++gen_ == 0) {  // generation wrap: physically reset once per 2^32
      slots_.assign(slots_.size(), Entry{});
      gen_ = 1;
    }
  }

  /// Live entries under the current generation (O(capacity); stats only).
  std::size_t live_entries() const {
    std::size_t n = 0;
    for (const Entry& e : slots_)
      if (e.gen == gen_) ++n;
    return n;
  }

 private:
  struct Entry {
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t val = 0;
    std::uint32_t gen = 0;  ///< valid iff == current generation (>= 1)
  };

  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 16;
    while (p < n) p *= 2;
    return p;
  }

  std::size_t index(std::uint64_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(mix64(a ^ mix64(
               std::uint64_t{b} * 0x9e3779b97f4a7c15ull))) &
           (slots_.size() - 1);
  }

  /// More stores than slots since the last resize implies heavy eviction:
  /// double (contents are recomputable, so growth just drops them).
  void maybe_grow() {
    if (slots_.size() >= max_slots_ || stores_since_resize_ <= slots_.size())
      return;
    slots_.assign(slots_.size() * 2, Entry{});
    gen_ = 1;
    stores_since_resize_ = 0;
    ++stats_.resizes;
  }

  std::vector<Entry> slots_;
  std::size_t initial_slots_;
  std::size_t max_slots_;
  std::size_t stores_since_resize_ = 0;
  std::uint32_t gen_ = 1;
  CacheStats stats_;
};

}  // namespace ovo::ds
