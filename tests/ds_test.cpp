// Unit tests for the shared ovo::ds node-store layer: open-addressed
// unique table, bounded computed cache, SoA node arena, and the hash
// mixers — including a collision-rate regression test against the weak
// shift-xor triple hash the layer replaced.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "ds/computed_cache.hpp"
#include "ds/hash.hpp"
#include "ds/node_arena.hpp"
#include "ds/unique_table.hpp"
#include "util/rng.hpp"

namespace ovo::ds {
namespace {

TEST(UniqueTable, FindOrInsertAssignsAndHits) {
  UniqueTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(pack_pair(3, 4)), nullptr);

  const auto [id1, ins1] = t.find_or_insert(pack_pair(3, 4), 10);
  EXPECT_TRUE(ins1);
  EXPECT_EQ(id1, 10u);
  const auto [id2, ins2] = t.find_or_insert(pack_pair(3, 4), 11);
  EXPECT_FALSE(ins2);
  EXPECT_EQ(id2, 10u);  // existing value wins
  ASSERT_NE(t.find(pack_pair(3, 4)), nullptr);
  EXPECT_EQ(*t.find(pack_pair(3, 4)), 10u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(UniqueTable, GrowsPastInitialCapacityAndKeepsEntries) {
  UniqueTable t;
  const int kN = 10000;
  for (std::uint32_t i = 0; i < kN; ++i)
    t.find_or_insert(pack_pair(i, i + 1), i);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kN));
  for (std::uint32_t i = 0; i < kN; ++i) {
    const std::uint32_t* v = t.find(pack_pair(i, i + 1));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_GT(t.stats().resizes, 0u);
  // Power-of-two capacity under the 0.7 max load factor.
  EXPECT_EQ(t.capacity() & (t.capacity() - 1), 0u);
  EXPECT_LE(t.size() * 10, t.capacity() * 7);
}

TEST(UniqueTable, ReserveAvoidsRehash) {
  UniqueTable t;
  t.reserve(10000);
  const std::uint64_t resizes_before = t.stats().resizes;
  for (std::uint32_t i = 0; i < 10000; ++i)
    t.find_or_insert(pack_pair(i, i), i);
  EXPECT_EQ(t.stats().resizes, resizes_before);
}

TEST(UniqueTable, ClearKeepsCapacity) {
  UniqueTable t;
  for (std::uint32_t i = 0; i < 1000; ++i) t.find_or_insert(i, i);
  const std::size_t cap = t.capacity();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_EQ(t.find(0), nullptr);
  // Re-inserting after clear works and finds fresh values.
  t.find_or_insert(0, 42);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 42u);
}

TEST(UniqueTable, ZeroIsAValidValue) {
  UniqueTable t;
  t.find_or_insert(pack_pair(7, 8), 0);
  ASSERT_NE(t.find(pack_pair(7, 8)), nullptr);
  EXPECT_EQ(*t.find(pack_pair(7, 8)), 0u);
}

TEST(UniqueTable, CountersTrackLookupsAndHits) {
  UniqueTable t;
  t.find_or_insert(1, 1);   // miss + insert
  t.find_or_insert(1, 2);   // hit
  (void)t.find(1);          // hit
  (void)t.find(2);          // miss
  const TableStats& s = t.stats();
  EXPECT_EQ(s.lookups, 4u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_GE(s.probes, s.lookups);
}

TEST(ComputedCache, StoreLookupRoundTrip) {
  ComputedCache c;
  EXPECT_FALSE(c.lookup(pack_pair(2, 3), 4).has_value());
  c.store(pack_pair(2, 3), 4, 77);
  const auto hit = c.lookup(pack_pair(2, 3), 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 77u);
  // Different second word = different key.
  EXPECT_FALSE(c.lookup(pack_pair(2, 3), 5).has_value());
  EXPECT_EQ(c.live_entries(), 1u);
}

TEST(ComputedCache, InvalidateAllDropsEverything) {
  ComputedCache c;
  for (std::uint32_t i = 0; i < 100; ++i) c.store(i, i, i);
  EXPECT_GT(c.live_entries(), 0u);
  c.invalidate_all();
  EXPECT_EQ(c.live_entries(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i)
    EXPECT_FALSE(c.lookup(i, i).has_value());
  EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(ComputedCache, StaysBoundedUnderChurn) {
  const std::size_t kMax = 1u << 8;
  ComputedCache c(1u << 4, kMax);
  for (std::uint32_t i = 0; i < 100000; ++i)
    c.store(i, i, i);
  EXPECT_LE(c.capacity(), kMax);
  EXPECT_GT(c.stats().evictions, 0u);
  EXPECT_GT(c.stats().resizes, 0u);
}

TEST(ComputedCache, OverwriteOnCollisionKeepsLatest) {
  // Force collisions with a single-slot max capacity.
  ComputedCache c(1, 1);
  EXPECT_EQ(c.capacity(), 0u);  // lazily allocated: nothing until a store
  c.store(1, 1, 10);
  EXPECT_EQ(c.capacity(), 16u);  // rounded up to the minimum
  c.store(2, 2, 20);
  // Whatever else happened, the most recent store must be retrievable.
  const auto hit = c.lookup(2, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 20u);
}

TEST(NodeArena, PushAndAccessors) {
  NodeArena a;
  EXPECT_EQ(a.size(), 0u);
  const std::uint32_t id0 = a.push(5, 0, 0);
  const std::uint32_t id1 = a.push(3, 0, 1);
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(a.level(1), 3);
  EXPECT_EQ(a.lo(1), 0u);
  EXPECT_EQ(a.hi(1), 1u);
  a.set_level(1, 2);
  a.set_children(1, 1, 0);
  EXPECT_EQ(a.level(1), 2);
  EXPECT_EQ(a.lo(1), 1u);
  EXPECT_EQ(a.hi(1), 0u);
}

// --- hash quality regression -------------------------------------------------

/// The seed's bdd::Manager ITE-cache hash: (f << 32) ^ (g << 16) ^ h.
/// The shifted operands overlap in the middle 32 bits, so structured
/// (f, g, h) triples collide in whole families.
std::uint64_t weak_triple_hash(std::uint32_t f, std::uint32_t g,
                               std::uint32_t h) {
  return (std::uint64_t{f} << 32) ^ (std::uint64_t{g} << 16) ^
         std::uint64_t{h};
}

TEST(HashQuality, WeakTripleHashCollidesOnStructuredTriples) {
  // Family 1: flipping the same bit in g and in h<<16 cancels in the xor.
  const std::uint32_t f = 12345, g = 0x40000, h = 3;
  for (std::uint32_t d = 1; d < 1u << 12; d <<= 1) {
    EXPECT_EQ(weak_triple_hash(f, g, h),
              weak_triple_hash(f, g ^ d, h ^ (d << 16)))
        << "expected collision for d=" << d;
  }
}

TEST(HashQuality, MixedTripleHashSeparatesStructuredTriples) {
  // The same structured families must not collide under hash_triple, and
  // random triples must spread: measure collisions into 2^16 buckets.
  const std::uint32_t f = 12345, g = 0x40000, h = 3;
  for (std::uint32_t d = 1; d < 1u << 12; d <<= 1)
    EXPECT_NE(hash_triple(f, g, h), hash_triple(f, g ^ d, h ^ (d << 16)));

  util::Xoshiro256 rng(17);
  const int kTriples = 1 << 14;
  const std::uint64_t kBuckets = 1 << 16;
  std::set<std::uint64_t> seen;
  int collisions = 0;
  for (int i = 0; i < kTriples; ++i) {
    // Structured ids (small, clustered) like a real node pool produces.
    const auto a = static_cast<std::uint32_t>(rng.below(1 << 18));
    const auto b = static_cast<std::uint32_t>(rng.below(1 << 12));
    const auto c = static_cast<std::uint32_t>(rng.below(1 << 6));
    if (!seen.insert(hash_triple(a, b, c) & (kBuckets - 1)).second)
      ++collisions;
  }
  // Birthday bound: ~ k^2 / (2m) = 2^28 / 2^17 = 2048 expected collisions;
  // allow 2x slack. The weak hash loses whole 16-bit ranges and lands far
  // above this.
  EXPECT_LT(collisions, 4096);

  std::set<std::uint64_t> weak_seen;
  int weak_collisions = 0;
  util::Xoshiro256 rng2(17);
  for (int i = 0; i < kTriples; ++i) {
    const auto a = static_cast<std::uint32_t>(rng2.below(1 << 18));
    const auto b = static_cast<std::uint32_t>(rng2.below(1 << 12));
    const auto c = static_cast<std::uint32_t>(rng2.below(1 << 6));
    if (!weak_seen.insert(weak_triple_hash(a, b, c) & (kBuckets - 1)).second)
      ++weak_collisions;
  }
  // Regression direction: the mixed hash must beat the weak one.
  EXPECT_LT(collisions, weak_collisions);
}

TEST(HashQuality, Mix64IsABijectionOnSamples) {
  // mix64 is invertible (murmur3 finalizer); distinct inputs must map to
  // distinct outputs.
  std::unordered_set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i)
    EXPECT_TRUE(outs.insert(mix64(i)).second);
}

}  // namespace
}  // namespace ovo::ds
