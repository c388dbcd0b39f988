#pragma once
// Open-addressed, power-of-two, linear-probing hash map from 64-bit keys
// to 32-bit ids — the unique-table kernel under all three diagram
// managers, and the MTBDD value interning of core::initial_table_values.
// (COMPACT keeps its own pair table in core/prefix_table.cpp.)
//
// Layout is two parallel flat arrays (keys, values); a slot is empty iff
// its value is kEmptySlot, so values must stay below 0xffffffff (node ids
// are dense arena indices, far below that).  There is no per-entry
// deletion — managers clear whole level tables (adjacent-level swap) or
// rebuild them (garbage collection), both of which map to clear()/insert.
//
// Always-on counters (lookups, hits, inserts, resizes, probes) are cheap
// relative to the probe itself and are surfaced through each manager's
// Stats; see docs/INTERNALS.md.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ds/hash.hpp"
#include "obs/metrics.hpp"
#include "rt/fault.hpp"
#include "util/check.hpp"

namespace ovo::ds {

/// Always-on instrumentation for one table (mergeable across tables).
/// A view over the obs registry's ds.unique.* metrics: the fields keep
/// their zero-cost hot-path increments, but merging is defined by the
/// registry's per-metric policy via the ledger round-trip below.
struct TableStats {
  std::uint64_t lookups = 0;  ///< find + find_or_insert calls
  std::uint64_t hits = 0;     ///< lookups that found the key
  std::uint64_t inserts = 0;  ///< new entries created
  std::uint64_t resizes = 0;  ///< growth rehashes
  std::uint64_t probes = 0;   ///< total slots inspected by lookups

  /// Accumulates this struct into `l` under the ds.unique.* metric IDs.
  void to_ledger(obs::Ledger& l) const {
    l.record(obs::Metric::kDsUniqueLookups, lookups);
    l.record(obs::Metric::kDsUniqueHits, hits);
    l.record(obs::Metric::kDsUniqueInserts, inserts);
    l.record(obs::Metric::kDsUniqueResizes, resizes);
    l.record(obs::Metric::kDsUniqueProbes, probes);
  }
  /// Overwrites this struct from `l`'s ds.unique.* slots.
  void from_ledger(const obs::Ledger& l) {
    lookups = l.get(obs::Metric::kDsUniqueLookups);
    hits = l.get(obs::Metric::kDsUniqueHits);
    inserts = l.get(obs::Metric::kDsUniqueInserts);
    resizes = l.get(obs::Metric::kDsUniqueResizes);
    probes = l.get(obs::Metric::kDsUniqueProbes);
  }

  /// Shard merge, defined by the registry's aggregation policies.
  TableStats& operator+=(const TableStats& o) {
    obs::Ledger mine, theirs;
    to_ledger(mine);
    o.to_ledger(theirs);
    from_ledger(mine.merge(theirs));
    return *this;
  }

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  double avg_probe_length() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(probes) /
                              static_cast<double>(lookups);
  }
};

class UniqueTable {
 public:
  /// Reserved value marking an empty slot; never store it.
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  UniqueTable() = default;
  explicit UniqueTable(std::size_t expected_entries) {
    reserve(expected_entries);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return keys_.size(); }
  const TableStats& stats() const { return stats_; }

  /// Grows capacity so `expected_entries` fit without rehashing.
  void reserve(std::size_t expected_entries) {
    const std::size_t wanted = slots_for(expected_entries);
    if (wanted > keys_.size()) rehash(wanted);
  }

  /// Drops all entries, keeping capacity (and counters).
  void clear() {
    vals_.assign(vals_.size(), kEmptySlot);
    size_ = 0;
  }

  /// Pointer to the value for `key`, or nullptr if absent.
  const std::uint32_t* find(std::uint64_t key) const {
    ++stats_.lookups;
    if (keys_.empty()) {
      record_probes(1);
      return nullptr;
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix64(key) & mask;
    std::uint64_t probes = 1;
    while (vals_[i] != kEmptySlot) {
      if (keys_[i] == key) {
        ++stats_.hits;
        record_probes(probes);
        return &vals_[i];
      }
      i = (i + 1) & mask;
      ++probes;
    }
    record_probes(probes);
    return nullptr;
  }

  /// Returns the existing value for `key`, or inserts `value` and returns
  /// it; the bool is true iff the entry was inserted.
  std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t key,
                                                std::uint32_t value) {
    OVO_DCHECK(value != kEmptySlot);
    if (keys_.empty() || (size_ + 1) * 10 > keys_.size() * 7)
      rehash(keys_.empty() ? kMinSlots : keys_.size() * 2);
    ++stats_.lookups;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix64(key) & mask;
    std::uint64_t probes = 1;
    while (vals_[i] != kEmptySlot) {
      if (keys_[i] == key) {
        ++stats_.hits;
        record_probes(probes);
        return {vals_[i], false};
      }
      i = (i + 1) & mask;
      ++probes;
    }
    record_probes(probes);
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    ++stats_.inserts;
    return {value, true};
  }

  /// Inserts a key the caller guarantees absent (e.g. re-registering
  /// canonical nodes after a level swap or GC rebuild).
  void insert(std::uint64_t key, std::uint32_t value) {
    const auto [stored, inserted] = find_or_insert(key, value);
    OVO_DCHECK(inserted && stored == value);
    (void)stored;
    (void)inserted;
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  /// Smallest power-of-two slot count keeping load factor under 0.7.
  static std::size_t slots_for(std::size_t entries) {
    std::size_t slots = kMinSlots;
    while (entries * 10 > slots * 7) slots *= 2;
    return slots;
  }

  void record_probes(std::uint64_t probes) const { stats_.probes += probes; }

  void rehash(std::size_t new_slots) {
    // Fault-injection point: growth is the only allocation this table
    // performs, and the hook throws before any state changes, so a
    // simulated allocation failure leaves the table untouched.
    rt::fault_alloc_hook();
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_vals = std::move(vals_);
    keys_.assign(new_slots, 0);
    vals_.assign(new_slots, kEmptySlot);
    if (size_ != 0) ++stats_.resizes;
    const std::size_t mask = new_slots - 1;
    for (std::size_t j = 0; j < old_vals.size(); ++j) {
      if (old_vals[j] == kEmptySlot) continue;
      std::size_t i = mix64(old_keys[j]) & mask;
      while (vals_[i] != kEmptySlot) i = (i + 1) & mask;
      keys_[i] = old_keys[j];
      vals_[i] = old_vals[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t size_ = 0;
  mutable TableStats stats_;
};

}  // namespace ovo::ds
