// ovo::obs unit tests: the counter/ledger registry's merge algebra (the
// property every stats view's operator+= inherits), the pinned/measured
// split, bit-identical run ledgers across thread counts, the shared JSON
// serializer's pinned keys, and the trace-span exporter's Chrome
// trace-event output.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/fs_star.hpp"
#include "core/prefix_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/exec_policy.hpp"
#include "tt/function_zoo.hpp"
#include "util/rng.hpp"

namespace ovo::obs {
namespace {

// ---------------------------------------------------------------------------
// Ledger merge algebra

/// A deterministic ledger touching every aggregation policy: sums, peaks,
/// and float sums (integer-valued, so double addition is exact and the
/// associativity checks compare bits, not epsilons).
Ledger sample_ledger(std::uint64_t seed) {
  Ledger l;
  l.record(Metric::kFsTableCells, 100 * seed + 7);
  l.record(Metric::kDsUniqueLookups, 13 * seed);
  l.record(Metric::kFsPeakCells, 50 * ((seed * 7919) % 11));  // kMax
  l.record(Metric::kFsPruneUpperBound, seed % 3 == 0 ? 900 : 12);  // kMax
  l.record(Metric::kSchedBarrierWaitNs, seed * seed);
  l.set_f64(Metric::kOracleMinFindQueries,
            static_cast<double>(64 * seed + seed % 5));
  return l;
}

TEST(ObsLedger, RecordFollowsDeclaredPolicy) {
  Ledger l;
  ASSERT_EQ(agg(Metric::kFsTableCells), Agg::kSum);
  l.record(Metric::kFsTableCells, 3);
  l.record(Metric::kFsTableCells, 4);
  EXPECT_EQ(l.get(Metric::kFsTableCells), 7u);

  ASSERT_EQ(agg(Metric::kFsPeakCells), Agg::kMax);
  l.record(Metric::kFsPeakCells, 9);
  l.record(Metric::kFsPeakCells, 5);
  EXPECT_EQ(l.get(Metric::kFsPeakCells), 9u);

  ASSERT_EQ(agg(Metric::kOracleMinFindQueries), Agg::kSumF64);
  l.record(Metric::kOracleMinFindQueries, 2);
  l.add_f64(Metric::kOracleMinFindQueries, 0.5);
  EXPECT_DOUBLE_EQ(l.get_f64(Metric::kOracleMinFindQueries), 2.5);
}

TEST(ObsLedger, ZeroLedgerIsMergeIdentity) {
  const Ledger a = sample_ledger(3);
  Ledger left = a;
  left.merge(Ledger{});
  EXPECT_EQ(left, a);
  Ledger right;
  right.merge(a);
  EXPECT_EQ(right, a);
}

TEST(ObsLedger, MergeIsCommutative) {
  const Ledger a = sample_ledger(2), b = sample_ledger(9);
  Ledger ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, ba);
}

TEST(ObsLedger, MergeIsAssociative) {
  const Ledger a = sample_ledger(1), b = sample_ledger(4),
               c = sample_ledger(8);
  Ledger left = a;
  {
    Ledger bc = b;
    bc.merge(c);
    left.merge(bc);
  }
  Ledger right = a;
  right.merge(b);
  right.merge(c);
  EXPECT_EQ(left, right);
}

TEST(ObsLedger, LegacyViewRoundTripsThroughLedger) {
  // OpCounter's operator+= is defined as a ledger round trip; spot-check
  // the view projection both ways, prune and dedup included.
  core::OpCounter a;
  a.table_cells = 10;
  a.compactions = 2;
  a.peak_cells = 40;
  a.dedup.lookups = 5;
  a.prune.states_pruned = 3;
  a.prune.upper_bound = 17;
  core::OpCounter b;
  b.table_cells = 1;
  b.peak_cells = 90;
  b.prune.upper_bound = 11;
  a += b;
  EXPECT_EQ(a.table_cells, 11u);
  EXPECT_EQ(a.compactions, 2u);
  EXPECT_EQ(a.peak_cells, 90u);  // kMax
  EXPECT_EQ(a.dedup.lookups, 5u);
  EXPECT_EQ(a.prune.states_pruned, 3u);
  EXPECT_EQ(a.prune.upper_bound, 17u);  // kMax
}

// ---------------------------------------------------------------------------
// Registry

TEST(ObsRegistry, RecordAndSnapshotFollowPolicies) {
  Registry reg;  // local instance; global() shares this implementation
  reg.record(Metric::kFsTableCells, 5);
  reg.record(Metric::kFsTableCells, 6);
  reg.record(Metric::kFsPeakCells, 8);
  reg.record(Metric::kFsPeakCells, 3);
  const Ledger snap = reg.snapshot();
  EXPECT_EQ(snap.get(Metric::kFsTableCells), 11u);
  EXPECT_EQ(snap.get(Metric::kFsPeakCells), 8u);
}

TEST(ObsRegistry, ConcurrentRecordsSumExactly) {
  Registry reg;
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.record(Metric::kDsUniqueLookups, 1);
        reg.record(Metric::kFsPeakCells, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const Ledger snap = reg.snapshot();
  EXPECT_EQ(snap.get(Metric::kDsUniqueLookups),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.get(Metric::kFsPeakCells),
            static_cast<std::uint64_t>(kPerThread - 1));
}

// ---------------------------------------------------------------------------
// Pinned vs measured

/// The measured set, exactly: hash-table probe detail and the scheduler
/// counters.  Everything else is the algorithm's ledger, which snapshots
/// store and resumed runs reproduce; moving a metric across the line
/// changes the snapshot format and must show up here.
TEST(ObsRegistry, MeasuredSetIsProbeDetailAndScheduler) {
  std::vector<std::string> measured;
  std::size_t pinned_count = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const Metric m = static_cast<Metric>(i);
    if (is_pinned(m))
      ++pinned_count;
    else
      measured.emplace_back(metric_name(m));
  }
  EXPECT_EQ(measured,
            (std::vector<std::string>{
                "ds.unique.resizes", "ds.unique.probes", "sched.graphs",
                "sched.tasks", "sched.chunks", "sched.barrier_wait_ns"}));
  EXPECT_EQ(pinned_count, 21u);

  // The pinned projection zeroes exactly the measured slots.
  const Ledger a = sample_ledger(3);
  const Ledger p = a.pinned();
  EXPECT_EQ(p.get(Metric::kSchedBarrierWaitNs), 0u);
  EXPECT_EQ(p.get(Metric::kFsTableCells), a.get(Metric::kFsTableCells));
  EXPECT_EQ(p.get(Metric::kOracleMinFindQueries),
            a.get(Metric::kOracleMinFindQueries));
  EXPECT_EQ(p.pinned(), p);
}

// ---------------------------------------------------------------------------
// Bit-identical run ledgers across thread counts

/// The acceptance pin: one fs_star run's merged counter ledger (DP cells,
/// dedup shards, prune ledger) must be the same bits at 1, 2, 4, and 8
/// threads — shard merges are policy-pure, so thread count cannot leak
/// into the totals.
TEST(ObsLedger, FsRunLedgerBitIdenticalAcrossThreadCounts) {
  util::Xoshiro256 rng(17);
  const tt::TruthTable t = tt::random_function(7, rng);
  const util::Mask all = util::full_mask(t.num_vars());

  Ledger baseline;
  bool have_baseline = false;
  for (int threads : {1, 2, 4, 8}) {
    par::ExecPolicy exec;
    exec.num_threads = threads;
    exec.prune = par::PruneMode::kBounds;
    core::OpCounter ops;
    const core::FsStarResult r =
        core::fs_star(core::initial_table(t), all, t.num_vars(),
                      core::DiagramKind::kBdd, &ops, exec);
    ASSERT_FALSE(r.states.empty());
    Ledger l;
    ops.to_ledger(l);
    ASSERT_GT(l.get(Metric::kFsTableCells), 0u);
    if (!have_baseline) {
      baseline = l;
      have_baseline = true;
    } else {
      EXPECT_EQ(l, baseline) << "ledger drift at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Shared JSON serializer

TEST(ObsJson, KeysArePinnedInTheRegistry) {
  // The drift the refactor fixed: CLI said "oracle_table_cells" while the
  // benches said "table_cells".  The registry owns the name now.
  EXPECT_STREQ(json_key(Metric::kFsTableCells), "table_cells");
  EXPECT_STREQ(json_key(Metric::kOracleMemoHits), "oracle_memo_hits");
  EXPECT_STREQ(json_key(Metric::kRtWorkCharged), "work_units");
  EXPECT_STREQ(json_key(Metric::kSchedBarrierWaitNs),
               "sched_barrier_wait_ns");
  EXPECT_STREQ(metric_name(Metric::kFsPrunePruned), "fs.prune.pruned");
}

TEST(ObsJson, CounterBlockUsesRegistryKeys) {
  Ledger l;
  l.record(Metric::kOracleQueries, 3);
  l.record(Metric::kOracleEvals, 2);
  l.record(Metric::kOracleMemoHits, 1);
  l.record(Metric::kFsTableCells, 77);
  std::string s;
  append_counters_json(s, l);
  EXPECT_NE(s.find("\"oracle_queries\":3"), std::string::npos) << s;
  EXPECT_NE(s.find("\"table_cells\":77"), std::string::npos) << s;
  EXPECT_EQ(s.find("oracle_table_cells"), std::string::npos) << s;
  // Prune ledger untouched: no prune block.
  EXPECT_EQ(s.find("prune"), std::string::npos) << s;

  // Light up the prune ledger: block appears, ratio included.
  l.record(Metric::kFsPruneGenerated, 10);
  l.record(Metric::kFsPrunePruned, 4);
  std::string p;
  append_counters_json(p, l);
  EXPECT_NE(p.find("\"states_generated\":10"), std::string::npos) << p;
  EXPECT_NE(p.find("\"states_pruned\":4"), std::string::npos) << p;
  EXPECT_NE(p.find("\"prune_ratio\":"), std::string::npos) << p;
}

TEST(ObsJson, RunInfoBlockCarriesProvenance) {
  std::string s;
  append_run_info_json(s, 4);
  EXPECT_NE(s.find("\"schema_version\":3"), std::string::npos) << s;
  EXPECT_NE(s.find("\"git\":\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"build\":\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"threads\":4"), std::string::npos) << s;
  EXPECT_NE(build_git_describe(), nullptr);
  EXPECT_NE(build_type(), nullptr);
}

// ---------------------------------------------------------------------------
// Trace spans + Chrome trace-event export

#if OVO_TRACE_ENABLED

/// Scans a {"traceEvents":[...]} document event by event, checking that
/// every event is a complete ("ph":"X") event and that ts values are
/// monotone non-decreasing within each tid in file order (the exporter
/// sorts by (tid, ts)).  Returns the number of events seen.
std::size_t check_trace_json(const std::string& json) {
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_EQ(json.find("]}"), json.size() - 3)  // trailing newline
      << json.substr(json.size() > 80 ? json.size() - 80 : 0);
  std::size_t events = 0;
  long long last_tid = -1;
  unsigned long long last_ts = 0;
  for (std::size_t pos = json.find("{\"name\":"); pos != std::string::npos;
       pos = json.find("{\"name\":", pos + 1)) {
    ++events;
    const std::size_t end = json.find('}', pos);
    EXPECT_NE(end, std::string::npos);
    const std::string ev = json.substr(pos, end - pos + 1);
    EXPECT_NE(ev.find("\"ph\":\"X\""), std::string::npos) << ev;
    EXPECT_NE(ev.find("\"pid\":"), std::string::npos) << ev;
    long long tid = -999;
    unsigned long long ts = 0;
    EXPECT_EQ(std::sscanf(ev.c_str() + ev.find("\"tid\":"), "\"tid\":%lld",
                          &tid),
              1)
        << ev;
    EXPECT_EQ(std::sscanf(ev.c_str() + ev.find("\"ts\":"), "\"ts\":%llu",
                          &ts),
              1)
        << ev;
    if (tid == last_tid) {
      EXPECT_GE(ts, last_ts) << "non-monotone ts within tid " << tid;
    } else {
      EXPECT_GT(tid, last_tid) << "events not grouped by tid";
      last_tid = tid;
    }
    last_ts = ts;
  }
  return events;
}

TEST(ObsTrace, ExportIsWellFormedAndPerThreadMonotone) {
  trace::enable(4);
  {
    OVO_TRACE_SPAN("outer", "test", -1);
    { OVO_TRACE_SPAN_ARGS("inner", "test", -1, "layer", 3, "chunk", 9); }
  }
  // Spans from real worker threads on distinct slots.
  std::vector<std::thread> workers;
  for (int slot = 0; slot < 3; ++slot) {
    workers.emplace_back([slot] {
      for (int i = 0; i < 4; ++i) {
        OVO_TRACE_SPAN_ARGS("work", "test", slot, "iter", i, "slot", slot);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  trace::disable();

  EXPECT_EQ(trace::event_count(), 14u);  // 2 serial + 3*4 worker spans
  const std::string json = trace::to_json();
  EXPECT_EQ(check_trace_json(json), 14u);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"layer\":3"), std::string::npos);
  EXPECT_NE(json.find("\"chunk\":9"), std::string::npos);

  // write_json lands the same document on disk, atomically.
  const char* tmp = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/ovo_obs_trace.json";
  ASSERT_TRUE(trace::write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string disk(json.size(), '\0');
  const std::size_t got = std::fread(disk.data(), 1, disk.size(), f);
  EXPECT_EQ(std::fgetc(f), EOF);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(got, json.size());
  EXPECT_EQ(disk, json);
}

TEST(ObsTrace, DisabledSpansCostNothingAndRecordNothing) {
  trace::enable(2);
  trace::disable();
  { OVO_TRACE_SPAN("ghost", "test", 0); }
  EXPECT_EQ(trace::event_count(), 0u);
  EXPECT_FALSE(trace::enabled());

  // enable() clears any previous session's events.
  trace::enable(2);
  { OVO_TRACE_SPAN("one", "test", 0); }
  trace::disable();
  EXPECT_EQ(trace::event_count(), 1u);
  trace::enable(2);
  trace::disable();
  EXPECT_EQ(trace::event_count(), 0u);
}

#endif  // OVO_TRACE_ENABLED

}  // namespace
}  // namespace ovo::obs
