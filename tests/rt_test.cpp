// Tests for the ovo::rt resource governor: budget accounting, the
// soft-refusal / hard-stop split, deterministic batch admission, and the
// fault-injection hooks wired into the node stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "rt/budget.hpp"
#include "rt/fault.hpp"
#include "tt/function_zoo.hpp"
#include "util/check.hpp"

namespace ovo::rt {
namespace {

TEST(Governor, UnlimitedBudgetAdmitsEverything) {
  Governor gov(Budget{});
  EXPECT_TRUE(gov.budget().unlimited());
  EXPECT_TRUE(gov.admit_work(~std::uint64_t{0} / 2));
  EXPECT_TRUE(gov.admit_nodes(1u << 30));
  EXPECT_TRUE(gov.admit_bytes(std::uint64_t{1} << 40));
  EXPECT_TRUE(gov.charge(12345));
  EXPECT_FALSE(gov.stopped());
  EXPECT_EQ(gov.outcome(), Outcome::kComplete);
  EXPECT_EQ(gov.stats().work_units, 12345u);
}

TEST(Governor, WorkRefusalIsSoftNotHard) {
  Governor gov(Budget::with_work_limit(100));
  EXPECT_TRUE(gov.admit_work(100));
  gov.charge(100);
  // The budget is now exhausted: further admissions are refused...
  EXPECT_FALSE(gov.admit_work(1));
  EXPECT_EQ(gov.outcome(), Outcome::kDeadline);
  // ...but the refusal must NOT hard-stop — later ladder stages may
  // still observe a clear stop flag and spend a *different* budget
  // dimension, and zero-cost admissions still pass.
  EXPECT_FALSE(gov.stopped());
  EXPECT_TRUE(gov.admit_work(0));
}

TEST(Governor, BatchAdmissionTruncatesDeterministically) {
  Governor gov(Budget::with_work_limit(35));
  // 10 candidates at 10 units each: only 3 fit.
  EXPECT_EQ(gov.admit_charge_batch(10, 10), 3u);
  EXPECT_EQ(gov.stats().work_units, 30u);
  // 5 units remain; nothing at 10 units fits any more.
  EXPECT_EQ(gov.admit_charge_batch(10, 4), 0u);
  // A cheaper batch still gets its share of the remainder.
  EXPECT_EQ(gov.admit_charge_batch(5, 7), 1u);
  EXPECT_EQ(gov.stats().work_units, 35u);
  EXPECT_EQ(gov.outcome(), Outcome::kDeadline);
  EXPECT_FALSE(gov.stopped());
}

TEST(Governor, NodeAndByteLimits) {
  Budget b;
  b.node_limit = 1000;
  b.bytes_limit = 1u << 20;
  Governor gov(b);
  EXPECT_TRUE(gov.admit_nodes(1000));
  EXPECT_FALSE(gov.admit_nodes(1001));
  EXPECT_TRUE(gov.admit_bytes(1u << 20));
  EXPECT_FALSE(gov.admit_bytes((1u << 20) + 1));
  // First soft refusal wins the outcome report.
  EXPECT_EQ(gov.outcome(), Outcome::kNodeLimit);
  EXPECT_FALSE(gov.stopped());
}

TEST(Governor, CancelTokenIsAHardStop) {
  CancelToken token;
  Budget b;
  b.cancel = &token;
  Governor gov(b);
  EXPECT_FALSE(gov.poll());
  token.cancel();
  EXPECT_TRUE(gov.poll());
  EXPECT_TRUE(gov.stopped());
  EXPECT_TRUE(gov.stop_flag()->load());
  EXPECT_EQ(gov.outcome(), Outcome::kCancelled);
  // Hard stops refuse everything, including zero-cost admissions.
  EXPECT_FALSE(gov.admit_work(0));
  EXPECT_EQ(gov.admit_charge_batch(1, 10), 0u);
}

TEST(Governor, HardReasonBeatsSoftAndFirstHardWins) {
  Governor gov(Budget::with_work_limit(1));
  EXPECT_FALSE(gov.admit_work(2));  // soft kDeadline
  gov.stop(Outcome::kCancelled);
  gov.stop(Outcome::kNodeLimit);  // second hard reason is ignored
  EXPECT_EQ(gov.outcome(), Outcome::kCancelled);
}

TEST(Governor, WallDeadlineTripsEventually) {
  Budget b;
  b.deadline_ms = 1;
  b.check_interval = 1;  // read the clock at every checkpoint
  Governor gov(b);
  bool stopped = false;
  for (int i = 0; i < 1'000'000 && !stopped; ++i) stopped = gov.poll();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(gov.outcome(), Outcome::kDeadline);
}

TEST(Outcome, Names) {
  EXPECT_STREQ(outcome_name(Outcome::kComplete), "complete");
  EXPECT_STREQ(outcome_name(Outcome::kCancelled), "cancelled");
}

// --- fault injection -------------------------------------------------------

TEST(FaultInjection, NthAllocationFailsAndManagersUnwindCleanly) {
  const tt::TruthTable f = tt::parity(10);
  // Fault-free construction works and records how many allocation events
  // a build needs.
  std::uint64_t events = 0;
  {
    ScopedFaultPlan probe(FaultPlan{});
    bdd::Manager m(10);
    m.from_truth_table(f);
    events = probe.allocations_seen();
  }
  ASSERT_GT(events, 0u);
  // Failing each allocation event in turn must surface as std::bad_alloc
  // and leave the manager consistent (strong guarantee: the hooks fire
  // before any state changes).  ASan verifies nothing leaks on the way.
  for (std::uint64_t k = 1; k <= events; ++k) {
    FaultPlan plan;
    plan.fail_alloc_at = k;
    ScopedFaultPlan scoped(plan);
    try {
      bdd::Manager m(10);
      m.from_truth_table(f);
      FAIL() << "allocation " << k << " did not fail";
    } catch (const std::bad_alloc&) {
      // expected
    }
  }
  // With the plan gone, the same build succeeds again.
  bdd::Manager m(10);
  EXPECT_GT(m.from_truth_table(f), bdd::kTrue);
}

TEST(FaultInjection, CancelAtNthCheckpoint) {
  CancelToken token;
  FaultPlan plan;
  plan.cancel_at_checkpoint = 3;
  plan.cancel = &token;
  ScopedFaultPlan scoped(plan);

  Budget b;
  b.cancel = &token;
  Governor gov(b);
  EXPECT_FALSE(gov.poll());
  EXPECT_FALSE(gov.poll());
  EXPECT_TRUE(gov.poll());  // third checkpoint trips the plan
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(gov.stopped());
  EXPECT_EQ(gov.outcome(), Outcome::kCancelled);
  EXPECT_GE(scoped.checkpoints_seen(), 3u);
}

TEST(FaultInjection, OnePlanAtATime) {
  ScopedFaultPlan first(FaultPlan{});
  // Nesting is a hard typed error — and it still derives from
  // util::CheckError so legacy catch sites keep working.
  EXPECT_THROW(ScopedFaultPlan second(FaultPlan{}), FaultNestingError);
  EXPECT_THROW(ScopedFaultPlan third(FaultPlan{}), util::CheckError);
  // The failed installs must not have clobbered the active plan.
  fault_alloc_hook();
  EXPECT_EQ(first.allocations_seen(), 1u);
}

TEST(FaultSites, NamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    FaultSite parsed = FaultSite::kCount;
    ASSERT_TRUE(parse_fault_site(fault_site_name(site), &parsed))
        << fault_site_name(site);
    EXPECT_EQ(parsed, site);
  }
  FaultSite parsed = FaultSite::kCount;
  EXPECT_FALSE(parse_fault_site("not_a_site", &parsed));
}

TEST(FaultSites, FailNthIsOneShotPerSite) {
  FaultSchedule schedule;
  schedule.fail_nth(FaultSite::kFileWrite, 2);
  ScopedFaultPlan plan(schedule);
  EXPECT_FALSE(fault_fileop_hook(FaultSite::kFileWrite));  // event 1
  EXPECT_FALSE(fault_fileop_hook(FaultSite::kFileRename));  // other site
  EXPECT_TRUE(fault_fileop_hook(FaultSite::kFileWrite));   // event 2 fails
  EXPECT_FALSE(fault_fileop_hook(FaultSite::kFileWrite));  // one-shot
  EXPECT_EQ(plan.events_seen(FaultSite::kFileWrite), 3u);
  EXPECT_EQ(plan.events_seen(FaultSite::kFileRename), 1u);
  EXPECT_EQ(plan.injected(FaultSite::kFileWrite), 1u);
  EXPECT_EQ(plan.injected(FaultSite::kFileRename), 0u);
  EXPECT_EQ(plan.total_events(), 4u);
  EXPECT_EQ(plan.total_injected(), 1u);
}

TEST(FaultSites, DispatchInjectionThrowsTyped) {
  FaultSchedule schedule;
  schedule.fail_nth(FaultSite::kTaskDispatch, 1);
  ScopedFaultPlan plan(schedule);
  try {
    fault_dispatch_hook();
    FAIL() << "dispatch fault did not fire";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.site(), FaultSite::kTaskDispatch);
  }
}

TEST(FaultSites, PollInjectionTripsTheToken) {
  CancelToken token;
  FaultSchedule schedule;
  schedule.fail_nth(FaultSite::kGovPoll, 2);
  schedule.cancel = &token;
  ScopedFaultPlan plan(schedule);
  Budget b;
  b.cancel = &token;
  Governor gov(b);
  EXPECT_FALSE(gov.poll());
  EXPECT_TRUE(gov.poll());  // injected: hard stop, token tripped
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(gov.outcome(), Outcome::kCancelled);
  // Sticky at the governor even though the site itself is one-shot.
  EXPECT_TRUE(gov.poll());
}

TEST(FaultSites, ProbabilisticInjectionIsSeedDeterministic) {
  const auto injected_pattern = [](std::uint64_t seed) {
    FaultSchedule schedule;
    schedule.probability = 0.5;
    schedule.seed = seed;
    schedule.prob_mask = FaultSchedule::site_bit(FaultSite::kFileWrite);
    ScopedFaultPlan plan(schedule);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(fault_fileop_hook(FaultSite::kFileWrite));
    return fired;
  };
  const std::vector<bool> a = injected_pattern(42);
  const std::vector<bool> b = injected_pattern(42);
  const std::vector<bool> c = injected_pattern(43);
  // Same seed -> bit-identical injection pattern; different seed -> a
  // different pattern (64 fair coin flips colliding is 2^-64).
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // And p=0.5 over 64 events fires at least once for any sane hash.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  // Sites outside prob_mask are untouched.
  FaultSchedule masked;
  masked.probability = 1.0;
  masked.prob_mask = FaultSchedule::site_bit(FaultSite::kFileWrite);
  ScopedFaultPlan plan(masked);
  EXPECT_FALSE(fault_fileop_hook(FaultSite::kFileFsync));
  EXPECT_TRUE(fault_fileop_hook(FaultSite::kFileWrite));
}

}  // namespace
}  // namespace ovo::rt
