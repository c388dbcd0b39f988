#include "rt/fault.hpp"

#include <atomic>
#include <new>

#include "rt/budget.hpp"

namespace ovo::rt {

namespace {

constexpr const char* kSiteNames[kFaultSiteCount] = {
    "alloc",      "gov_poll",    "task_dispatch", "file_open",
    "file_read",  "file_write",  "file_fsync",    "file_rename",
    "file_close", "file_unlink",
};

/// splitmix64 finalizer — the per-event coin for probabilistic
/// injection.  Pure function of (seed, site, event index), so a given
/// schedule injects the identical event set on every run.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  return i < kFaultSiteCount ? kSiteNames[i] : "unknown";
}

bool parse_fault_site(const char* name, FaultSite* out) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const char* a = kSiteNames[i];
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == '\0' && *b == '\0') {
      *out = static_cast<FaultSite>(i);
      return true;
    }
  }
  return false;
}

struct ScopedFaultPlan::State {
  FaultSchedule schedule;
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> events{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected{};
};

namespace {

std::atomic<ScopedFaultPlan::State*> g_fault{nullptr};

/// Counts one event at `site` and decides whether it is the one the
/// schedule fails.  The caller applies the site's failure contract.
bool fault_event(ScopedFaultPlan::State* s, FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  const std::uint64_t n =
      s->events[i].fetch_add(1, std::memory_order_relaxed) + 1;
  bool inject = s->schedule.fail_at[i] != 0 && n == s->schedule.fail_at[i];
  if (!inject && s->schedule.probability > 0.0 &&
      (s->schedule.prob_mask & FaultSchedule::site_bit(site)) != 0) {
    const std::uint64_t h =
        mix(s->schedule.seed ^
            (static_cast<std::uint64_t>(i) << 56) ^ n);
    inject = static_cast<double>(h >> 11) * 0x1.0p-53 <
             s->schedule.probability;
  }
  if (inject) s->injected[i].fetch_add(1, std::memory_order_relaxed);
  return inject;
}

}  // namespace

ScopedFaultPlan::ScopedFaultPlan(const FaultSchedule& schedule)
    : state_(new State{}) {
  state_->schedule = schedule;
  State* expected = nullptr;
  const bool installed = g_fault.compare_exchange_strong(
      expected, state_, std::memory_order_acq_rel);
  if (!installed) {
    delete state_;
    state_ = nullptr;
    throw FaultNestingError(
        "ScopedFaultPlan: a fault plan is already installed in this "
        "process; plans are process-wide and must not nest");
  }
}

ScopedFaultPlan::~ScopedFaultPlan() {
  g_fault.store(nullptr, std::memory_order_release);
  delete state_;
}

std::uint64_t ScopedFaultPlan::events_seen(FaultSite site) const {
  return state_->events[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t ScopedFaultPlan::injected(FaultSite site) const {
  return state_->injected[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t ScopedFaultPlan::total_events() const {
  std::uint64_t sum = 0;
  for (const auto& e : state_->events)
    sum += e.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t ScopedFaultPlan::total_injected() const {
  std::uint64_t sum = 0;
  for (const auto& e : state_->injected)
    sum += e.load(std::memory_order_relaxed);
  return sum;
}

void fault_alloc_hook() {
  ScopedFaultPlan::State* s = g_fault.load(std::memory_order_acquire);
  if (s == nullptr) return;
  if (fault_event(s, FaultSite::kAlloc)) throw std::bad_alloc();
}

bool fault_checkpoint_hook() {
  ScopedFaultPlan::State* s = g_fault.load(std::memory_order_acquire);
  if (s == nullptr) return false;
  bool trip = fault_event(s, FaultSite::kGovPoll);
  // Legacy sticky trip: every poll at or past cancel_at_poll reports the
  // stop (the governor latches it anyway; >= keeps the old contract).
  const std::uint64_t n = s->events[static_cast<std::size_t>(
                                        FaultSite::kGovPoll)]
                              .load(std::memory_order_relaxed);
  if (s->schedule.cancel_at_poll != 0 && n >= s->schedule.cancel_at_poll)
    trip = true;
  if (trip && s->schedule.cancel != nullptr) s->schedule.cancel->cancel();
  return trip;
}

void fault_dispatch_hook() {
  ScopedFaultPlan::State* s = g_fault.load(std::memory_order_acquire);
  if (s == nullptr) return;
  if (fault_event(s, FaultSite::kTaskDispatch))
    throw FaultInjected(FaultSite::kTaskDispatch);
}

bool fault_fileop_hook(FaultSite site) {
  ScopedFaultPlan::State* s = g_fault.load(std::memory_order_acquire);
  if (s == nullptr) return false;
  return fault_event(s, site);
}

}  // namespace ovo::rt
