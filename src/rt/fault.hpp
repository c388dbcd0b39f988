#pragma once
// Deterministic fault-site framework for robustness tests and chaos
// sweeps.  Every injectable failure point in the stack is a typed
// FaultSite: node-store allocation events, governor polls, parallel
// chunk dispatch, and each filesystem operation inside the checkpoint
// writer (open/read/write/fsync/rename/close/unlink — the rt::FileOps
// seam).  A FaultSchedule says *which* events fail — "the Nth event at
// site K" for exhaustive sweeps, or seeded probabilistic injection for
// randomized soak runs — and a ScopedFaultPlan installs it process-wide
// for its scope.  The sweep driver (rt/fault_sweep.hpp) re-runs a
// scenario failing event 1..N at a site so tests can prove every single
// failure point unwinds cleanly: typed error or typed rt::Outcome, no
// leak under ASan, no deadlock under TSan, no partial on-disk state.
//
// Cost when no plan is installed: one relaxed atomic pointer load per
// *event* (unique-table rehash, arena growth, governor poll, chunk
// dispatch, file syscall), never per node — the hooks sit at the same
// granularity as the failures they simulate.
//
// What an injection does depends on the site:
//   * kAlloc          — fault_alloc_hook throws std::bad_alloc before any
//                       state changes (strong guarantee at the site).
//   * kGovPoll        — fault_checkpoint_hook trips the schedule's
//                       CancelToken and reports a hard stop, exactly like
//                       an external cancellation.
//   * kTaskDispatch   — fault_dispatch_hook throws FaultInjected before
//                       the chunk body runs; the parallel region's
//                       first-exception-wins path carries it out.
//   * kFile*          — fault_fileop_hook returns true and the FileOps
//                       call site fails with EIO semantics, surfacing as
//                       CheckpointError(kIo) from the checkpoint layer.

#include <array>
#include <cstdint>
#include <stdexcept>

#include "util/check.hpp"

namespace ovo::rt {

class CancelToken;

/// Every injectable failure point in the stack.  Keep
/// fault_site_name()'s table in sync.
enum class FaultSite : std::uint8_t {
  kAlloc = 0,     ///< node-store allocation event (rehash / arena growth)
  kGovPoll,       ///< governor poll checkpoint
  kTaskDispatch,  ///< parallel-region chunk dispatch (before the body)
  kFileOpen,      ///< FileOps::open_write / open_read
  kFileRead,      ///< FileOps::read
  kFileWrite,     ///< FileOps::write
  kFileFsync,     ///< FileOps::fsync (and fsync_dir)
  kFileRename,    ///< FileOps::rename
  kFileClose,     ///< FileOps::close
  kFileUnlink,    ///< FileOps::unlink
  kCount
};

inline constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kCount);

/// Stable lowercase identifier ("alloc", "gov_poll", "file_write", ...);
/// the CLI's --fault-fileop flag and chaos.sh parse these.
const char* fault_site_name(FaultSite site);

/// Inverse of fault_site_name; returns false when `name` is unknown.
bool parse_fault_site(const char* name, FaultSite* out);

/// Thrown by injection at sites whose contract is "the operation throws"
/// (task dispatch; also usable by custom scenarios).  Deliberately NOT a
/// util::CheckError: an injected fault is a simulated environment
/// failure, not a violated invariant.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(FaultSite site)
      : std::runtime_error(std::string("injected fault at site ") +
                           fault_site_name(site)),
        site_(site) {}
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

/// Installing a second ScopedFaultPlan while one is active is a hard,
/// typed error (it derives from util::CheckError so legacy catch sites
/// keep working).  Plans are process-wide; nesting them would make every
/// counter and fail-at decision ambiguous.
class FaultNestingError : public util::CheckError {
 public:
  explicit FaultNestingError(const std::string& what)
      : util::CheckError(what) {}
};

/// Declarative fault schedule.  Event counts are 1-based and counted per
/// site from plan installation; zero disables the corresponding entry.
struct FaultSchedule {
  /// fail_at[site] = N: inject at the Nth event observed at `site`.
  std::array<std::uint64_t, kFaultSiteCount> fail_at{};

  /// Seeded probabilistic injection: every event at a site whose bit is
  /// set in `prob_mask` fails independently with probability
  /// `probability`, decided by a splitmix64 hash of (seed, site, event
  /// index) — bit-reproducible for a given seed and event order.
  double probability = 0.0;
  std::uint64_t seed = 0;
  std::uint32_t prob_mask = 0;

  /// Trip `cancel` at the Nth governor poll and keep reporting the stop
  /// from then on (legacy FaultPlan::cancel_at_checkpoint semantics —
  /// unlike fail_at, the trip is sticky at the hook level).
  std::uint64_t cancel_at_poll = 0;
  CancelToken* cancel = nullptr;  ///< token tripped by poll-site faults

  static constexpr std::uint32_t site_bit(FaultSite s) {
    return std::uint32_t{1} << static_cast<unsigned>(s);
  }
  FaultSchedule& fail_nth(FaultSite site, std::uint64_t nth) {
    fail_at[static_cast<std::size_t>(site)] = nth;
    return *this;
  }
};

/// Legacy single-fault plan, kept as a shim over FaultSchedule so the
/// original call sites (fail the Nth allocation, cancel at the Nth
/// governor checkpoint) read as before.
struct FaultPlan {
  std::uint64_t fail_alloc_at = 0;
  std::uint64_t cancel_at_checkpoint = 0;
  CancelToken* cancel = nullptr;

  FaultSchedule to_schedule() const {
    FaultSchedule s;
    s.fail_at[static_cast<std::size_t>(FaultSite::kAlloc)] = fail_alloc_at;
    s.cancel_at_poll = cancel_at_checkpoint;
    s.cancel = cancel;
    return s;
  }
};

/// Installs a FaultSchedule process-wide for its scope (all counters
/// start at zero on installation).  Only one plan may be active at a
/// time; nesting throws FaultNestingError.  Its counters are readable
/// only through this object and die with it.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultSchedule& schedule);
  explicit ScopedFaultPlan(const FaultPlan& plan)
      : ScopedFaultPlan(plan.to_schedule()) {}
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// Events observed at `site` while this plan was installed.
  std::uint64_t events_seen(FaultSite site) const;
  /// Faults actually injected at `site`.
  std::uint64_t injected(FaultSite site) const;
  /// Totals across all sites.
  std::uint64_t total_events() const;
  std::uint64_t total_injected() const;

  /// Legacy accessors.
  std::uint64_t allocations_seen() const {
    return events_seen(FaultSite::kAlloc);
  }
  std::uint64_t checkpoints_seen() const {
    return events_seen(FaultSite::kGovPoll);
  }

  struct State;  ///< implementation detail, defined in fault.cpp

 private:
  State* state_;
};

/// Called by the node stores at every allocation event; throws
/// std::bad_alloc when the installed schedule says this one fails.
void fault_alloc_hook();

/// Called by Governor::poll at every checkpoint; returns true (and
/// cancels the schedule's token) when the installed schedule trips here.
bool fault_checkpoint_hook();

/// Called by a fanned-out parallel region before each chunk body; throws
/// FaultInjected(kTaskDispatch) when the installed schedule says so.
void fault_dispatch_hook();

/// Called by the FileOps call sites before each filesystem operation;
/// returns true when the operation should fail (the caller simulates an
/// EIO-style failure).  `site` must be one of the kFile* sites.
bool fault_fileop_hook(FaultSite site);

}  // namespace ovo::rt
