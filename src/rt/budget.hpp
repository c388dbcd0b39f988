#pragma once
// Resource governance (ovo::rt) — budgets, cooperative cancellation, and
// per-run accounting for every long-running path in the solver stack.
//
// The exact Friedman–Supowit DP is Θ(3^n) time and Θ(2^n·n) memory, so a
// production deployment must be able to bound a run and still get a valid
// (if suboptimal) answer back.  The model:
//
//  * A Budget declares limits; a Governor enforces them for one run.
//  * Deterministic limits (work_limit in checked work units, node_limit,
//    bytes_limit) are decided only at serial checkpoints — DP layer
//    epilogues, candidate-batch boundaries in the reorder heuristics,
//    Grover iterations, BnB state expansions — so a budget-tripped run
//    produces the same answer for every thread count.  One work unit is
//    one prefix-table cell read by a compaction (amplitudes processed,
//    for the quantum paths).
//  * Non-deterministic stops (wall-clock deadline, CancelToken) flip a
//    sticky stop flag that thread-pool regions watch at chunk
//    boundaries; partially built layers/batches are discarded, so the
//    returned best-so-far value is always internally consistent — only
//    *where* the run stopped varies.
//  * An unbudgeted run passes a null Governor everywhere: the hot paths
//    contain a single null-pointer test per checkpoint and no atomics.
//
// A refused admit_*() call is a *soft* trip: the stage that asked must
// degrade (stop deepening, return best-so-far), but later stages may
// keep spending whatever budget remains — that is how minimize_auto()'s
// exact → sift → random-restart ladder shares one budget.  Cancellation
// and wall-deadline expiry are *hard* stops: every subsequent admit/poll
// fails and pool workers drain cooperatively.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ovo::rt {

/// Why a governed run ended.
enum class Outcome : std::uint8_t {
  kComplete = 0,   ///< ran to completion; result is exact/terminal
  kDeadline = 1,   ///< work_limit or wall-clock deadline exhausted
  kNodeLimit = 2,  ///< predicted resident cells exceeded node_limit
  kMemLimit = 3,   ///< predicted resident bytes exceeded bytes_limit
  kCancelled = 4,  ///< CancelToken tripped (or injected via FaultPlan)
};

const char* outcome_name(Outcome o);

/// Shared cancellation flag; one token may be watched by many governors.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Declarative limits for one governed run.  Zero means unlimited.
struct Budget {
  /// Checked work units (deterministic "time"): prefix-table cells read
  /// by compactions / amplitudes processed by statevector sweeps.
  std::uint64_t work_limit = 0;
  /// Wall-clock deadline in milliseconds (non-deterministic).
  std::uint64_t deadline_ms = 0;
  /// Peak resident prefix-table cells / diagram nodes.
  std::uint64_t node_limit = 0;
  /// Peak resident bytes (approximated as cells * sizeof(cell)).
  std::uint64_t bytes_limit = 0;
  /// Checkpoints between wall-clock reads (poll/charge calls).
  std::uint64_t check_interval = 1024;
  /// Optional external cancellation; not owned.
  CancelToken* cancel = nullptr;

  bool unlimited() const {
    return work_limit == 0 && deadline_ms == 0 && node_limit == 0 &&
           bytes_limit == 0 && cancel == nullptr;
  }

  static Budget with_work_limit(std::uint64_t units) {
    Budget b;
    b.work_limit = units;
    return b;
  }
};

/// Accounting for one governed run (see Governor::stats).
struct RunStats {
  std::uint64_t work_units = 0;  ///< total charged work
};

/// A governed result: the best-so-far value plus why the run stopped.
template <typename T>
struct Result {
  T value{};
  Outcome outcome = Outcome::kComplete;
  RunStats stats;

  bool complete() const { return outcome == Outcome::kComplete; }
};

/// Enforces one Budget for one run.  Thread-safe: parallel chunk bodies
/// may poll() and charge() concurrently; admit_*() decisions that must
/// be deterministic are the caller's responsibility to make at serial
/// program points.
class Governor {
 public:
  explicit Governor(const Budget& budget);
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  const Budget& budget() const { return budget_; }

  /// Deterministic pre-check: true iff `upcoming` more work units fit in
  /// work_limit and no hard stop has occurred.  Refusal notes kDeadline
  /// but does not hard-stop (later, cheaper stages may still run).
  bool admit_work(std::uint64_t upcoming);

  /// Deterministic batch admission for homogeneous candidate batches:
  /// returns how many of `count` items costing `per_item` work units
  /// each still fit in the work budget, and charges the admitted total.
  /// Call only at serial program points (the decision must not race).
  /// Returns 0 when hard-stopped; notes kDeadline on truncation.
  std::uint64_t admit_charge_batch(std::uint64_t per_item,
                                   std::uint64_t count);

  /// Deterministic pre-check against node_limit (refusal → kNodeLimit).
  bool admit_nodes(std::uint64_t nodes);

  /// Deterministic pre-check against bytes_limit (refusal → kMemLimit).
  bool admit_bytes(std::uint64_t bytes);

  /// Adds `units` of completed work and runs a checkpoint (periodic
  /// wall-clock read, cancel poll, fault hook).  Returns false once the
  /// budget is exhausted or a hard stop occurred.  Callers that batch
  /// work behind admit_work() never see a mid-batch refusal.
  bool charge(std::uint64_t units);

  /// Cheap checkpoint without charging: polls the cancel token, the
  /// fault plan, and (every check_interval calls) the wall clock.
  /// Returns true iff hard-stopped.  Safe to call from parallel bodies.
  bool poll();

  /// Credits work a *previous* run already performed (a resumed
  /// checkpoint's ledger) without running a checkpoint, so every
  /// subsequent admit/charge decision matches the uninterrupted run
  /// bit for bit.  Call once, at a serial point, before the resumed
  /// engine starts.
  void restore_work(std::uint64_t units);

  /// True once a hard stop (cancel / wall deadline) has been recorded.
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// Stop flag for thread-pool regions; workers watch it at chunk
  /// boundaries and drain cooperatively when it flips.
  const std::atomic<bool>* stop_flag() const { return &stop_; }

  /// Records a hard stop with reason `o` (first reason wins).
  void stop(Outcome o);

  /// Hard-stop reason if any, else the first soft refusal, else
  /// kComplete.
  Outcome outcome() const;

  RunStats stats() const;

 private:
  bool over_deadline();
  void note(Outcome o);  ///< records a soft refusal (first wins)

  const Budget budget_;
  const std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint8_t> hard_outcome_{0};  ///< 0 = none
  std::atomic<std::uint8_t> soft_outcome_{0};  ///< 0 = none
  std::atomic<std::uint64_t> work_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace ovo::rt
