#include "rt/budget.hpp"

#include "rt/fault.hpp"

namespace ovo::rt {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kComplete:
      return "complete";
    case Outcome::kDeadline:
      return "deadline";
    case Outcome::kNodeLimit:
      return "node_limit";
    case Outcome::kMemLimit:
      return "mem_limit";
    case Outcome::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Governor::Governor(const Budget& budget)
    : budget_(budget), start_(std::chrono::steady_clock::now()) {}

void Governor::note(Outcome o) {
  std::uint8_t expected = 0;
  soft_outcome_.compare_exchange_strong(expected,
                                        static_cast<std::uint8_t>(o),
                                        std::memory_order_relaxed);
}

void Governor::stop(Outcome o) {
  std::uint8_t expected = 0;
  hard_outcome_.compare_exchange_strong(expected,
                                        static_cast<std::uint8_t>(o),
                                        std::memory_order_relaxed);
  stop_.store(true, std::memory_order_relaxed);
}

bool Governor::over_deadline() {
  if (budget_.deadline_ms == 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count() >= static_cast<long long>(budget_.deadline_ms);
}

bool Governor::poll() {
  const std::uint64_t cp =
      checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (fault_checkpoint_hook() ||
      (budget_.cancel != nullptr && budget_.cancel->cancelled())) {
    stop(Outcome::kCancelled);
    return true;
  }
  const std::uint64_t interval =
      budget_.check_interval == 0 ? 1 : budget_.check_interval;
  if (budget_.deadline_ms != 0 && cp % interval == 0 && over_deadline())
    stop(Outcome::kDeadline);
  return stopped();
}

void Governor::restore_work(std::uint64_t units) {
  work_.fetch_add(units, std::memory_order_relaxed);
}

bool Governor::admit_work(std::uint64_t upcoming) {
  if (poll()) return false;
  if (budget_.work_limit != 0 &&
      work_.load(std::memory_order_relaxed) + upcoming >
          budget_.work_limit) {
    note(Outcome::kDeadline);
    return false;
  }
  return true;
}

std::uint64_t Governor::admit_charge_batch(std::uint64_t per_item,
                                           std::uint64_t count) {
  if (poll()) return 0;
  std::uint64_t admitted = count;
  if (budget_.work_limit != 0 && per_item != 0) {
    const std::uint64_t spent = work_.load(std::memory_order_relaxed);
    const std::uint64_t remaining =
        budget_.work_limit > spent ? budget_.work_limit - spent : 0;
    const std::uint64_t fit = remaining / per_item;
    if (fit < count) {
      admitted = fit;
      note(Outcome::kDeadline);
    }
  }
  work_.fetch_add(admitted * per_item, std::memory_order_relaxed);
  return admitted;
}

bool Governor::admit_nodes(std::uint64_t nodes) {
  if (stopped()) return false;
  if (budget_.node_limit != 0 && nodes > budget_.node_limit) {
    note(Outcome::kNodeLimit);
    return false;
  }
  return true;
}

bool Governor::admit_bytes(std::uint64_t bytes) {
  if (stopped()) return false;
  if (budget_.bytes_limit != 0 && bytes > budget_.bytes_limit) {
    note(Outcome::kMemLimit);
    return false;
  }
  return true;
}

bool Governor::charge(std::uint64_t units) {
  const std::uint64_t total =
      work_.fetch_add(units, std::memory_order_relaxed) + units;
  if (poll()) return false;
  if (budget_.work_limit != 0 && total > budget_.work_limit) {
    note(Outcome::kDeadline);
    return false;
  }
  return true;
}

Outcome Governor::outcome() const {
  const std::uint8_t hard = hard_outcome_.load(std::memory_order_relaxed);
  if (hard != 0) return static_cast<Outcome>(hard);
  const std::uint8_t soft = soft_outcome_.load(std::memory_order_relaxed);
  if (soft != 0) return static_cast<Outcome>(soft);
  return Outcome::kComplete;
}

RunStats Governor::stats() const {
  RunStats s;
  s.work_units = work_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ovo::rt
