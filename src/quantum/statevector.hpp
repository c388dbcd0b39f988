#pragma once
// Minimal amplitude-level quantum statevector simulator — the "quantum
// computer" substrate (QRAM model substitution, see DESIGN.md).  It
// implements exactly the two operators Grover's algorithm needs:
//
//   * a phase oracle  O_f |x> = (-1)^{f(x)} |x>, and
//   * the diffusion operator  D = 2|s><s| - I  (inversion about the mean),
//
// plus projective measurement in the computational basis.  Applying the
// operators directly to the amplitude vector is unitarily identical to the
// standard gate decompositions, so query counts and success probabilities
// are exact.

#include <atomic>
#include <complex>
#include <cstdint>
#include <vector>

#include "parallel/exec_policy.hpp"
#include "parallel/thread_pool.hpp"
#include "rt/budget.hpp"
#include "util/rng.hpp"

namespace ovo::quantum {

class Statevector {
 public:
  /// Uniform superposition over 2^qubits basis states.
  explicit Statevector(int qubits);

  int qubits() const { return qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << qubits_; }

  /// Fans the amplitude sweeps (oracle, diffusion, probabilities, norms)
  /// out as parallel regions on the ovo::par thread pool.
  /// Serial by default.  Amplitude chunks are fixed-size (kAmpGrain) and
  /// reduction partials are folded in chunk order, so results do not
  /// depend on which thread ran which chunk.
  void set_exec_policy(const par::ExecPolicy& exec) { exec_ = exec; }
  const par::ExecPolicy& exec_policy() const { return exec_; }

  /// Attaches a governor whose hard-stop flag the *state-mutating* sweeps
  /// (oracle, diffusion, mcz) watch at chunk boundaries.  A sweep cut
  /// short leaves the amplitudes indeterminate — callers observe
  /// `gov->stopped()` and discard the state (Grover re-prepares it anyway).
  /// Read-only reductions are not cut (they are cheap and their result
  /// would otherwise be silently wrong).  Null detaches.
  void set_governor(const rt::Governor* gov) { gov_ = gov; }

  /// Resets to the uniform superposition.
  void reset_uniform();

  /// Phase oracle: flips the sign of every basis state x with marked(x).
  /// Each basis state touches only its own amplitude, so the sweep fans
  /// out over the pool without synchronization.
  template <typename Pred>
  void apply_phase_oracle(Pred&& marked) {
    par::ThreadPool::shared().parallel_for(
        std::uint64_t{0}, amps_.size(), kAmpGrain, exec_.resolved_threads(),
        stop_flag(), [&](std::uint64_t x, int) {
          if (marked(x)) amps_[x] = -amps_[x];
        });
  }

  /// Grover diffusion (inversion about the mean).
  void apply_diffusion();

  // --- elementary gates (for the gate-level circuit layer) -----------------

  /// Hadamard on qubit q.
  void apply_h(int q);
  /// Pauli-X on qubit q.
  void apply_x(int q);
  /// Pauli-Z on qubit q.
  void apply_z(int q);
  /// Controlled-Z between two qubits.
  void apply_cz(int a, int b);
  /// Multi-controlled Z: flips the phase of basis states where all qubits
  /// in `mask` are 1 (mask must be non-empty).
  void apply_mcz(std::uint64_t mask);

  /// Sets the state to the basis state |x> (used as circuit input).
  void set_basis_state(std::uint64_t x);

  /// Fidelity-style comparison ignoring global phase:
  /// |<this|other>| ~ 1.
  double overlap_magnitude(const Statevector& other) const;

  /// Probability that a measurement yields a state satisfying pred.
  template <typename Pred>
  double probability_of(Pred&& pred) const {
    return par::ThreadPool::shared().parallel_reduce(
        std::uint64_t{0}, amps_.size(), kAmpGrain, exec_.resolved_threads(),
        0.0,
        [&](std::uint64_t b, std::uint64_t e) {
          double p = 0.0;
          for (std::uint64_t x = b; x < e; ++x)
            if (pred(x)) p += std::norm(amps_[x]);
          return p;
        },
        [](double a, double b) { return a + b; });
  }

  /// Squared L2 norm (should stay 1 up to rounding; tests check this).
  double norm_squared() const;

  /// Projective measurement of all qubits; does not collapse the state
  /// (callers reset before reuse, matching Grover's restart structure).
  std::uint64_t measure(util::Xoshiro256& rng) const;

  const std::vector<std::complex<double>>& amplitudes() const {
    return amps_;
  }

 private:
  /// Amplitudes per pool chunk; sized so chunk bookkeeping is negligible
  /// next to the sweep itself, and fixed (not thread-count-derived) so the
  /// chunk boundaries — and hence every reduction's fold order — are the
  /// same for all thread counts > 1.
  static constexpr std::uint64_t kAmpGrain = 4096;

  const std::atomic<bool>* stop_flag() const {
    return gov_ != nullptr ? gov_->stop_flag() : nullptr;
  }

  int qubits_;
  std::vector<std::complex<double>> amps_;
  par::ExecPolicy exec_;
  const rt::Governor* gov_ = nullptr;
};

}  // namespace ovo::quantum
