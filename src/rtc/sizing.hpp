// Queue sizing, divergence thresholds, and fault-detection latency bounds.
//
// Implements the design-time analyses of the paper's Section 3.4:
//   Eq. (3)  replicator/producer FIFO capacity,
//   Eq. (4)  initial token count at the consumer-side FIFO,
//   Eq. (5)  selector divergence threshold D (no-false-positive bound),
//   Eq. (6)-(8)  worst-case fault-detection latency.
//
// All computations are exact for staircase curves: suprema/infima of curve
// differences are evaluated at the curves' jump points (and one nanosecond
// before each), which is where extrema of integer staircases occur.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/time.hpp"

namespace sccft::rtc {

struct PJD;

/// Result of a supremum computation over a bounded horizon.
struct SupResult {
  Tokens value = 0;      ///< the supremum of f - g over (0, horizon]
  TimeNs at = 0;         ///< a window length attaining it
  bool bounded = true;   ///< false if long_term_rate(f) > long_term_rate(g)
  bool stabilized = true;///< true if the supremum was attained in the first
                         ///< half of the horizon (heuristic convergence check)
};

/// sup over Delta in [0, horizon] of f(Delta) - g(Delta).
///
/// If f's long-term rate exceeds g's the difference grows without bound and
/// `bounded` is false (`value` then holds the horizon-limited maximum).
[[nodiscard]] SupResult sup_difference(const Curve& f, const Curve& g, TimeNs horizon);

/// Smallest Delta in (0, horizon] with f(Delta) - g(Delta) >= target, if any.
[[nodiscard]] std::optional<TimeNs> first_time_difference_reaches(const Curve& f,
                                                                  const Curve& g,
                                                                  Tokens target,
                                                                  TimeNs horizon);

/// Eq. (3): smallest FIFO capacity |F| such that
/// alpha_P^u(Delta) <= alpha_in^l(Delta) + |F| for all Delta.
/// Returns nullopt if the producer's rate exceeds the consumer-side rate
/// (no finite FIFO suffices).
[[nodiscard]] std::optional<Tokens> min_fifo_capacity(const Curve& producer_upper,
                                                      const Curve& consumer_lower,
                                                      TimeNs horizon);

/// Eq. (3) capacity of a plain, unreplicated pipeline FIFO: the producer's
/// upper curve against the consuming stage's lower curve over a
/// 100 x max(P) + max(J) horizon, and at least one token.
[[nodiscard]] Tokens pipeline_fifo_capacity(const PJD& producer, const PJD& stage);

/// Eq. (4): smallest initial fill F_C0 such that
/// alpha_out^l(Delta) >= alpha_C^u(Delta) - F_C0 for all Delta.
[[nodiscard]] std::optional<Tokens> min_initial_fill(const Curve& replica_out_lower,
                                                     const Curve& consumer_upper,
                                                     TimeNs horizon);

/// Eq. (5): smallest integer D with
/// D > sup_{i != j, lambda >= 0} { alpha_i^u(lambda) - alpha_j^l(lambda) }.
/// Guarantees no false positives of the divergence detector.
[[nodiscard]] std::optional<Tokens> divergence_threshold(const Curve& out1_upper,
                                                         const Curve& out1_lower,
                                                         const Curve& out2_upper,
                                                         const Curve& out2_lower,
                                                         TimeNs horizon);

/// Eq. (6): inf { Delta | (alpha_healthy^l - alpha_faulty^u)(Delta) >= 2D-1 },
/// the worst-case detection latency when the faulty replica still emits
/// tokens bounded by `faulty_upper`.
[[nodiscard]] std::optional<TimeNs> detection_latency_bound(const Curve& healthy_lower,
                                                            const Curve& faulty_upper,
                                                            Tokens threshold_d,
                                                            TimeNs horizon);

/// Eq. (8): special case of Eq. (6) for a replica that falls completely
/// silent (faulty upper curve identically zero).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_silence(
    const Curve& healthy_lower, Tokens threshold_d, TimeNs horizon);

/// Eq. (7): maximum over both fault assignments (replica 1 faulty with
/// replica 2 healthy, and vice versa).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_both(
    const Curve& out1_lower, const Curve& out1_faulty_upper, const Curve& out2_lower,
    const Curve& out2_faulty_upper, Tokens threshold_d, TimeNs horizon);

/// Bundle of all design-time quantities for one replicated network, as
/// produced by `analyze_duplicated_network`. Per-replica quantities hold one
/// entry per replica, in replica order.
struct SizingReport {
  std::vector<Tokens> replicator_capacity;  ///< |R_i| (Eq. 3, replica i's input FIFO)
  std::vector<Tokens> selector_capacity;    ///< |S_i| (consumer side, replica i)
  std::vector<Tokens> selector_initial;     ///< |S_i|_0 initial tokens (Eq. 4)
  Tokens replicator_threshold = 0;  ///< divergence threshold D at replicator (Eq. 5)
  Tokens selector_threshold = 0;    ///< divergence threshold D at selector (Eq. 5)
  /// Worst-case silence-fault detection latency of the replicator's
  /// queue-overflow rule: the producer, writing no faster than its lower
  /// curve requires, fills the dead replica's FIFO (|R_i| tokens from an
  /// empty queue) and detects on the (|R_i|+1)-th write attempt.
  TimeNs replicator_overflow_bound = 0;
  /// Eq. (7)/(8) divergence-rule bound applied to the replicas' input
  /// consumption streams ("computations for the replicator are analogous").
  TimeNs replicator_divergence_bound = 0;
  TimeNs selector_latency_bound = 0;    ///< Eq. (7)/(8) at the selector

  /// Worst-case latency until the first rule convicts a silent replica: the
  /// earlier of the replicator's overflow bound and the selector's bound.
  [[nodiscard]] TimeNs detection_bound() const {
    return std::min(replicator_overflow_bound, selector_latency_bound);
  }
};

/// Inputs to the sizing analysis: arrival-curve pairs for the producer and
/// the consumer, and per replica (one entry each, N >= 2) its input
/// consumption and its output production.
struct NetworkTimingModel {
  CurveRef producer_upper, producer_lower;
  CurveRef consumer_upper, consumer_lower;
  std::vector<CurveRef> replica_in_upper, replica_in_lower;
  std::vector<CurveRef> replica_out_upper, replica_out_lower;
};

/// Runs the complete Section 3.4 analysis for N replicas. Every quantity is
/// the paper's per-replica form: Eq. (3)/(4) per replica, Eq. (5) as 1 + the
/// largest sup over ordered replica pairs, Eq. (7)/(8) as the worst healthy
/// replica. Throws util::ContractViolation if N < 2, the per-replica curve
/// lists disagree in size, or any bound is infeasible within `horizon`
/// (e.g. producer faster than a replica can consume).
[[nodiscard]] SizingReport analyze_duplicated_network(const NetworkTimingModel& model,
                                                      TimeNs horizon);

/// Eq. (6) for a *rate-degradation* fault: the faulty replica keeps emitting,
/// but `slowdown_factor` times slower — its post-fault upper curve is its
/// healthy model stretched in time. Returns the worst-case detection latency
/// of the divergence rule via detection_latency_bound(), or nullopt if the
/// degradation is too mild to accumulate 2D-1 tokens of divergence within
/// the horizon (the detectability limit: a replica only infinitesimally
/// slower than its contract takes arbitrarily long to convict).
[[nodiscard]] std::optional<TimeNs> detection_latency_bound_rate_fault(
    const Curve& healthy_lower, const PJD& faulty_model,
    double slowdown_factor, Tokens threshold_d, TimeNs horizon);

}  // namespace sccft::rtc
