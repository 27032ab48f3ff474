#include "rtc/sizing.hpp"

#include "rtc/pjd.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace sccft::rtc {

namespace {

/// Candidate window lengths at which an extremum of f - g can occur: Delta=0,
/// every jump point of either curve, and one nanosecond before every jump
/// point (for staircases, f - g is piecewise constant between jumps; its
/// maximum is attained immediately at an up-jump of f or immediately before
/// an up-jump of g). Curves list their jump points in increasing order, so
/// each curve's candidates come out sorted and the two runs merge in linear
/// time.
std::vector<TimeNs> candidate_points(const Curve& f, const Curve& g, TimeNs horizon) {
  std::vector<TimeNs> candidates{0};
  std::size_t second_run = 0;
  for (const Curve* curve : {&f, &g}) {
    second_run = candidates.size();
    for (TimeNs at : curve->jump_points_up_to(horizon)) {
      if (at > 0) candidates.push_back(at - 1);
      candidates.push_back(at);
    }
  }
  std::inplace_merge(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(second_run),
                     candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return candidates;
}

/// Eq. (5) over N replicas: the smallest integer D greater than
/// sup(alpha_i^u - alpha_j^l) for every ordered pair i != j.
Tokens threshold_over_pairs(const std::vector<CurveRef>& upper,
                            const std::vector<CurveRef>& lower, TimeNs horizon) {
  Tokens worst = std::numeric_limits<Tokens>::min();
  for (std::size_t i = 0; i < upper.size(); ++i) {
    for (std::size_t j = 0; j < lower.size(); ++j) {
      if (i == j) continue;
      const SupResult sup = sup_difference(*upper[i], *lower[j], horizon);
      SCCFT_ENSURES(sup.bounded && sup.stabilized);
      worst = std::max(worst, sup.value);
    }
  }
  return worst + 1;
}

/// Eq. (7)/(8) over N replicas: the worst silence-fault detection latency
/// over which replica stays healthy (its lower curve races the dead one).
TimeNs worst_silence_latency(const std::vector<CurveRef>& healthy_lower,
                             Tokens threshold_d, TimeNs horizon) {
  TimeNs worst = 0;
  for (const CurveRef& lower : healthy_lower) {
    const auto bound = detection_latency_bound_silence(*lower, threshold_d, horizon);
    SCCFT_ENSURES(bound.has_value());
    worst = std::max(worst, *bound);
  }
  return worst;
}

}  // namespace

SupResult sup_difference(const Curve& f, const Curve& g, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  SupResult result;
  result.value = f.value_at(0) - g.value_at(0);
  result.at = 0;
  for (TimeNs at : candidate_points(f, g, horizon)) {
    const Tokens diff = f.value_at(at) - g.value_at(at);
    if (diff > result.value) {
      result.value = diff;
      result.at = at;
    }
  }
  // Rates are tokens/ns (~1e-7 scale); compare with a relative tolerance.
  const double rf = f.long_term_rate();
  const double rg = g.long_term_rate();
  result.bounded = rf <= rg * (1.0 + 1e-9) + 1e-18;
  result.stabilized = result.at <= horizon / 2;
  return result;
}

std::optional<TimeNs> first_time_difference_reaches(const Curve& f, const Curve& g,
                                                    Tokens target, TimeNs horizon) {
  SCCFT_EXPECTS(horizon > 0);
  for (TimeNs at : candidate_points(f, g, horizon)) {
    if (f.value_at(at) - g.value_at(at) >= target) return at;
  }
  return std::nullopt;
}

std::optional<Tokens> min_fifo_capacity(const Curve& producer_upper,
                                        const Curve& consumer_lower, TimeNs horizon) {
  const SupResult sup = sup_difference(producer_upper, consumer_lower, horizon);
  if (!sup.bounded || !sup.stabilized) return std::nullopt;
  return std::max<Tokens>(sup.value, 1);
}

Tokens pipeline_fifo_capacity(const PJD& producer, const PJD& stage) {
  const PJDUpperCurve producer_upper(producer);
  const PJDLowerCurve stage_lower(stage);
  const TimeNs horizon = 100 * std::max(producer.period, stage.period) +
                         std::max(producer.jitter, stage.jitter);
  return std::max<Tokens>(
      min_fifo_capacity(producer_upper, stage_lower, horizon).value_or(1), 1);
}

std::optional<Tokens> min_initial_fill(const Curve& replica_out_lower,
                                       const Curve& consumer_upper, TimeNs horizon) {
  const SupResult sup = sup_difference(consumer_upper, replica_out_lower, horizon);
  if (!sup.bounded || !sup.stabilized) return std::nullopt;
  return std::max<Tokens>(sup.value, 0);
}

std::optional<Tokens> divergence_threshold(const Curve& out1_upper,
                                           const Curve& out1_lower,
                                           const Curve& out2_upper,
                                           const Curve& out2_lower, TimeNs horizon) {
  const SupResult s12 = sup_difference(out1_upper, out2_lower, horizon);
  const SupResult s21 = sup_difference(out2_upper, out1_lower, horizon);
  if (!s12.bounded || !s21.bounded || !s12.stabilized || !s21.stabilized) {
    return std::nullopt;
  }
  // Eq. (5): smallest integer strictly greater than the supremum.
  return std::max(s12.value, s21.value) + 1;
}

std::optional<TimeNs> detection_latency_bound(const Curve& healthy_lower,
                                              const Curve& faulty_upper,
                                              Tokens threshold_d, TimeNs horizon) {
  SCCFT_EXPECTS(threshold_d >= 1);
  return first_time_difference_reaches(healthy_lower, faulty_upper,
                                       2 * threshold_d - 1, horizon);
}

std::optional<TimeNs> detection_latency_bound_rate_fault(const Curve& healthy_lower,
                                                         const PJD& faulty_model,
                                                         double slowdown_factor,
                                                         Tokens threshold_d,
                                                         TimeNs horizon) {
  SCCFT_EXPECTS(slowdown_factor > 1.0);
  // Post-fault upper curve: the faulty replica's period stretches by the
  // slowdown factor (its jitter envelope stretches with it).
  PJD degraded = faulty_model;
  degraded.period =
      static_cast<TimeNs>(static_cast<double>(faulty_model.period) * slowdown_factor);
  degraded.jitter =
      static_cast<TimeNs>(static_cast<double>(faulty_model.jitter) * slowdown_factor);
  const PJDUpperCurve faulty_upper(degraded);
  if (healthy_lower.long_term_rate() <= faulty_upper.long_term_rate() * (1.0 + 1e-9)) {
    return std::nullopt;  // divergence never accumulates
  }
  return detection_latency_bound(healthy_lower, faulty_upper, threshold_d, horizon);
}

std::optional<TimeNs> detection_latency_bound_silence(const Curve& healthy_lower,
                                                      Tokens threshold_d,
                                                      TimeNs horizon) {
  const ZeroCurve silent;
  return detection_latency_bound(healthy_lower, silent, threshold_d, horizon);
}

std::optional<TimeNs> detection_latency_bound_both(const Curve& out1_lower,
                                                   const Curve& out1_faulty_upper,
                                                   const Curve& out2_lower,
                                                   const Curve& out2_faulty_upper,
                                                   Tokens threshold_d, TimeNs horizon) {
  // Eq. (7): the max over both fault assignments. Replica 1 faulty means
  // replica 2 (healthy, lower curve) races against replica 1's residual
  // post-fault output (faulty upper curve), and vice versa.
  const auto fault1 =
      detection_latency_bound(out2_lower, out1_faulty_upper, threshold_d, horizon);
  const auto fault2 =
      detection_latency_bound(out1_lower, out2_faulty_upper, threshold_d, horizon);
  if (!fault1 || !fault2) return std::nullopt;
  return std::max(*fault1, *fault2);
}

SizingReport analyze_duplicated_network(const NetworkTimingModel& model,
                                        TimeNs horizon) {
  const std::size_t n = model.replica_in_upper.size();
  SCCFT_EXPECTS(n >= 2);
  SCCFT_EXPECTS(model.replica_in_lower.size() == n);
  SCCFT_EXPECTS(model.replica_out_upper.size() == n);
  SCCFT_EXPECTS(model.replica_out_lower.size() == n);
  SizingReport report;

  for (std::size_t i = 0; i < n; ++i) {
    // Eq. (3): replicator FIFO capacity. The producer must never block on a
    // fault-free replica's input FIFO.
    const auto capacity =
        min_fifo_capacity(*model.producer_upper, *model.replica_in_lower[i], horizon);
    // Eq. (4): initial tokens so the consumer never stalls.
    const auto initial =
        min_initial_fill(*model.replica_out_lower[i], *model.consumer_upper, horizon);
    // Selector FIFO capacity: the virtual queue for replica i must absorb the
    // initial fill plus the largest lead of replica i's production over the
    // consumer's guaranteed consumption (same Eq. (3) construction applied to
    // the consumer side).
    const auto lead =
        sup_difference(*model.replica_out_upper[i], *model.consumer_lower, horizon);
    SCCFT_ENSURES(capacity.has_value() && initial.has_value() && lead.bounded);
    report.replicator_capacity.push_back(*capacity);
    report.selector_initial.push_back(*initial);
    report.selector_capacity.push_back(*initial + std::max<Tokens>(lead.value, 1));
  }

  // Eq. (5): divergence thresholds. At the selector the divergence is between
  // the replicas' output streams; at the replicator between their input
  // consumption streams ("computations for the replicator are analogous").
  report.selector_threshold =
      threshold_over_pairs(model.replica_out_upper, model.replica_out_lower, horizon);
  report.replicator_threshold =
      threshold_over_pairs(model.replica_in_upper, model.replica_in_lower, horizon);

  // Eq. (7)/(8): worst-case detection latency for a silence fault.
  report.selector_latency_bound =
      worst_silence_latency(model.replica_out_lower, report.selector_threshold, horizon);
  report.replicator_divergence_bound =
      worst_silence_latency(model.replica_in_lower, report.replicator_threshold, horizon);

  // Replicator overflow rule: detection on the write attempt that finds the
  // dead replica's FIFO full. Worst case: FIFO empty at fault time, producer
  // at its minimum rate.
  const ZeroCurve silent;
  for (const Tokens capacity : report.replicator_capacity) {
    const auto fill_time = first_time_difference_reaches(*model.producer_lower, silent,
                                                         capacity + 1, horizon);
    SCCFT_ENSURES(fill_time.has_value());
    report.replicator_overflow_bound =
        std::max(report.replicator_overflow_bound, *fill_time);
  }

  return report;
}

}  // namespace sccft::rtc
