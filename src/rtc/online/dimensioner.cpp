#include "rtc/online/dimensioner.hpp"

#include <algorithm>

namespace sccft::rtc::online {

OnlineMargins redimension(const EmpiricalCurveSnapshot& producer,
                          const EmpiricalCurveSnapshot& replica1_out,
                          const EmpiricalCurveSnapshot& replica2_out,
                          const NetworkTimingModel& design,
                          const SizingReport& designed) {
  OnlineMargins margins;
  margins.designed_fifo1 = designed.replicator_capacity[0];
  margins.designed_fifo2 = designed.replicator_capacity[1];
  margins.designed_divergence = designed.selector_threshold;
  margins.designed_latency = designed.selector_latency_bound;

  // Sound horizon: the largest window any of the snapshots fully certifies.
  const TimeNs horizon = std::min({empirical_horizon(producer),
                                   empirical_horizon(replica1_out),
                                   empirical_horizon(replica2_out)});
  margins.horizon = horizon;
  if (horizon <= 0) return margins;

  // The sizing sups run over twice the certified span. Past `horizon` the
  // empirical curves are flat by construction while the design curves keep
  // growing, so every difference is non-increasing there and the sup lands in
  // the certified half — which is exactly what sup_difference's stabilization
  // check (argmax <= horizon/2) verifies. Evaluating only up to `horizon`
  // would hide the flat tail from the oracle and spuriously reject sups that
  // peak late in the span.
  const TimeNs sup_horizon = 2 * horizon;

  // Eq. (3): measured producer burstiness against each replica's *design*
  // input service (the consuming side is a scheduling property, not visible
  // to the emission taps).
  const StaircaseCurve producer_upper = empirical_upper_curve(producer);
  margins.measured_fifo1 =
      min_fifo_capacity(producer_upper, design.replica_in_lower[0].get(), sup_horizon);
  margins.measured_fifo2 =
      min_fifo_capacity(producer_upper, design.replica_in_lower[1].get(), sup_horizon);

  // Eq. (5): divergence threshold from the measured output curves of both
  // replicas.
  const StaircaseCurve out1_upper = empirical_upper_curve(replica1_out);
  const StaircaseCurve out1_lower = empirical_lower_curve(replica1_out);
  const StaircaseCurve out2_upper = empirical_upper_curve(replica2_out);
  const StaircaseCurve out2_lower = empirical_lower_curve(replica2_out);
  margins.measured_divergence = divergence_threshold(out1_upper, out1_lower,
                                                     out2_upper, out2_lower, sup_horizon);

  // Eq. (8): silence-fault latency at the *designed* threshold, taking the
  // slower (worse) replica's measured lower curve. nullopt when neither
  // measured lower curve accumulates 2D-1 tokens within the horizon.
  const Tokens d = designed.selector_threshold;
  const auto lat1 = detection_latency_bound_silence(out1_lower, d, horizon);
  const auto lat2 = detection_latency_bound_silence(out2_lower, d, horizon);
  if (lat1 && lat2) {
    margins.measured_latency = std::max(*lat1, *lat2);
  } else {
    margins.measured_latency = std::nullopt;
  }

  return margins;
}

}  // namespace sccft::rtc::online
