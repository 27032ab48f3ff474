// Greedy Processing Component (GPC) analysis — service-curve propagation.
//
// The paper's design flow assumes interface-level timing models for the
// replicas' outputs. Reference [1] (Chakraborty et al., "Interface-based
// rate analysis of embedded systems", RTSS 2006) derives them: a stream with
// arrival curves [alpha^u, alpha^l] processed by a component with a lower
// service curve beta^l produces an output stream whose curves, and the
// component's delay/backlog bounds, follow from min-plus algebra:
//
//   alpha'^u = alpha^u (/) beta^l              (output upper bound)
//   alpha'^l = alpha^l (x) beta^l              (output lower bound)
//   beta'^l(Delta) = max(0, sup over 0 <= lambda <= Delta of
//                            beta^l(lambda) - alpha^u(lambda))
//                                              (remaining service)
//   backlog <= sup (alpha^u - beta^l)          (vertical deviation)
//   delay   <= horizontal deviation of alpha^u below beta^l
//
// These are the standard conservative forms; together with sizing.hpp they
// let a designer start from producer curves plus per-stage service curves
// and derive everything the fault-tolerance harness needs.
#pragma once

#include <optional>

#include "rtc/curve.hpp"
#include "rtc/time.hpp"

namespace sccft::rtc {

/// Rate-latency (lower) service curve: no service for `latency`, then one
/// token every `token_period` — beta(Delta) = floor((Delta - latency) /
/// token_period) for Delta > latency. The canonical model of a processing
/// stage with initial delay.
class RateLatencyCurve final : public Curve {
 public:
  RateLatencyCurve(TimeNs token_period, TimeNs latency);

  [[nodiscard]] Tokens value_at(TimeNs delta) const override;
  [[nodiscard]] std::vector<TimeNs> jump_points_up_to(TimeNs horizon) const override;
  [[nodiscard]] double long_term_rate() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<Curve> clone() const override {
    return std::make_unique<RateLatencyCurve>(*this);
  }

 private:
  TimeNs token_period_;
  TimeNs latency_;
};

/// Maximum horizontal deviation: the smallest d >= 0 such that
/// alpha^u(Delta) <= beta^l(Delta + d) for all Delta in [0, horizon].
/// This is the classic delay bound of a greedy component. Returns nullopt if
/// no d <= horizon suffices (service slower than arrivals).
[[nodiscard]] std::optional<TimeNs> horizontal_deviation(const Curve& arrival_upper,
                                                         const Curve& service_lower,
                                                         TimeNs horizon);

/// Result of propagating one stream through one greedy component.
struct GpcResult {
  StaircaseCurve output_upper;     ///< alpha'^u on [0, horizon]
  StaircaseCurve output_lower;     ///< alpha'^l on [0, horizon]
  StaircaseCurve remaining_service;///< beta'^l on [0, horizon]
  Tokens backlog_bound = 0;        ///< max queued tokens
  TimeNs delay_bound = 0;          ///< max per-token delay
};

/// Runs the GPC analysis on [0, horizon]. Throws util::ContractViolation if
/// the service cannot sustain the arrivals (unbounded backlog).
[[nodiscard]] GpcResult gpc_analyze(const Curve& arrival_upper,
                                    const Curve& arrival_lower,
                                    const Curve& service_lower, TimeNs horizon);

}  // namespace sccft::rtc
