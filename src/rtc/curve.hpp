// Arrival curves (Real-Time Calculus event-count bounds).
//
// An arrival curve bounds the number of tokens observed in any half-open time
// window [s, s+Delta), matching the paper's Eq. (2):
//
//   alpha^l(t - s)  <=  G[s, t)  <=  alpha^u(t - s)      for all s < t.
//
// All curves here are integer *staircase* functions of the window length:
// monotone non-decreasing, with a computable set of jump points and a long-term
// rate. That is sufficient (and exact) for the PJD event models used by the
// paper and for curves calibrated from traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtc/time.hpp"

namespace sccft::rtc {

/// Abstract integer staircase curve over window lengths Delta >= 0.
///
/// Invariants every implementation must satisfy:
///  * value_at(0) >= 0 and value_at is monotone non-decreasing;
///  * jump_points_up_to(H) returns, in increasing order, every Delta in (0, H]
///    at which value_at changes (evaluating at each jump point and one
///    nanosecond before it brackets the step);
///  * long_term_rate() is the limit of value_at(D)/D for D -> infinity,
///    in tokens per nanosecond.
class Curve {
 public:
  virtual ~Curve() = default;

  [[nodiscard]] virtual Tokens value_at(TimeNs delta) const = 0;
  [[nodiscard]] virtual std::vector<TimeNs> jump_points_up_to(TimeNs horizon) const = 0;
  [[nodiscard]] virtual double long_term_rate() const = 0;
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Curve> clone() const = 0;
};

/// The all-zero curve. Models a replica that has fallen silent (used as the
/// post-fault upper curve in the paper's Eq. (8)).
class ZeroCurve final : public Curve {
 public:
  [[nodiscard]] Tokens value_at(TimeNs) const override { return 0; }
  [[nodiscard]] std::vector<TimeNs> jump_points_up_to(TimeNs) const override { return {}; }
  [[nodiscard]] double long_term_rate() const override { return 0.0; }
  [[nodiscard]] std::string describe() const override { return "zero"; }
  [[nodiscard]] std::unique_ptr<Curve> clone() const override {
    return std::make_unique<ZeroCurve>();
  }
};

/// Explicit staircase: value_at(Delta) = base + #{jump points <= Delta},
/// with each jump carrying an integer step height. After the last explicit
/// jump the curve optionally extends periodically (period, tokens_per_period).
///
/// Used by trace calibration and by curve algebra results.
class StaircaseCurve final : public Curve {
 public:
  struct Jump {
    TimeNs at = 0;      // window length at which the value steps up (at > 0)
    Tokens step = 1;    // step height (> 0)
  };

  /// `jumps` must be strictly increasing in `at`. If `tail_period` > 0 the
  /// staircase repeats beyond the last jump: every `tail_period` after
  /// `tail_start` adds `tail_step` tokens.
  StaircaseCurve(Tokens base, std::vector<Jump> jumps, TimeNs tail_start = 0,
                 TimeNs tail_period = 0, Tokens tail_step = 0,
                 std::string name = "staircase");

  [[nodiscard]] Tokens value_at(TimeNs delta) const override;
  [[nodiscard]] std::vector<TimeNs> jump_points_up_to(TimeNs horizon) const override;
  [[nodiscard]] double long_term_rate() const override;
  [[nodiscard]] std::string describe() const override { return name_; }
  [[nodiscard]] std::unique_ptr<Curve> clone() const override {
    return std::make_unique<StaircaseCurve>(*this);
  }

 private:
  Tokens base_;
  std::vector<Jump> jumps_;
  TimeNs tail_start_;
  TimeNs tail_period_;
  Tokens tail_step_;
  std::string name_;
};

/// Owning value wrapper so curves can be stored in containers and passed by
/// value while remaining polymorphic (Core Guidelines C.67: avoid slicing).
class CurveRef final {
 public:
  CurveRef() : curve_(std::make_unique<ZeroCurve>()) {}
  explicit CurveRef(std::unique_ptr<Curve> curve);
  CurveRef(const CurveRef& other) : curve_(other.curve_->clone()) {}
  CurveRef& operator=(const CurveRef& other);
  CurveRef(CurveRef&&) noexcept = default;
  CurveRef& operator=(CurveRef&&) noexcept = default;
  ~CurveRef() = default;

  [[nodiscard]] const Curve& get() const { return *curve_; }
  [[nodiscard]] const Curve* operator->() const { return curve_.get(); }
  [[nodiscard]] const Curve& operator*() const { return *curve_; }

 private:
  std::unique_ptr<Curve> curve_;
};

template <typename T, typename... Args>
[[nodiscard]] CurveRef make_curve(Args&&... args) {
  return CurveRef(std::make_unique<T>(std::forward<Args>(args)...));
}

}  // namespace sccft::rtc
