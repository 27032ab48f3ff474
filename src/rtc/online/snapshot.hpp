// Deterministic snapshots of empirically measured arrival curves.
//
// A CurveEstimator (rtc/online/estimator.hpp) observes a live token stream
// and maintains, per window length Delta_j of a power-of-two lattice, the
// maximum count seen in any window (Delta_j-long, ending at an event) and the
// minimum count seen in any fully observed window. A snapshot freezes those
// records at a virtual-time instant, so results are pure functions of the
// event stream — byte-identical across runs and across `--jobs` values.
//
// This header is intentionally rtc-only (no trace/sim dependencies), so
// result records (apps/common/experiment.hpp) can hold snapshots without
// depending on the online subsystem's library.
#pragma once

#include <cstdint>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/time.hpp"

namespace sccft::rtc::online {

/// The measured alpha-hat^u / alpha-hat^l staircase of one stream, sampled on
/// the estimator's Delta lattice at virtual time `at`.
struct EmpiricalCurveSnapshot {
  TimeNs at = 0;             ///< virtual time the snapshot was taken
  std::uint64_t events = 0;  ///< events observed since construction
  TimeNs first_event = -1;   ///< timestamp of the first event (-1: none yet)

  struct Point {
    TimeNs delta = 0;          ///< lattice window length
    Tokens upper = 0;          ///< max events in any observed (t-delta, t]
    Tokens lower = 0;          ///< min events in any fully observed [t-delta, t)
    bool lower_valid = false;  ///< false until one full window of this length fits
                               ///< inside the observed span

    friend bool operator==(const Point&, const Point&) = default;
  };
  std::vector<Point> points;  ///< strictly increasing in delta

  friend bool operator==(const EmpiricalCurveSnapshot&,
                         const EmpiricalCurveSnapshot&) = default;
};

/// The measured upper staircase as a Curve usable by rtc/sizing.
///
/// At every lattice point the curve equals the measurement exactly; between
/// lattice points (and beyond the last one) it holds the last certified
/// value. The result is a *lower* bound on the true alpha^u — the measured
/// requirement at the sampled windows — so sizing quantities derived from it
/// compare meaningfully against their design-time counterparts (a conformant
/// stream's measured |F|/D never exceed the designed ones). Runtime
/// conformance checking does not use this interpolation at all: the
/// ConformanceChecker compares records at lattice points directly.
[[nodiscard]] inline StaircaseCurve empirical_upper_curve(
    const EmpiricalCurveSnapshot& snapshot) {
  std::vector<StaircaseCurve::Jump> jumps;
  Tokens value = 0;
  for (const auto& point : snapshot.points) {
    if (point.upper > value) {  // monotonize
      jumps.push_back({point.delta, point.upper - value});
      value = point.upper;
    }
  }
  return StaircaseCurve(0, std::move(jumps), 0, 0, 0, "empirical-upper");
}

/// The measured lower staircase as a Curve usable by rtc/sizing. Lattice
/// points whose windows were never fully observed contribute nothing (the
/// curve stays at its last certified value). Flat beyond the lattice, like
/// the upper curve.
[[nodiscard]] inline StaircaseCurve empirical_lower_curve(
    const EmpiricalCurveSnapshot& snapshot) {
  std::vector<StaircaseCurve::Jump> jumps;
  Tokens value = 0;
  for (const auto& point : snapshot.points) {
    if (!point.lower_valid) continue;
    if (point.lower > value) {
      jumps.push_back({point.delta, point.lower - value});
      value = point.lower;
    }
  }
  return StaircaseCurve(0, std::move(jumps), 0, 0, 0, "empirical-lower");
}

/// The largest window length the snapshot fully certifies (largest lattice
/// point with a valid lower record), i.e. the sound analysis horizon for
/// sizing computations on the empirical curves. Falls back to the largest
/// lattice point when no lower window was ever completed.
[[nodiscard]] inline TimeNs empirical_horizon(const EmpiricalCurveSnapshot& snapshot) {
  TimeNs horizon = 0;
  for (const auto& point : snapshot.points) {
    if (point.lower_valid && point.delta > horizon) horizon = point.delta;
  }
  if (horizon == 0 && !snapshot.points.empty()) horizon = snapshot.points.back().delta;
  return horizon;
}

}  // namespace sccft::rtc::online
