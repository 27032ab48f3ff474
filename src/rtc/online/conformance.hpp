// Online verification of the paper's Eq. (2) conformance condition
//
//     alpha^l(t - s)  <=  G[s, t)  <=  alpha^u(t - s)
//
// against a configured design curve pair, evaluated on a CurveEstimator's
// lattice. The checker pre-samples the design curves at every lattice point
// at construction, so a check is a handful of integer comparisons with no
// curve evaluation on the hot path.
//
// Two kinds of breach:
//   * upper breach — the estimator's current (instant-ending) window count
//     exceeds alpha^u(Delta_j): the stream bursts beyond its design model
//     (rate creep, jitter creep). Detected at the event that overflows the
//     window, so detection latency is one event.
//   * lower breach — some fully-observed window held fewer events than
//     alpha^l(Delta_j): the stream starved beyond its design model. Witnessed
//     by the estimator's running minima, which advance on polls as well as on
//     events (a silent stream still gets caught).
//
// The checker records every breach (counters for the dimensioning report) but
// exposes `first()` separately so callers can escalate exactly once per
// stream — the ft::Supervisor treats the first conformance violation like any
// other detection and re-checks are redundant while recovery is in flight.
//
// Two entry styles share the counting semantics:
//   * check(estimator) — evaluate the estimator's current records (the
//     estimator must have been advanced with add_event/advance_to first).
//   * add_and_check / advance_and_check — the OnlineMonitor hot path: one
//     fused pass interleaves the estimator's per-level pointer maintenance
//     with the comparisons, and while no upper breach is live a cross-stream
//     advance skips the strict-pointer work entirely (counts are
//     nonincreasing between events, so an in-bounds level cannot newly breach
//     its upper bound without an own event). The fused lower test fires only
//     when a level's running minimum improves — equivalent to re-testing
//     every check, because a breach that does not deepen was already either
//     counted or in-bounds at the previous check of the same stream. Before
//     the stream's quiet deadline (quiet_at) a cross-stream advance skips
//     the lattice pass altogether: no lower test can fire there, and a later
//     pass records a minimum at least as low.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/time.hpp"
#include "util/assert.hpp"

namespace sccft::rtc::online {

class ConformanceChecker {
 public:
  struct Violation {
    TimeNs at = 0;        ///< virtual time of the breach
    int level = 0;        ///< lattice level that tripped
    bool upper = false;   ///< true: upper breach, false: lower breach
    Tokens observed = 0;  ///< the offending window count
    Tokens bound = 0;     ///< the design-curve value it crossed

    friend bool operator==(const Violation&, const Violation&) = default;
  };

  /// Samples `design_lower` / `design_upper` on the lattice of `estimator`.
  /// The estimator reference is only used for its deltas; any estimator with
  /// the same LatticeConfig may be passed to check().
  ConformanceChecker(const CurveEstimator& estimator, const Curve& design_lower,
                     const Curve& design_upper);

  /// Evaluate Eq. (2) on the estimator's current records. Returns the breach
  /// found this call (if any); all breaches are also counted.
  std::optional<Violation> check(const CurveEstimator& estimator) {
    SCCFT_EXPECTS(estimator.levels() == static_cast<int>(upper_bound_.size()));
    ++checks_;
    std::optional<Violation> found;
    const TimeNs at = estimator.instant();
    bool live = false;

    const int levels = estimator.levels();
    for (int j = 0; j < levels; ++j) {
      const auto idx = static_cast<std::size_t>(j);

      // Upper breach: the window ending right now holds more events than the
      // design curve allows. Evaluated on the live count (not the running max)
      // so a sustained burst is counted per offending event, not per check.
      const Tokens count = estimator.window_count(j);
      if (count > upper_bound_[idx]) [[unlikely]] {
        live = true;
        ++upper_violations_;
        Violation v{.at = at, .level = j, .upper = true, .observed = count,
                    .bound = upper_bound_[idx]};
        if (!first_) first_ = v;
        if (!found) found = v;
      }

      // Lower breach: the running minimum dropped below the design curve. The
      // minimum is sticky, so only count when it deepens past what was already
      // reported.
      if (estimator.lower_valid(j)) {
        const Tokens low = estimator.lower_record(j);
        if (low < lower_bound_[idx] &&
            (lower_reported_valid_[idx] == 0 || low < lower_reported_[idx]))
            [[unlikely]] {
          const Violation v = record_lower(at, j, low);
          if (!found) found = v;
        }
      }
    }
    upper_live_ = live;
    return found;
  }

  /// Fused hot path: record an own-stream emission at `at` and check. One
  /// pass over the lattice does the pointer maintenance, the record updates,
  /// and the Eq. (2) comparisons.
  std::optional<Violation> add_and_check(CurveEstimator& estimator, TimeNs at) {
    estimator.push_event(at);
    return fused_check(estimator, at, /*is_event=*/true);
  }

  /// Fused hot path: move the stream's observation instant to `at` (a peer's
  /// emission) and check. While no upper breach is live this touches only the
  /// closed pointers and lower records, and inside a quiet stretch (see
  /// quiet_at) nothing but the instant.
  std::optional<Violation> advance_and_check(CurveEstimator& estimator, TimeNs at) {
    if (upper_live_) [[unlikely]] {
      SCCFT_EXPECTS(at >= estimator.instant());
      return fused_check(estimator, at, /*is_event=*/false);
    }
    ++checks_;
    if (quiet_at(estimator, at)) {
      SCCFT_EXPECTS(at >= estimator.instant_);
      estimator.instant_ = at;
      return std::nullopt;
    }
    std::optional<Violation> found;
    estimator.advance_lower(at, [&](std::size_t j, Tokens low) {
      if (low < lower_bound_[j] &&
          (lower_reported_valid_[j] == 0 || low < lower_reported_[j]))
          [[unlikely]] {
        const Violation v = record_lower(at, static_cast<int>(j), low);
        if (!found) found = v;
      }
    });
    return found;
  }

  [[nodiscard]] const std::optional<Violation>& first() const { return first_; }
  [[nodiscard]] std::uint64_t upper_violations() const { return upper_violations_; }
  [[nodiscard]] std::uint64_t lower_violations() const { return lower_violations_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

  [[nodiscard]] Tokens upper_bound(int level) const {
    return upper_bound_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] Tokens lower_bound(int level) const {
    return lower_bound_[static_cast<std::size_t>(level)];
  }

 private:
  /// Whether a cross-stream advance to `at` may skip the lattice pass. After
  /// the stream's last event, every [lo, at) count is nonincreasing in `at`,
  /// so any later pass (the next own event, a snapshot, or an advance past
  /// the quiet stretch) records a minimum at least as low as this one would.
  /// Skipping is exact while no level can reach a new minimum below its
  /// design bound — i.e. before quiet_until_, the first instant at which one
  /// could. (An `at` equal to the last event's time needs no pass either:
  /// that event's own pass already evaluated the same windows.)
  bool quiet_at(const CurveEstimator& estimator, TimeNs at) {
    // Every later event, record or eviction can only postpone the alarm, so
    // a stale quiet_until_ errs early and is refreshed only once passed —
    // except across the stream's first event, before which no level can
    // ever fire.
    if (!quiet_armed_ || at >= quiet_until_) {
      quiet_until_ = lower_quiet_until(estimator);
      quiet_armed_ = estimator.first_event_ >= 0;
    }
    return at < quiet_until_;
  }

  /// First instant after the stream's last event at which some level's
  /// [lo, at) count can drop below min(design bound, lower record) — the only
  /// way a lower check can fire (a reported breach is never below the lower
  /// record, which only ever deepens).
  TimeNs lower_quiet_until(const CurveEstimator& estimator) const {
    constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();
    // First instant t with t - delta > ts (saturating: ts, delta >= 0).
    auto after = [](TimeNs ts, TimeNs delta) {
      return ts >= kNever - delta ? kNever : ts + delta + 1;
    };
    if (estimator.first_event_ < 0) return kNever;
    const std::size_t live = estimator.live_count();
    const TimeNs* const ts = estimator.times_.data() + estimator.start_;
    TimeNs until = kNever;
    for (std::size_t j = 0; j < upper_bound_.size(); ++j) {
      Tokens floor = lower_bound_[j];
      if (estimator.lower_valid(static_cast<int>(j))) {
        floor = std::min(floor, estimator.lower_[j]);
      }
      if (floor <= 0) continue;  // a count never drops below zero
      const TimeNs delta = estimator.deltas_[j];
      // The level's first complete window, and the instant the floor-th most
      // recent event leaves it (with fewer live events the count is already
      // below the floor).
      TimeNs alarm = after(estimator.first_event_, delta - 1);
      if (static_cast<std::size_t>(floor) <= live) {
        alarm = std::max(alarm, after(ts[live - static_cast<std::size_t>(floor)], delta));
      }
      until = std::min(until, alarm);
    }
    return until;
  }

  std::optional<Violation> fused_check(CurveEstimator& estimator, TimeNs at,
                                       bool is_event) {
    ++checks_;
    std::optional<Violation> found;
    bool live = false;
    const Tokens* const upper_bound = upper_bound_.data();
    estimator.observe_with(
        at, is_event,
        [&, upper_bound](std::size_t j, Tokens count) {
          if (count > upper_bound[j]) [[unlikely]] {
            live = true;
            ++upper_violations_;
            Violation v{.at = at, .level = static_cast<int>(j), .upper = true,
                        .observed = count, .bound = upper_bound_[j]};
            if (!first_) first_ = v;
            if (!found) found = v;
          }
        },
        [&](std::size_t j, Tokens low) {
          if (low < lower_bound_[j] &&
              (lower_reported_valid_[j] == 0 || low < lower_reported_[j]))
              [[unlikely]] {
            const Violation v = record_lower(at, static_cast<int>(j), low);
            if (!found) found = v;
          }
        });
    upper_live_ = live;
    return found;
  }

  /// Books a lower breach: bumps the counter, deepens the reported floor, and
  /// latches first_. Out of the fast path — breaches are rare by design.
  Violation record_lower(TimeNs at, int level, Tokens low) {
    const auto idx = static_cast<std::size_t>(level);
    lower_reported_valid_[idx] = 1;
    lower_reported_[idx] = low;
    ++lower_violations_;
    const Violation v{.at = at, .level = level, .upper = false,
                      .observed = low, .bound = lower_bound_[idx]};
    if (!first_) first_ = v;
    return v;
  }

  // The cross-stream advance's state comes first, right after the
  // estimator's trailing instant_ in OnlineMonitor::Stream, so a quiet
  // advance stays within a cache line or two of the stream.
  /// True while some level's current window count exceeds its upper bound —
  /// set by every (fused or plain) check; gates the reduced advance path.
  bool upper_live_ = false;
  /// Cross-stream advances before quiet_until_ skip the lattice pass
  /// (quiet_at); quiet_armed_ once it was computed after the first event.
  bool quiet_armed_ = false;
  TimeNs quiet_until_ = 0;
  std::uint64_t checks_ = 0;

  std::vector<Tokens> upper_bound_;
  std::vector<Tokens> lower_bound_;
  // A lower breach at level j stays visible in the estimator's running
  // minimum forever; remember the worst value already reported so only a
  // *deepening* starvation re-counts.
  std::vector<Tokens> lower_reported_;
  std::vector<std::uint8_t> lower_reported_valid_;

  std::optional<Violation> first_;
  std::uint64_t upper_violations_ = 0;
  std::uint64_t lower_violations_ = 0;
};

}  // namespace sccft::rtc::online
