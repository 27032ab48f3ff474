// Weakly-hard (m,K) acceptance and the adaptation-policy knobs.
//
// The paper's detection rules are binary: the first conformance breach is a
// verdict. Following "Leveraging Weakly-hard Constraints for Improving System
// Fault Tolerance" (arXiv:2008.06192), a stream is instead allowed to *miss*
// its design envelope up to m times in any window of K consecutive checks
// before the breach escalates. Misses below the threshold are reported as
// kAcceptanceMiss events — graduated pressure the AdaptationPolicy
// (src/adapt/policy.hpp) converts into re-dimensioning actions (widen D,
// grow FIFOs) long before the Supervisor would convict.
#pragma once

#include <cstdint>

#include "rtc/time.hpp"
#include "util/assert.hpp"

namespace sccft::rtc::online {

/// Tolerate up to `m` misses in any sliding window of `K` checks.
/// m == 0 degenerates to first-miss escalation; K is capped at 64 so the
/// window fits one machine word.
struct WeaklyHardParams {
  int m = 2;
  int K = 10;

  friend bool operator==(const WeaklyHardParams&, const WeaklyHardParams&) = default;
};

/// Sliding window of the last K hit/miss outcomes, O(1) per record.
///
/// The window is a K-bit ring held in one word: bit i set = the check at
/// (cursor - K + i) was a miss. `record` pushes the newest outcome, evicts
/// the oldest once K checks have been seen, and reports whether the window
/// now holds strictly more than m misses (the weakly-hard breach condition).
class WeaklyHardWindow {
 public:
  WeaklyHardWindow() : WeaklyHardWindow(WeaklyHardParams{}) {}

  explicit WeaklyHardWindow(WeaklyHardParams params) : params_(params) {
    SCCFT_EXPECTS(params.K >= 1 && params.K <= 64);
    SCCFT_EXPECTS(params.m >= 0 && params.m < params.K);
  }

  /// Pushes the outcome of one check. Returns true when the window now
  /// breaches its weakly-hard constraint (more than m misses among the last
  /// K checks).
  bool record(bool miss) {
    const std::uint64_t slot = std::uint64_t{1} << cursor_;
    if (filled_ == params_.K && (mask_ & slot) != 0) --misses_;
    mask_ &= ~slot;
    if (miss) {
      mask_ |= slot;
      ++misses_;
    }
    if (filled_ < params_.K) ++filled_;
    cursor_ = (cursor_ + 1) % params_.K;
    return breached();
  }

  [[nodiscard]] bool breached() const { return misses_ > params_.m; }
  [[nodiscard]] int misses() const { return misses_; }
  [[nodiscard]] const WeaklyHardParams& params() const { return params_; }

  friend bool operator==(const WeaklyHardWindow&, const WeaklyHardWindow&) = default;

 private:
  WeaklyHardParams params_;
  std::uint64_t mask_ = 0;  ///< K-bit miss ring
  int filled_ = 0;          ///< checks seen, saturating at K
  int cursor_ = 0;          ///< ring position of the next outcome
  int misses_ = 0;          ///< popcount of the valid mask bits
};

/// Everything the AdaptationPolicy (src/adapt) decides with.
///
/// Hysteresis has two independent guards: `deadband` (tokens of slack a
/// measured demand must clear before the policy re-dimensions — measurement
/// noise inside the band never acts) and `cooldown` (minimum simulated time
/// between two actuations — even sustained pressure reconfigures at a bounded
/// rate, so the protocol's quiesce windows cannot thrash the channels).
struct AdaptationConfig {
  bool enabled = false;

  /// Weakly-hard acceptance applied per monitored stream.
  WeaklyHardParams window;

  /// Hysteresis.
  Tokens deadband = 2;
  TimeNs cooldown = 50'000'000;  ///< 50 ms

  /// Margin-sensing cadence (OnlineDimensioner snapshot per tick) and the
  /// length of each quiesce→resume reconfiguration window.
  TimeNs redimension_period = 20'000'000;  ///< 20 ms
  TimeNs quiesce_window = 1'000'000;       ///< 1 ms

  /// Degradation-ladder rungs, as misses-in-window thresholds: at
  /// `widen_at` misses the policy widens D (rung 1), at `resize_at` it grows
  /// the replicator FIFOs (rung 2). Beyond m the monitor escalates
  /// kCurveViolation and the Supervisor convicts (rung 3). Must satisfy
  /// widen_at <= resize_at <= m for the ladder to precede conviction.
  int widen_at = 1;
  int resize_at = 2;

  /// Actuation steps (percent growth per action) and absolute demand
  /// headroom (tokens above the measured requirement). The headroom doubles
  /// as the slack of the policy's live-occupancy floors, so it must cover
  /// the worst-case occupancy growth within one redimension_period — burst
  /// drift can add a few tokens of backlog between two ticks.
  int widen_percent = 50;
  int grow_percent = 50;
  Tokens headroom = 4;

  /// Actuation ceilings — adaptation degrades gracefully, it never buys
  /// unbounded memory or an unbounded detection threshold.
  Tokens max_capacity = 4096;
  Tokens max_divergence = 4096;

  friend bool operator==(const AdaptationConfig&, const AdaptationConfig&) = default;
};

}  // namespace sccft::rtc::online
