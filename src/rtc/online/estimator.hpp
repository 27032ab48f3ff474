// Online empirical arrival-curve estimation (the measurement half of the
// runtime-conformance subsystem).
//
// A CurveEstimator watches one token stream — a sequence of emission
// timestamps in nondecreasing virtual time — and maintains, for every window
// length Delta_j of a power-of-two lattice
//
//     Delta_j = base_delta * 2^j,   j = 0 .. levels-1,
//
// two records:
//
//   upper_[j] = max over observed event instants t of  G(t - Delta_j, t]
//   lower_[j] = min over observed instants t of        G[t - Delta_j, t)
//               (only windows lying fully inside the observed span count)
//
// where G(I) is the number of events in interval I. These are the empirical
// staircases alpha-hat^u / alpha-hat^l of the paper's Eq. (2), sampled on the
// lattice.
//
// Soundness (the property the subsystem's tests pin down): every recorded
// count is the count of a *real* window of the stream, so for a stream that
// conforms to a design curve pair (alpha^l, alpha^u),
//
//     upper_[j] <= alpha^u(Delta_j)   and   lower_[j] >= alpha^l(Delta_j).
//
// The max over (t-Delta, t] windows is restricted to event instants because
// the supremum of the right-closed window count is attained when the window
// ends exactly at an event; polling between events can only lower it. The min
// over [t-Delta, t) windows is updated at every observation (events *and*
// advance_to polls) because the infimum can occur between events — e.g. a
// silent stream's minimum is witnessed by polling, never by an event. Windows
// reaching before the first event are skipped (the stream's span starts at
// its first emission; counting the idle prefix would record spurious zeros).
//
// Mechanics: timestamps live in a contiguous vector consumed from the front
// via a start offset (compacted amortized-O(1), so indexing is plain array
// arithmetic — this estimator sits on the monitor's per-emission hot path,
// where a deque's segmented indexing and out-of-line calls were measurable).
// Per level a pair of monotone pointers marks the first buffered event inside
// the current window's half-open/closed variants. Pointers only move forward,
// and events older than the largest lattice window are evicted from the
// front, so the cost is O(levels) amortized per event and the buffer holds at
// most the events of the largest window. Everything is keyed to virtual
// time — snapshots are pure functions of the event stream and therefore
// byte-identical across repeated runs and across `--jobs` values.
//
// ConformanceChecker is a friend: its fused observe-and-check entry points
// (the OnlineMonitor hot path) interleave the per-level pointer maintenance
// here with the Eq. (2) comparisons, and are allowed to let the strict
// pointers lag during cross-stream advances (see advance_lower below) — and,
// inside a quiet stretch (ConformanceChecker::quiet_at), to move only the
// instant, leaving closed pointers and lower records to the next pass (any
// snapshot() or observation re-evaluates them).
#pragma once

#include <cstdint>
#include <vector>

#include "rtc/online/snapshot.hpp"
#include "rtc/time.hpp"
#include "util/assert.hpp"

namespace sccft::rtc::online {

class ConformanceChecker;

/// The power-of-two window lattice the estimator samples on.
struct LatticeConfig {
  TimeNs base_delta = 0;  ///< Delta_0, must be > 0 (typically the stream period)
  int levels = 8;         ///< lattice size; Delta_max = base_delta << (levels-1)
};

class CurveEstimator {
 public:
  explicit CurveEstimator(const LatticeConfig& config);

  /// Record one emission at virtual time `at` (nondecreasing across calls,
  /// and not before the last advance_to).
  void add_event(TimeNs at) {
    push_event(at);
    observe(at, /*is_event=*/true);
  }

  /// Advance the observation instant without an event — lets the lower-curve
  /// minima witness silent stretches. Idempotent for equal `at`.
  void advance_to(TimeNs at) {
    SCCFT_EXPECTS(at >= instant_);
    observe(at, /*is_event=*/false);
  }

  [[nodiscard]] int levels() const { return static_cast<int>(deltas_.size()); }
  [[nodiscard]] TimeNs delta(int level) const { return deltas_[static_cast<std::size_t>(level)]; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] TimeNs instant() const { return instant_; }
  [[nodiscard]] TimeNs first_event() const { return first_event_; }

  /// Current count of events in (instant - Delta_level, instant].
  [[nodiscard]] Tokens window_count(int level) const {
    const std::uint64_t end = base_ + live_count();
    return static_cast<Tokens>(end - strict_[static_cast<std::size_t>(level)]);
  }

  /// Running records per level (what snapshot() freezes).
  [[nodiscard]] Tokens upper_record(int level) const {
    return upper_[static_cast<std::size_t>(level)];
  }
  [[nodiscard]] bool lower_valid(int level) const {
    return lower_valid_[static_cast<std::size_t>(level)] != 0;
  }
  [[nodiscard]] Tokens lower_record(int level) const {
    return lower_[static_cast<std::size_t>(level)];
  }

  /// Events currently buffered (bounded by the largest window's content).
  [[nodiscard]] std::size_t buffered_events() const { return live_count(); }

  /// Advance to `at` and freeze the empirical staircases.
  [[nodiscard]] EmpiricalCurveSnapshot snapshot(TimeNs at);

 private:
  friend class ConformanceChecker;

  [[nodiscard]] std::size_t live_count() const { return times_.size() - start_; }

  /// add_event's bookkeeping preamble: appends the timestamp without moving
  /// the observation instant (observe / observe_with completes the step).
  void push_event(TimeNs at) {
    SCCFT_EXPECTS(at >= instant_);
    SCCFT_EXPECTS(at >= 0);
    if (first_event_ < 0) first_event_ = at;
    tail_equal_ = (live_count() != 0 && times_.back() == at) ? tail_equal_ + 1 : 1;
    times_.push_back(at);
    ++events_;
  }

  void observe(TimeNs at, bool is_event) {
    observe_with(at, is_event, [](std::size_t, Tokens) {}, [](std::size_t, Tokens) {});
  }

  /// One full observation step. `on_count(j, count)` fires per level with the
  /// post-advance (instant - Delta_j, instant] count; `on_lower_update(j, low)`
  /// fires only when level j's lower record improves (the only instants at
  /// which a new lower breach can appear — see ConformanceChecker). Hooks are
  /// invoked in ascending level order, on_count before on_lower_update.
  template <class CountHook, class LowerHook>
  void observe_with(TimeNs at, bool is_event, CountHook&& on_count,
                    LowerHook&& on_lower_update) {
    instant_ = at;
    const std::size_t n = live_count();
    const std::uint64_t end = base_ + n;
    // Buffered timestamps indexed by absolute event number: abs index k lives
    // at ts[k - base_].
    const TimeNs* const ts = times_.data() + start_;
    const std::uint64_t base = base_;
    // Events at exactly `at` belong to (lo, at] windows but not [lo, at) ones —
    // and only [lo, at) windows are complete (later calls may still add events
    // at time `at`).
    const std::uint64_t at_tail =
        (n != 0 && times_.back() == at) ? tail_equal_ : 0;
    const TimeNs span_from = first_event_;
    // Array bases held in locals: the byte store to lower_valid_ may alias
    // any member, which otherwise reloads every vector's data pointer on
    // every level.
    const TimeNs* const deltas = deltas_.data();
    std::uint64_t* const strict_at = strict_.data();
    std::uint64_t* const closed_at = closed_.data();
    Tokens* const upper = upper_.data();
    Tokens* const lower = lower_.data();
    std::uint8_t* const lower_valid = lower_valid_.data();

    const std::size_t level_count = deltas_.size();
    for (std::size_t j = 0; j < level_count; ++j) {
      const TimeNs lo = at - deltas[j];

      // In steady state a window sheds at most one event per observation:
      // that step is taken without a branch, the loop only runs for the rest.
      std::uint64_t strict = strict_at[j];
      if (strict < end) [[likely]] {
        strict += static_cast<std::uint64_t>(ts[strict - base] <= lo);
        while (strict < end && ts[strict - base] <= lo) [[unlikely]] ++strict;
      }
      strict_at[j] = strict;
      std::uint64_t closed = closed_at[j];
      if (closed < end) [[likely]] {
        closed += static_cast<std::uint64_t>(ts[closed - base] < lo);
        while (closed < end && ts[closed - base] < lo) [[unlikely]] ++closed;
      }
      closed_at[j] = closed;

      const auto count = static_cast<Tokens>(end - strict);
      if (is_event && count > upper[j]) upper[j] = count;
      on_count(j, count);
      if (span_from >= 0 && lo >= span_from) {
        const auto low = static_cast<Tokens>(end - closed - at_tail);
        if (lower_valid[j] == 0 || low < lower[j]) {
          lower_valid[j] = 1;
          lower[j] = low;
          on_lower_update(j, low);
        }
      }
    }
    evict();
  }

  /// Reduced observation step for the monitor's cross-stream advances while
  /// no upper breach is live: maintains only the closed pointers and lower
  /// records. The strict pointers are left to lag — with no event added,
  /// every (lo, at] count is nonincreasing in `at`, so a level that was
  /// within its upper bound at the previous check stays within it until the
  /// next own event catches the pointers up. Lag never outlives eviction:
  /// evict() clamps strict pointers to the retained range.
  template <class LowerHook>
  void advance_lower(TimeNs at, LowerHook&& on_lower_update) {
    SCCFT_EXPECTS(at >= instant_);
    instant_ = at;
    const std::size_t n = live_count();
    const std::uint64_t end = base_ + n;
    const TimeNs* const ts = times_.data() + start_;
    const std::uint64_t base = base_;
    const std::uint64_t at_tail =
        (n != 0 && times_.back() == at) ? tail_equal_ : 0;
    const TimeNs span_from = first_event_;

    const std::size_t level_count = deltas_.size();
    for (std::size_t j = 0; j < level_count; ++j) {
      const TimeNs lo = at - deltas_[j];
      std::uint64_t closed = closed_[j];
      while (closed < end && ts[closed - base] < lo) ++closed;
      closed_[j] = closed;
      if (span_from >= 0 && lo >= span_from) {
        const auto low = static_cast<Tokens>(end - closed - at_tail);
        if (lower_valid_[j] == 0 || low < lower_[j]) {
          lower_valid_[j] = 1;
          lower_[j] = low;
          on_lower_update(j, low);
        }
      }
    }
    evict();
  }

  /// Drops events older than the largest window: no pointer can reference
  /// them again (closed_ of the top level is monotone and already past them;
  /// strict pointers are >= it when current, and get clamped when lagging —
  /// the clamp target never overshoots a pointer's true position because
  /// strict_j >= closed_{top} holds for fully-advanced pointers).
  void evict() {
    const std::uint64_t keep_from = closed_.back();
    if (base_ >= keep_from) return;
    for (auto& strict : strict_) {
      if (strict < keep_from) strict = keep_from;
    }
    start_ += static_cast<std::size_t>(keep_from - base_);
    base_ = keep_from;
    if (start_ == times_.size()) {
      times_.clear();
      start_ = 0;
    } else if (start_ >= 4096 && start_ * 2 >= times_.size()) {
      // Amortized compaction keeps indexing contiguous without unbounded
      // front garbage.
      times_.erase(times_.begin(), times_.begin() + static_cast<std::ptrdiff_t>(start_));
      start_ = 0;
    }
  }

  std::vector<TimeNs> deltas_;

  std::vector<TimeNs> times_;  ///< buffered event timestamps; live from start_
  std::size_t start_ = 0;      ///< first live element of times_
  std::uint64_t base_ = 0;     ///< absolute index of times_[start_]
  std::uint64_t tail_equal_ = 0;  ///< trailing events with ts == times_.back()

  // Per level: absolute index of the first buffered event with
  //   ts >  instant - Delta  (strict_: the (lo, instant] window), and
  //   ts >= instant - Delta  (closed_: the [lo, instant) window).
  std::vector<std::uint64_t> strict_;
  std::vector<std::uint64_t> closed_;

  std::vector<Tokens> upper_;
  std::vector<Tokens> lower_;
  std::vector<std::uint8_t> lower_valid_;

  TimeNs instant_ = 0;
  TimeNs first_event_ = -1;
  std::uint64_t events_ = 0;
};

}  // namespace sccft::rtc::online
