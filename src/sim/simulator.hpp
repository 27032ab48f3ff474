// Discrete-event simulation core.
//
// The framework's experiments run on a simulated Intel SCC (see src/scc/).
// This module provides the event wheel: a deterministic, single-threaded
// discrete-event simulator with integer-nanosecond time. Determinism comes
// from a (time, sequence) total order on events — two events at the same
// timestamp fire in scheduling order, so reruns are bit-identical.
//
// Events are inline-callable records recycled through a free-list arena and
// ordered by a (time, seq) binary min-heap of record pointers (see
// event_queue.hpp): scheduling does not heap-allocate for callables up to
// kInlineCallableBytes. schedule_at is a template so the concrete lambda is
// constructed directly into the record; the std::function-compatible
// overload set of the seed kernel still compiles unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "rtc/time.hpp"
#include "sim/event_queue.hpp"
#include "trace/bus.hpp"
#include "util/assert.hpp"

namespace sccft::sim {

using rtc::TimeNs;

class Simulator final {
 public:
  using Callback = std::function<void()>;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The simulation's trace spine: every layer built on this simulator emits
  /// its events here and publishes its metrics into trace().metrics().
  [[nodiscard]] trace::TraceBus& trace() { return trace_; }
  [[nodiscard]] const trace::TraceBus& trace() const { return trace_; }

  /// Current simulated time. Starts at 0.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Scheduling into the past is a
  /// contract violation whose message carries both `t` and now().
  template <typename F>
  void schedule_at(TimeNs t, F&& cb) {
    if (t < now_) [[unlikely]] reject_past_schedule(t);
    if constexpr (requires { static_cast<bool>(cb); }) {
      SCCFT_EXPECTS(static_cast<bool>(cb));
    }
    SCCFT_TRACE(trace_, trace::EventKind::kSimSchedule, trace_subject_, now_, t,
                static_cast<std::int64_t>(next_seq_));
    EventRecord* rec = arena_.allocate();
    rec->time = t;
    rec->seq = next_seq_++;
    emplace_callable(rec, std::forward<F>(cb));
    queue_.insert(rec);
  }

  /// Schedules `cb` `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  void schedule_after(TimeNs delay, F&& cb) {
    SCCFT_EXPECTS(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs all events with timestamp <= `t`; afterwards now() == t unless the
  /// queue drained earlier or stop() was called. Returns false if stopped.
  bool run_until(TimeNs t);

  /// Requests the run loop to exit after the current event. The request is
  /// sticky: if no run loop is active, the *next* run()/run_until() observes
  /// it and returns immediately (dispatching nothing) instead of silently
  /// discarding it. A request is consumed by the run segment that observes it.
  void stop() { stop_requested_ = true; }

  /// True if a stop() request has not yet been observed by a run loop.
  [[nodiscard]] bool stop_pending() const { return stop_requested_; }

  /// True if the most recent run()/run_until() segment exited via stop().
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

 private:
  void dispatch(EventRecord* rec);
  [[noreturn]] void reject_past_schedule(TimeNs t) const;

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  bool stopped_ = false;
  EventArena arena_;
  EventQueue queue_;
  trace::TraceBus trace_;
  trace::SubjectId trace_subject_ = 0;
};

}  // namespace sccft::sim
