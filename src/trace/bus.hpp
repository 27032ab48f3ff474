// The trace bus: one audited code path for every observation the framework
// makes about itself.
//
// Design goals, in priority order:
//
//  1. Near-zero cost when nobody listens. emit() is a single load + AND +
//     branch against the OR of all subscriber masks; with no subscribers the
//     entire data-path firehose costs one predictable branch per call site.
//     Defining SCCFT_TRACE_COMPILED_OUT removes even that (macro below).
//  2. Deterministic. Emission is passive: dispatch never schedules simulator
//     events, never draws randomness, and subject interning is insertion-
//     ordered — identical runs produce byte-identical event streams.
//  3. Synchronous. Sinks see an event inside the emitting call, in
//     subscription order, so behavioural subscribers (the supervisor, the
//     detection log, monitor bridges) observe verdicts at exactly the
//     instant they are reached.
//
// The bus also owns the MetricsRegistry (trace/metrics.hpp) — the always-on
// counter/series store the experiment harvests read — so "the trace spine"
// is one object hanging off the Simulator.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"
#include "trace/metrics.hpp"
#include "util/assert.hpp"

namespace sccft::trace {

/// A trace-event consumer. on_event must be passive with respect to the
/// simulation (no scheduling, no RNG) and must not (un)subscribe sinks.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& event) = 0;

  /// Batched delivery used for deferred subscribers (see DeliveryMode): the
  /// bus hands over a contiguous run of events in emission order. The default
  /// forwards each event to on_event; high-volume sinks override it to
  /// amortize the per-event virtual dispatch away.
  virtual void on_batch(const Event* events, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) on_event(events[i]);
  }
};

/// How a subscriber receives events.
///
///  * kImmediate — inside the emitting call, in subscription order. Required
///    for behavioural subscribers (supervisor adapters, monitor bridges,
///    anything whose reaction feeds back into the simulation) and for sinks
///    whose state is read back mid-run at arbitrary points.
///  * kDeferred — staged by the bus and delivered in batches via on_batch().
///    Only for passive recorders (flight-recorder rings, counters): events
///    still arrive in exact emission order, but possibly later than they were
///    emitted. The bus flushes on subscribe/unsubscribe, on explicit flush(),
///    and when the staging buffer fills; code that mutates or inspects a
///    deferred sink mid-run must call TraceBus::flush() first.
enum class DeliveryMode { kImmediate, kDeferred };

class TraceBus final {
 public:
  TraceBus();
  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;

  /// Returns a stable id for `name`, creating it on first use. Ids are
  /// assigned in insertion order (determinism), and interning the same name
  /// twice returns the same id.
  [[nodiscard]] SubjectId intern(std::string_view name);

  [[nodiscard]] const std::string& subject_name(SubjectId id) const;
  [[nodiscard]] std::size_t subject_count() const { return subjects_.size(); }

  /// Registers `sink` for every kind whose bit is set in `mask`. A sink may
  /// be subscribed at most once; re-subscribing updates its mask and mode.
  /// Subscribing or unsubscribing flushes any staged deferred events first.
  void subscribe(Sink* sink, std::uint32_t mask = kAllEvents,
                 DeliveryMode mode = DeliveryMode::kImmediate);
  void unsubscribe(Sink* sink);

  /// Delivers all staged events to the deferred subscribers, in emission
  /// order. Pending events that are never flushed (e.g. the bus is destroyed
  /// mid-run) are dropped — unsubscribe before tearing down a deferred sink.
  void flush();

  [[nodiscard]] bool wants(EventKind kind) const {
    return (active_mask_ & bit(kind)) != 0;
  }

  /// The emission fast path: one branch when no sink wants `kind`. When only
  /// deferred sinks listen, dispatch inlines to a store into the staging
  /// buffer plus an occasional batched flush.
  void emit(EventKind kind, SubjectId subject, rtc::TimeNs time, std::int64_t a = 0,
            std::int64_t b = 0, std::int64_t c = 0) {
    if (wants(kind)) [[unlikely]] {
      const std::uint32_t kind_bit = bit(kind);
      if ((immediate_mask_ & kind_bit) != 0) {
        dispatch_immediate(Event{time, kind, subject, a, b, c}, kind_bit);
      }
      if ((deferred_mask_ & kind_bit) != 0) {
        staged_kinds_ |= kind_bit;
        staged_.push_back(Event{time, kind, subject, a, b, c});
        if (staged_.size() >= kStagingCapacity) flush();
      }
    }
  }

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  void dispatch_immediate(const Event& event, std::uint32_t kind_bit);
  void recompute_mask();

  /// The bus is single-threaded state owned by one simulation. Parallel
  /// campaigns run one Simulator (and thus one bus) per worker; any sink
  /// subscription or dispatched event from a foreign thread is a wiring bug
  /// (e.g. a shared cross-run sink) and trips this contract. Checked on
  /// immediate dispatch, flush, and subscribe/unsubscribe — not on the
  /// deferred staging store, which keeps the batched path to a few
  /// instructions (a foreign-thread emitter still trips within one staging
  /// window, at its first flush).
  void assert_owning_thread() const {
    SCCFT_ASSERT(std::this_thread::get_id() == owner_thread_);
  }

  struct Subscriber {
    Sink* sink = nullptr;
    std::uint32_t mask = 0;
    DeliveryMode mode = DeliveryMode::kImmediate;
  };

  /// Staged events stop accumulating past this size; the batch is then
  /// delivered inline (deterministic: the same event sequence always flushes
  /// at the same points).
  static constexpr std::size_t kStagingCapacity = 1024;

  std::thread::id owner_thread_ = std::this_thread::get_id();
  std::uint32_t active_mask_ = 0;
  std::uint32_t immediate_mask_ = 0;
  std::uint32_t deferred_mask_ = 0;
  std::uint32_t staged_kinds_ = 0;  ///< OR of bit(kind) over staged_
  std::vector<Event> staged_;
  std::vector<Subscriber> subscribers_;
  std::vector<std::string> subjects_;
  std::unordered_map<std::string, SubjectId> subject_index_;
  MetricsRegistry metrics_;
};

}  // namespace sccft::trace

/// Emission macro for high-frequency data-path events. Compiled out entirely
/// (arguments unevaluated — keep them side-effect free) when the build
/// defines SCCFT_TRACE_COMPILED_OUT; verdict-class events (see
/// trace/event.hpp) are emitted via TraceBus::emit directly and survive.
#if defined(SCCFT_TRACE_COMPILED_OUT)
#define SCCFT_TRACE(bus, ...) ((void)0)
#else
#define SCCFT_TRACE(bus, ...) (bus).emit(__VA_ARGS__)
#endif
