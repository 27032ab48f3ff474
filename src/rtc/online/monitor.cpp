#include "rtc/online/monitor.hpp"

#include <algorithm>

namespace sccft::rtc::online {

OnlineMonitor::OnlineMonitor(trace::TraceBus& bus, const LatticeConfig& lattice,
                             std::vector<StreamSpec> specs)
    : OnlineMonitor(bus, lattice, std::move(specs), Options{}) {}

OnlineMonitor::OnlineMonitor(trace::TraceBus& bus, const LatticeConfig& lattice,
                             std::vector<StreamSpec> specs, Options options)
    : bus_(bus), options_(options) {
  streams_.reserve(specs.size());
  for (auto& spec : specs) {
    CurveEstimator estimator(lattice);
    ConformanceChecker checker(estimator, spec.design_lower.get(),
                               spec.design_upper.get());
    streams_.push_back(Stream{.name = std::move(spec.name),
                              .replica = spec.replica,
                              .estimator = std::move(estimator),
                              .subject = bus_.intern(spec.subject),
                              .checker = std::move(checker)});
    if (options_.weakly_hard) {
      streams_.back().window.emplace(*options_.weakly_hard);
    }
  }
  bus_.subscribe(this, trace::bit(trace::EventKind::kEmission));
}

OnlineMonitor::~OnlineMonitor() { bus_.unsubscribe(this); }

void OnlineMonitor::on_event(const trace::Event& event) {
  if (event.kind != trace::EventKind::kEmission) return;
  for (auto& stream : streams_) {
    // Fused estimator+checker passes (conformance.hpp): one loop over the
    // lattice for the emitting stream; peers mostly skip theirs.
    if (stream.subject == event.subject) {
      const auto violation =
          stream.checker.add_and_check(stream.estimator, event.time);
      // Without a weakly-hard window only a breach has anything to record.
      if (violation || stream.window) {
        observe(stream, event.time, violation, /*own=*/true);
      }
    } else if (event.time >
               stream.estimator.instant() + options_.cross_advance_quantum) {
      // Cross-stream advance: a peer's traffic moves this stream's clock, so
      // starvation is witnessed without waiting for the starved stream to
      // speak (or for finalize). At fleet cardinality the quantum batches
      // these advances (see Options::cross_advance_quantum). A clean check
      // of a peer-driven advance records nothing (observe keeps only its
      // misses), so only a breach leaves the loop.
      const auto violation =
          stream.checker.advance_and_check(stream.estimator, event.time);
      if (violation) [[unlikely]] {
        observe(stream, event.time, violation, /*own=*/false);
      }
    }
  }
}

void OnlineMonitor::observe(Stream& stream, TimeNs at,
                            const std::optional<ConformanceChecker::Violation>& violation,
                            bool own) {
  if (!stream.window) {
    escalate(stream, at, violation);
    return;
  }
  // Weakly-hard acceptance: the stream's own emissions record hit-or-miss;
  // peer-driven advances record only misses (a starving stream accumulates
  // pressure from its peers' traffic, but never hits it did not earn).
  const bool miss = violation.has_value();
  if (!miss) {
    if (own) stream.window->record(false);
    return;
  }
  const bool breach = stream.window->record(true);
  ++stream.misses;
  // Always-on emit, like kCurveViolation: the adaptation policy acts on
  // sub-threshold pressure on the same code path as every other verdict.
  bus_.emit(trace::EventKind::kAcceptanceMiss, stream.subject, at,
            stream.replica, stream.window->misses(), stream.window->params().K);
  if (breach) escalate(stream, at, violation);
}

void OnlineMonitor::escalate(Stream& stream, TimeNs at,
                             const std::optional<ConformanceChecker::Violation>& violation) {
  if (violation && !stream.escalated && options_.escalate) {
    stream.escalated = true;
    // Verdict-class event: always-on emit (not the macro) so the supervisor
    // sees it on the same code path as every other detection.
    bus_.emit(trace::EventKind::kCurveViolation, stream.subject, at,
              stream.replica, violation->upper ? 0 : 1, violation->level);
  }
}

std::vector<OnlineMonitor::StreamReport> OnlineMonitor::finalize(TimeNs at) {
  std::vector<StreamReport> reports;
  reports.reserve(streams_.size());
  auto& metrics = bus_.metrics();
  for (auto& stream : streams_) {
    if (at > stream.estimator.instant()) {
      observe(stream, at,
              stream.checker.advance_and_check(stream.estimator, at),
              /*own=*/false);
    }
    StreamReport report;
    report.name = stream.name;
    report.replica = stream.replica;
    report.snapshot = stream.estimator.snapshot(stream.estimator.instant());
    report.events = stream.estimator.events();
    report.upper_violations = stream.checker.upper_violations();
    report.lower_violations = stream.checker.lower_violations();
    report.acceptance_misses = stream.misses;
    report.first = stream.checker.first();
    metrics.add("online." + stream.name + ".events", report.events);
    metrics.add("online." + stream.name + ".upper_violations", report.upper_violations);
    metrics.add("online." + stream.name + ".lower_violations", report.lower_violations);
    if (report.first) {
      metrics.gauge_max("online." + stream.name + ".first_violation_ns",
                        report.first->at);
    }
    if (stream.window) {
      metrics.add("online." + stream.name + ".acceptance_misses", stream.misses);
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

EmpiricalCurveSnapshot OnlineMonitor::snapshot_stream(std::size_t index, TimeNs at) {
  SCCFT_EXPECTS(index < streams_.size());
  Stream& stream = streams_[index];
  return stream.estimator.snapshot(std::max(at, stream.estimator.instant()));
}

std::uint64_t OnlineMonitor::stream_events(std::size_t index) const {
  SCCFT_EXPECTS(index < streams_.size());
  return streams_[index].estimator.events();
}

}  // namespace sccft::rtc::online
