// OnlineMonitor glue tests: TraceBus feeding, one-shot kCurveViolation
// escalation, cross-stream starvation witnessing, finalize() metrics
// publication, the Supervisor's conviction path for curve-conformance
// verdicts, and the end-to-end experiment harness under PJD drift.
//
// The monitor's only data-path input is kEmission; under
// SCCFT_TRACE_COMPILED_OUT the experiment-level test flips to asserting the
// zero-function guarantee (no events observed at all) instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "ft/framework.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/online/monitor.hpp"
#include "rtc/pjd.hpp"
#include "rtc/time.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"
#include "util/rng.hpp"

namespace sccft {
namespace {

using rtc::TimeNs;
using rtc::online::LatticeConfig;
using rtc::online::OnlineMonitor;
using rtc::online::StreamSpec;

/// Captures every kCurveViolation the monitor escalates.
class ViolationLog final : public trace::Sink {
 public:
  explicit ViolationLog(trace::TraceBus& bus) : bus_(bus) {
    bus_.subscribe(this, trace::bit(trace::EventKind::kCurveViolation));
  }
  ~ViolationLog() override { bus_.unsubscribe(this); }
  void on_event(const trace::Event& event) override { events.push_back(event); }

  std::vector<trace::Event> events;

 private:
  trace::TraceBus& bus_;
};

StreamSpec spec_for(const std::string& subject, const std::string& name,
                    int replica, const rtc::PJD& model) {
  const auto curves = rtc::ArrivalCurvePair::from_pjd(model);
  StreamSpec spec;
  spec.subject = subject;
  spec.name = name;
  spec.replica = replica;
  spec.design_lower = curves.lower;
  spec.design_upper = curves.upper;
  return spec;
}

TEST(OnlineMonitor, EscalatesTheFirstBreachOncePerStream) {
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 0, 0);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = period, .levels = 4},
                        {spec_for("stream.a", "a", /*replica=*/0, model)});
  ViolationLog log(bus);
  const trace::SubjectId subject = bus.intern("stream.a");

  // A strictly periodic stream conforms to its own PJD envelope.
  TimeNs t = 0;
  for (int k = 0; k < 10; ++k) {
    t = (k + 1) * period;
    bus.emit(trace::EventKind::kEmission, subject, t);
  }
  EXPECT_TRUE(log.events.empty());

  // Two extra emissions at the same instant blow the jitter-free upper
  // curve; the monitor escalates exactly once and then stays quiet.
  bus.emit(trace::EventKind::kEmission, subject, t);
  bus.emit(trace::EventKind::kEmission, subject, t);
  ASSERT_EQ(log.events.size(), 1u);
  const trace::Event& v = log.events.front();
  EXPECT_EQ(v.kind, trace::EventKind::kCurveViolation);
  EXPECT_EQ(v.subject, subject);
  EXPECT_EQ(v.time, t);
  EXPECT_EQ(v.a, 0);  // replica index from the StreamSpec
  EXPECT_EQ(v.b, 0);  // upper breach
  EXPECT_GE(v.c, 0);  // lattice level

  bus.emit(trace::EventKind::kEmission, subject, t);
  EXPECT_EQ(log.events.size(), 1u) << "escalation must be one-shot per stream";
}

TEST(OnlineMonitor, PeerTrafficWitnessesAStarvedStream) {
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 0, 0);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = period, .levels = 3},
                        {spec_for("stream.a", "a", 0, model),
                         spec_for("stream.b", "b", 1, model)});
  ViolationLog log(bus);
  const trace::SubjectId a = bus.intern("stream.a");
  const trace::SubjectId b = bus.intern("stream.b");

  // Both streams run conformantly, then B falls silent while A keeps going.
  // B never emits again, so only A's traffic can advance B's estimator far
  // enough to certify the starved lower windows.
  TimeNs t = 0;
  for (int k = 1; k <= 12; ++k) {
    t = k * period;
    bus.emit(trace::EventKind::kEmission, a, t);
    bus.emit(trace::EventKind::kEmission, b, t);
  }
  EXPECT_TRUE(log.events.empty());
  for (int k = 13; k <= 40 && log.events.empty(); ++k) {
    t = k * period;
    bus.emit(trace::EventKind::kEmission, a, t);
  }
  ASSERT_EQ(log.events.size(), 1u) << "starvation on B was never flagged";
  EXPECT_EQ(log.events.front().subject, b);
  EXPECT_EQ(log.events.front().a, 1);  // B's replica index
  EXPECT_EQ(log.events.front().b, 1);  // lower breach
}

TEST(OnlineMonitor, PeerTrafficWitnessesStarvationAtTheExactInstant) {
  // A strictly periodic stream's last event at T leaves the [t - P, t)
  // window at t = T + P + 1 ns, and that is the instant a peer's emission
  // must convict it (however the monitor batches peer-driven advances).
  // The peer's own envelope has jitter room for the 1 ns step below.
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 0, 0);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = period, .levels = 3},
                        {spec_for("stream.a", "a", 0, rtc::PJD::from_ms(10, 5, 0)),
                         spec_for("stream.b", "b", 1, model)});
  ViolationLog log(bus);
  const trace::SubjectId a = bus.intern("stream.a");
  const trace::SubjectId b = bus.intern("stream.b");
  const TimeNs last_b = 12 * period;
  for (TimeNs t = period; t <= last_b; t += period) {
    bus.emit(trace::EventKind::kEmission, a, t);
    bus.emit(trace::EventKind::kEmission, b, t);
  }
  bus.emit(trace::EventKind::kEmission, a, last_b + period);
  EXPECT_TRUE(log.events.empty());
  bus.emit(trace::EventKind::kEmission, a, last_b + period + 1);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events.front().subject, b);
  EXPECT_EQ(log.events.front().time, last_b + period + 1);
  EXPECT_EQ(log.events.front().b, 1);  // lower breach
  EXPECT_EQ(log.events.front().c, 0);  // at the base window
}

TEST(OnlineMonitor, PeerTrafficWitnessesStarvationAtTheFirstCompleteWindow) {
  // A single emission at P cannot fill the 2P window eta-(2P) = 2 asks for;
  // the window first lies inside the observed span at 3P, so that instant's
  // peer emission convicts — and one nanosecond earlier nothing may.
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 0, 0);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = 2 * period, .levels = 2},
                        {spec_for("stream.a", "a", 0, rtc::PJD::from_ms(10, 5, 0)),
                         spec_for("stream.b", "b", 1, model)});
  ViolationLog log(bus);
  const trace::SubjectId a = bus.intern("stream.a");
  const trace::SubjectId b = bus.intern("stream.b");
  bus.emit(trace::EventKind::kEmission, a, period);
  bus.emit(trace::EventKind::kEmission, b, period);
  bus.emit(trace::EventKind::kEmission, a, 2 * period);
  bus.emit(trace::EventKind::kEmission, a, 3 * period - 1);
  EXPECT_TRUE(log.events.empty());
  bus.emit(trace::EventKind::kEmission, a, 3 * period);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events.front().subject, b);
  EXPECT_EQ(log.events.front().time, 3 * period);
  EXPECT_EQ(log.events.front().b, 1);  // lower breach
  EXPECT_EQ(log.events.front().c, 0);
}

TEST(OnlineMonitor, FinalizePublishesReportsAndMetrics) {
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 1, 5);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = period, .levels = 4},
                        {spec_for("stream.a", "a", 0, model)});
  const trace::SubjectId subject = bus.intern("stream.a");
  for (int k = 1; k <= 20; ++k) {
    bus.emit(trace::EventKind::kEmission, subject, k * period);
  }

  // Finalize just past the last event: advancing far beyond it would be
  // genuine starvation and legitimately trip the lower check.
  const TimeNs end = 20 * period + period / 2;
  const auto reports = monitor.finalize(end);
  ASSERT_EQ(reports.size(), 1u);
  const auto& report = reports.front();
  EXPECT_EQ(report.name, "a");
  EXPECT_EQ(report.replica, 0);
  EXPECT_EQ(report.events, 20u);
  EXPECT_EQ(report.upper_violations, 0u);
  EXPECT_EQ(report.lower_violations, 0u);
  EXPECT_FALSE(report.first.has_value());
  // finalize() advances the estimator to `end` before snapshotting.
  EXPECT_EQ(report.snapshot.at, end);
  EXPECT_EQ(report.snapshot.events, 20u);
  ASSERT_EQ(report.snapshot.points.size(), 4u);
  EXPECT_EQ(report.snapshot.points[0].delta, period);
  EXPECT_EQ(report.snapshot.points[0].upper, 1);

  const auto& metrics = bus.metrics();
  EXPECT_EQ(metrics.counter("online.a.events"), 20u);
  EXPECT_EQ(metrics.counter("online.a.upper_violations"), 0u);
  EXPECT_EQ(metrics.counter("online.a.lower_violations"), 0u);
}

TEST(OnlineMonitor, FinalizeRecordsTheFirstViolationInstant) {
  trace::TraceBus bus;
  const rtc::PJD model = rtc::PJD::from_ms(10, 0, 0);
  const TimeNs period = model.period;
  OnlineMonitor monitor(bus, {.base_delta = period, .levels = 3},
                        {spec_for("stream.a", "a", 0, model)});
  const trace::SubjectId subject = bus.intern("stream.a");
  for (int k = 1; k <= 5; ++k) {
    bus.emit(trace::EventKind::kEmission, subject, k * period);
  }
  const TimeNs burst_at = 5 * period;
  bus.emit(trace::EventKind::kEmission, subject, burst_at);
  bus.emit(trace::EventKind::kEmission, subject, burst_at);

  const auto reports = monitor.finalize(6 * period);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports.front().first.has_value());
  EXPECT_EQ(reports.front().first->at, burst_at);
  EXPECT_TRUE(reports.front().first->upper);
  EXPECT_GE(reports.front().upper_violations, 1u);
  EXPECT_EQ(bus.metrics().gauge("online.a.first_violation_ns"), burst_at);
}

/// The plain reference for one monitored stream: an estimator advanced and
/// fully re-checked (ConformanceChecker::check) at every observation the
/// monitor makes, with the monitor's one-shot escalation rule on top.
struct PlainStream {
  rtc::online::CurveEstimator estimator;
  rtc::online::ConformanceChecker checker;
  bool escalated = false;
};

// The monitor's fused, skip-ahead hot path (peer-driven advances inside a
// quiet stretch skip the lattice pass) must be observationally identical to
// re-checking every stream at every observation: same escalations at the same
// instants and levels, same counters, same first breaches, same snapshots.
// Traffic mixes jittered periodic emission with stalls (lower breaches),
// bursts (upper breaches), same-instant emissions and an untracked subject.
TEST(OnlineMonitor, MatchesThePlainCheckOnRandomMultiStreamTraffic) {
  const rtc::PJD model = rtc::PJD::from_ms(10, 6, 1);
  const TimeNs period = model.period;
  const auto curves = rtc::ArrivalCurvePair::from_pjd(model);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Xoshiro256 rng(seed);
    const int levels = static_cast<int>(rng.uniform_int(3, 7));
    const LatticeConfig lattice{.base_delta = period, .levels = levels};
    trace::TraceBus bus;
    OnlineMonitor monitor(bus, lattice,
                          {spec_for("s0", "s0", 0, model), spec_for("s1", "s1", 1, model),
                           spec_for("s2", "s2", 2, model)});
    ViolationLog log(bus);
    const trace::SubjectId subjects[4] = {bus.intern("s0"), bus.intern("s1"),
                                          bus.intern("s2"), bus.intern("other")};
    std::vector<PlainStream> plain;
    for (int i = 0; i < 3; ++i) {
      rtc::online::CurveEstimator estimator(lattice);
      rtc::online::ConformanceChecker checker(estimator, curves.lower.get(),
                                              curves.upper.get());
      plain.push_back({std::move(estimator), std::move(checker)});
    }
    std::vector<trace::Event> expected;
    using Verdict = std::optional<rtc::online::ConformanceChecker::Violation>;
    auto observe = [&](int i, TimeNs at, const Verdict& v) {
      if (!v || plain[static_cast<std::size_t>(i)].escalated) return;
      plain[static_cast<std::size_t>(i)].escalated = true;
      expected.push_back(trace::Event{at, trace::EventKind::kCurveViolation,
                                      subjects[i], i, v->upper ? 0 : 1, v->level});
    };

    // Each stream emits once per period, jittered by up to a quarter period,
    // with rare stalls (lower breaches) and same-instant bursts (upper
    // breaches); an untracked subject interleaves its own emissions. Odd
    // seeds stay on a quarter-period grid plus 1 ns nudges, so observations
    // land exactly on the instants an event leaves a lattice window.
    std::vector<std::pair<TimeNs, int>> emissions;
    for (int s = 0; s < 4; ++s) {
      TimeNs nominal = period;
      for (int k = 0; k < 300; ++k, nominal += period) {
        if (rng.uniform01() < 0.02) nominal += rng.uniform_int(2, 6) * period;
        const TimeNs offset = seed % 2 == 1 ? rng.uniform_int(0, 1)
                                            : rng.uniform_int(0, period / 8);
        const TimeNs at = nominal + rng.uniform_int(-1, 1) * (period / 4) + offset;
        const int copies =
            rng.uniform01() < 0.01 ? static_cast<int>(rng.uniform_int(2, 4)) : 1;
        for (int c = 0; c < copies; ++c) emissions.emplace_back(at, s);
      }
    }
    std::sort(emissions.begin(), emissions.end());

    TimeNs t = 0;
    for (const auto& [at, s] : emissions) {
      t = at;
      bus.emit(trace::EventKind::kEmission, subjects[s], t);
      for (int i = 0; i < 3; ++i) {
        PlainStream& stream = plain[static_cast<std::size_t>(i)];
        if (i == s) {
          stream.estimator.add_event(t);
          observe(i, t, stream.checker.check(stream.estimator));
        } else if (t > stream.estimator.instant()) {
          stream.estimator.advance_to(t);
          observe(i, t, stream.checker.check(stream.estimator));
        }
      }
      if (rng.uniform01() < 0.005) {
        // A mid-run poll (the adaptation loop's) advances the estimator
        // without checking, on both sides.
        const auto i = static_cast<std::size_t>(rng.uniform_int(0, 2));
        const TimeNs poll = std::max(t, plain[i].estimator.instant());
        ASSERT_EQ(monitor.snapshot_stream(i, t), plain[i].estimator.snapshot(poll));
      }
    }

    const TimeNs end = t + 3 * period;
    const auto reports = monitor.finalize(end);
    ASSERT_EQ(reports.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      PlainStream& stream = plain[static_cast<std::size_t>(i)];
      if (end > stream.estimator.instant()) {
        stream.estimator.advance_to(end);
        observe(i, end, stream.checker.check(stream.estimator));
      }
      const auto& report = reports[static_cast<std::size_t>(i)];
      EXPECT_EQ(report.upper_violations, stream.checker.upper_violations())
          << "stream " << i;
      EXPECT_EQ(report.lower_violations, stream.checker.lower_violations())
          << "stream " << i;
      EXPECT_EQ(report.first, stream.checker.first()) << "stream " << i;
      EXPECT_EQ(report.snapshot, stream.estimator.snapshot(stream.estimator.instant()))
          << "stream " << i;
    }
    ASSERT_EQ(log.events.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const trace::Event& got = log.events[k];
      EXPECT_EQ(got.time, expected[k].time) << "escalation " << k;
      EXPECT_EQ(got.subject, expected[k].subject) << "escalation " << k;
      EXPECT_EQ(got.a, expected[k].a) << "escalation " << k;
      EXPECT_EQ(got.b, expected[k].b) << "escalation " << k;
      EXPECT_EQ(got.c, expected[k].c) << "escalation " << k;
    }
  }
}

/// Minimal fault-tolerant rig: channels only, no processes. Enough for the
/// Supervisor to subscribe and run its health state machine; restarts are
/// never executed because the simulator is never run.
struct SupervisorRig {
  sim::Simulator simulator;
  kpn::Network net{simulator};
  ft::AppTimingSpec timing;
  std::optional<ft::FaultTolerantHarness> harness;

  SupervisorRig() {
    timing.producer = rtc::PJD::from_ms(10, 1, 10);
    timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                              rtc::PJD::from_ms(10, 6, 10)};
    timing.consumer = rtc::PJD::from_ms(10, 1, 10);
    harness.emplace(net, ft::FaultTolerantHarness::Config{.timing = timing});
  }

  [[nodiscard]] std::array<ft::ReplicaAssets, 2> assets() {
    return {ft::ReplicaAssets{ft::ReplicaIndex::kReplica1, {}, {}},
            ft::ReplicaAssets{ft::ReplicaIndex::kReplica2, {}, {}}};
  }
};

TEST(Supervisor, CurveViolationVerdictConvictsTheNamedReplica) {
  SupervisorRig rig;
  ft::Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                            rig.harness->selector(), rig.assets(), {});
  trace::TraceBus& bus = rig.simulator.trace();
  const trace::SubjectId subject = bus.intern("r2.out");

  // The monitor names replica 2 in operand a, a lower breach at level 1.
  bus.emit(trace::EventKind::kCurveViolation, subject, rtc::from_ms(120.0),
           /*a=*/1, /*b=*/1, /*c=*/1);

  EXPECT_EQ(supervisor.health(ft::ReplicaIndex::kReplica2),
            ft::ReplicaHealth::kConvicted);
  EXPECT_EQ(supervisor.health(ft::ReplicaIndex::kReplica1),
            ft::ReplicaHealth::kHealthy);
  EXPECT_EQ(supervisor.report(ft::ReplicaIndex::kReplica2).faults_seen, 1u);
  ASSERT_FALSE(supervisor.transitions().empty());
  const auto& edge = supervisor.transitions().front();
  EXPECT_EQ(edge.replica, ft::ReplicaIndex::kReplica2);
  EXPECT_EQ(edge.from, ft::ReplicaHealth::kHealthy);
  EXPECT_EQ(edge.to, ft::ReplicaHealth::kConvicted);
  // Transitions are stamped with simulator time, which never advanced here.
  EXPECT_EQ(edge.at, 0);
}

TEST(Supervisor, NonReplicaCurveViolationIsNotedButNotActionable) {
  SupervisorRig rig;
  ft::Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                            rig.harness->selector(), rig.assets(), {});
  trace::TraceBus& bus = rig.simulator.trace();
  // replica = -1: the producer drifted; no replica can be restarted for that.
  bus.emit(trace::EventKind::kCurveViolation, bus.intern("producer"),
           rtc::from_ms(50.0), /*a=*/-1, /*b=*/0, /*c=*/0);

  EXPECT_EQ(supervisor.health(ft::ReplicaIndex::kReplica1),
            ft::ReplicaHealth::kHealthy);
  EXPECT_EQ(supervisor.health(ft::ReplicaIndex::kReplica2),
            ft::ReplicaHealth::kHealthy);
  EXPECT_TRUE(supervisor.transitions().empty());
}

// ---------------------------------------------------------------------------
// End-to-end: the experiment harness wires the monitor to the real ADPCM
// network. With data-path tracing compiled out the monitor observes nothing
// (the zero-function guarantee); compiled in, PJD drift on replica 1 is
// flagged on r1.out after the onset and nowhere before it.
// ---------------------------------------------------------------------------

apps::ExperimentOptions drift_options() {
  apps::ExperimentOptions options;
  options.seed = 7;
  options.run_periods = 140;
  options.online_monitor = true;
  options.online_levels = 5;
  return options;
}

const apps::ExperimentResult::OnlineStream* find_stream(
    const apps::ExperimentResult& result, const std::string& name) {
  for (const auto& stream : result.online_streams) {
    if (stream.name == name) return &stream;
  }
  return nullptr;
}

TEST(OnlineExperiment, ConformantRunHasNoViolations) {
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  const auto result = runner.run(drift_options());
  ASSERT_EQ(result.online_streams.size(), 3u);
  for (const auto& stream : result.online_streams) {
#ifdef SCCFT_TRACE_COMPILED_OUT
    EXPECT_EQ(stream.events, 0u) << stream.name
                                 << ": monitor must observe nothing when the "
                                    "data path is compiled out";
#else
    EXPECT_GT(stream.events, 0u) << stream.name;
#endif
    EXPECT_EQ(stream.upper_violations, 0u) << stream.name;
    EXPECT_EQ(stream.lower_violations, 0u) << stream.name;
    EXPECT_FALSE(stream.first_violation.has_value()) << stream.name;
  }

  // The monitor is a pure observer: switching it off leaves the output
  // stream and the whole simulated schedule unchanged.
  auto off = drift_options();
  off.online_monitor = false;
  const auto unmonitored = runner.run(off);
  EXPECT_TRUE(unmonitored.online_streams.empty());
  EXPECT_EQ(unmonitored.output_checksums, result.output_checksums);
  EXPECT_EQ(unmonitored.events_processed, result.events_processed);
}

#ifndef SCCFT_TRACE_COMPILED_OUT
TEST(OnlineExperiment, ReplicaDriftIsFlaggedOnItsOwnStreamAfterTheOnset) {
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  auto options = drift_options();
  options.drift.target = apps::DriftSpec::Target::kReplica1;
  options.drift.after_periods = 60;
  options.drift.rate_mult = 1.6;
  const auto result = runner.run(options);
  const TimeNs onset = 60 * runner.app().timing.producer.period;

  const auto* drifted = find_stream(result, "r1.out");
  ASSERT_NE(drifted, nullptr);
  ASSERT_TRUE(drifted->first_violation.has_value())
      << "rate drift on r1 escaped the monitor";
  EXPECT_GE(drifted->first_violation->at, onset)
      << "violation before the drift even started (false positive)";

  // The untouched producer stream stays conformant for the whole run.
  const auto* producer = find_stream(result, "producer");
  ASSERT_NE(producer, nullptr);
  EXPECT_FALSE(producer->first_violation.has_value());

  ASSERT_TRUE(result.online_margins.has_value());
  EXPECT_GT(result.online_margins->horizon, 0);
}
#endif

}  // namespace
}  // namespace sccft
