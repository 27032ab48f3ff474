// Online-RTC subsystem tests (rtc/online): the CurveEstimator's window
// records against exact hand counts and a brute-force oracle, the soundness
// property (empirical staircases never leave the analytic PJD envelope of
// the stream that produced them), the ConformanceChecker's breach semantics,
// and the OnlineDimensioner's measured-vs-designed margins with rtc/sizing
// as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/adpcm/app.hpp"
#include "kpn/timing.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/dimensioner.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sccft::rtc::online {
namespace {

TEST(CurveEstimator, RejectsBrokenConfigs) {
  EXPECT_THROW(CurveEstimator({.base_delta = 0, .levels = 4}),
               util::ContractViolation);
  EXPECT_THROW(CurveEstimator({.base_delta = 100, .levels = 0}),
               util::ContractViolation);
  EXPECT_THROW(CurveEstimator({.base_delta = 100, .levels = 64}),
               util::ContractViolation);
}

TEST(CurveEstimator, RejectsTimeGoingBackwards) {
  CurveEstimator estimator({.base_delta = 100, .levels = 2});
  estimator.add_event(500);
  EXPECT_THROW(estimator.add_event(499), util::ContractViolation);
  EXPECT_THROW(estimator.advance_to(499), util::ContractViolation);
}

TEST(CurveEstimator, PeriodicStreamRecordsExactCounts) {
  // Events at exactly 0, 100, ..., 1000 on the lattice {100, 200, 400}.
  CurveEstimator estimator({.base_delta = 100, .levels = 3});
  for (TimeNs t = 0; t <= 1000; t += 100) estimator.add_event(t);

  // (t-100, t] holds only the event at t; (t-200, t] two; (t-400, t] four.
  EXPECT_EQ(estimator.upper_record(0), 1);
  EXPECT_EQ(estimator.upper_record(1), 2);
  EXPECT_EQ(estimator.upper_record(2), 4);

  // [t-delta, t) windows: the event at t is excluded, the one at t-delta
  // included, so the counts match the upper records once the window fits in
  // the observed span.
  EXPECT_TRUE(estimator.lower_valid(0));
  EXPECT_EQ(estimator.lower_record(0), 1);
  EXPECT_EQ(estimator.lower_record(1), 2);
  EXPECT_EQ(estimator.lower_record(2), 4);

  // Silence drags the minima down to zero, level by level.
  estimator.advance_to(1000 + 400);
  EXPECT_EQ(estimator.lower_record(0), 0);
  EXPECT_EQ(estimator.lower_record(1), 0);
  EXPECT_EQ(estimator.lower_record(2), 1);  // [1000, 1400) still holds the last event
  estimator.advance_to(1000 + 1400);
  EXPECT_EQ(estimator.lower_record(2), 0);
  // The maxima never decay.
  EXPECT_EQ(estimator.upper_record(0), 1);
  EXPECT_EQ(estimator.upper_record(2), 4);
}

TEST(CurveEstimator, LowerWindowsBeforeFirstEventDoNotCount) {
  // Stream starts late: windows reaching before the first event are not real
  // windows of the stream's span and must not record zeros.
  CurveEstimator estimator({.base_delta = 100, .levels = 2});
  estimator.advance_to(1000);
  EXPECT_FALSE(estimator.lower_valid(0));
  estimator.add_event(1000);
  estimator.add_event(1100);
  // [1050, 1150) would hold 1, but 1050 >= first_event only from t=1100 on.
  EXPECT_TRUE(estimator.lower_valid(0));
  EXPECT_EQ(estimator.lower_record(0), 1);
  EXPECT_FALSE(estimator.lower_valid(1));  // no full 200-window inside the span yet
  estimator.add_event(1200);
  EXPECT_TRUE(estimator.lower_valid(1));
  EXPECT_EQ(estimator.lower_record(1), 2);
}

TEST(CurveEstimator, BufferIsBoundedByTheLargestWindow) {
  CurveEstimator estimator({.base_delta = 100, .levels = 3});  // max window 400
  for (TimeNs t = 0; t < 100'000; t += 50) estimator.add_event(t);
  EXPECT_EQ(estimator.events(), 2000u);
  // At 50 ns spacing a 400 ns window holds <= 9 events; eviction must keep
  // the deque near that, not near the full stream.
  EXPECT_LE(estimator.buffered_events(), 16u);
}

TEST(CurveEstimator, SnapshotsAreDeterministic) {
  const auto feed = [](CurveEstimator& estimator) {
    util::Xoshiro256 rng(99);
    TimeNs t = 0;
    for (int k = 0; k < 500; ++k) {
      const auto gap = static_cast<TimeNs>(rng.uniform_int(0, 250));
      if (k % 7 == 0) estimator.advance_to(t + gap / 2);  // off-event poll
      t += gap;
      estimator.add_event(t);
    }
    return t;
  };
  CurveEstimator a({.base_delta = 128, .levels = 5});
  CurveEstimator b({.base_delta = 128, .levels = 5});
  const TimeNs end_a = feed(a);
  const TimeNs end_b = feed(b);
  ASSERT_EQ(end_a, end_b);
  const auto snap_a = a.snapshot(end_a + 1000);
  const auto snap_b = b.snapshot(end_b + 1000);
  EXPECT_EQ(snap_a, snap_b);
  // Snapshotting is idempotent at a fixed instant.
  EXPECT_EQ(snap_a, a.snapshot(end_a + 1000));
}

// Brute-force oracle: replay a random stream of events and polls, then
// recompute every record definition directly from the full timestamp list.
//   upper[j] = max over event instants t of #{events in (t - Delta_j, t]}
//              evaluated with the events present at that moment (for ties at
//              the same instant, the last event sees them all — the max is
//              unaffected),
//   lower[j] = min over observation instants t with t - Delta_j >= first
//              event of #{events in [t - Delta_j, t)} — later events can
//              never fall into that window (time is nondecreasing), so the
//              final event list gives the same counts.
TEST(CurveEstimator, MatchesBruteForceOracleOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Xoshiro256 rng(seed);
    const LatticeConfig lattice{.base_delta = 64, .levels = 5};
    CurveEstimator estimator(lattice);

    std::vector<TimeNs> events;       // every event timestamp, in order
    std::vector<TimeNs> observations; // every instant observe() ran at
    TimeNs t = 0;
    for (int step = 0; step < 400; ++step) {
      t += static_cast<TimeNs>(rng.uniform_int(0, 200));  // 0 => same-instant event
      if (rng.uniform_int(0, 9) < 7) {
        estimator.add_event(t);
        events.push_back(t);
        observations.push_back(t);
      } else {
        estimator.advance_to(t);
        observations.push_back(t);
      }
    }
    ASSERT_FALSE(events.empty());
    const TimeNs first = events.front();

    for (int level = 0; level < estimator.levels(); ++level) {
      const TimeNs delta = estimator.delta(level);

      Tokens expected_upper = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        Tokens count = 0;
        for (std::size_t j = 0; j <= i; ++j) {
          if (events[j] > events[i] - delta) ++count;
        }
        expected_upper = std::max(expected_upper, count);
      }
      EXPECT_EQ(estimator.upper_record(level), expected_upper)
          << "seed " << seed << " level " << level;

      bool expected_valid = false;
      Tokens expected_lower = 0;
      for (const TimeNs at : observations) {
        const TimeNs lo = at - delta;
        if (lo < first) continue;
        Tokens count = 0;
        for (const TimeNs e : events) {
          if (e >= lo && e < at) ++count;
        }
        if (!expected_valid || count < expected_lower) {
          expected_valid = true;
          expected_lower = count;
        }
      }
      EXPECT_EQ(estimator.lower_valid(level), expected_valid)
          << "seed " << seed << " level " << level;
      if (expected_valid) {
        EXPECT_EQ(estimator.lower_record(level), expected_lower)
            << "seed " << seed << " level " << level;
      }
    }
  }
}

// The subsystem's soundness property: a stream generated by the framework's
// own TimingShaper from a PJD model never drives the empirical staircases
// outside the model's analytic envelope, at any lattice point — this is what
// makes zero false positives a theorem rather than a tuning outcome.
TEST(CurveEstimator, EmpiricalCurvesStayInsideTheAnalyticEnvelope) {
  const PJD models[] = {PJD::from_ms(10, 0, 0), PJD::from_ms(10, 20, 0),
                        PJD::from_ms(6.3, 12.6, 6.3), PJD::from_ms(30, 5, 30)};
  for (const PJD& model : models) {
    const PJDUpperCurve analytic_upper(model);
    const PJDLowerCurve analytic_lower(model);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      util::Xoshiro256 rng(seed);
      kpn::TimingShaper shaper(model, 0, rng);
      // An off-period lattice so windows straddle emissions unaligned.
      CurveEstimator estimator(
          {.base_delta = model.period / 2 + 1, .levels = 7});
      TimeNs last = 0;
      for (int k = 0; k < 300; ++k) {
        const TimeNs event = shaper.next_emission(last);
        shaper.commit(event);
        // Poll between events too: minima must be witnessed off-event.
        if (k % 3 == 0 && event > last) {
          estimator.advance_to(last + (event - last) / 2);
        }
        estimator.add_event(event);
        last = event;
      }
      estimator.advance_to(last);
      for (int level = 0; level < estimator.levels(); ++level) {
        const TimeNs delta = estimator.delta(level);
        EXPECT_LE(estimator.upper_record(level), analytic_upper.value_at(delta))
            << model.to_string() << " seed " << seed << " delta " << delta;
        if (estimator.lower_valid(level)) {
          EXPECT_GE(estimator.lower_record(level), analytic_lower.value_at(delta))
              << model.to_string() << " seed " << seed << " delta " << delta;
        }
      }
    }
  }
}

TEST(ConformanceChecker, ConformantStreamNeverTrips) {
  const PJD model = PJD::from_ms(10, 20, 0);
  const auto curves = ArrivalCurvePair::from_pjd(model);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Xoshiro256 rng(seed);
    kpn::TimingShaper shaper(model, 0, rng);
    CurveEstimator estimator({.base_delta = model.period, .levels = 6});
    ConformanceChecker checker(estimator, curves.lower.get(), curves.upper.get());
    TimeNs last = 0;
    for (int k = 0; k < 400; ++k) {
      const TimeNs event = shaper.next_emission(last);
      shaper.commit(event);
      estimator.add_event(event);
      EXPECT_FALSE(checker.check(estimator).has_value()) << "at event " << k;
      last = event;
    }
    EXPECT_FALSE(checker.first().has_value());
    EXPECT_EQ(checker.upper_violations(), 0u);
    EXPECT_EQ(checker.lower_violations(), 0u);
    EXPECT_EQ(checker.checks(), 400u);
  }
}

TEST(ConformanceChecker, BurstBeyondTheDesignUpperIsAnUpperBreach) {
  const PJD model = PJD::from_ms(10, 0, 0);  // strict: eta+(10ms) = 1
  const auto curves = ArrivalCurvePair::from_pjd(model);
  CurveEstimator estimator({.base_delta = model.period, .levels = 4});
  ConformanceChecker checker(estimator, curves.lower.get(), curves.upper.get());

  TimeNs t = 0;
  for (int k = 0; k < 10; ++k, t += model.period) {
    estimator.add_event(t);
    ASSERT_FALSE(checker.check(estimator).has_value());
  }
  // Two extra events within one period: the (t - P, t] window now holds 3.
  estimator.add_event(t);
  estimator.add_event(t);
  const auto violation = checker.check(estimator);
  ASSERT_TRUE(violation.has_value());
  EXPECT_TRUE(violation->upper);
  EXPECT_EQ(violation->level, 0);
  EXPECT_EQ(violation->bound, checker.upper_bound(0));
  EXPECT_GT(violation->observed, violation->bound);
  EXPECT_EQ(violation->at, t);
  EXPECT_EQ(checker.first(), violation);
  EXPECT_GE(checker.upper_violations(), 1u);
}

TEST(ConformanceChecker, StarvationIsALowerBreachCountedOncePerDepth) {
  const PJD model = PJD::from_ms(10, 0, 0);  // eta-(20ms) = 2
  const auto curves = ArrivalCurvePair::from_pjd(model);
  CurveEstimator estimator({.base_delta = model.period, .levels = 4});
  ConformanceChecker checker(estimator, curves.lower.get(), curves.upper.get());

  TimeNs t = 0;
  for (int k = 0; k < 30; ++k, t += model.period) {
    estimator.add_event(t);
    ASSERT_FALSE(checker.check(estimator).has_value());
  }
  // Silence: by 3 periods past the last event some [t-Delta, t) window has
  // starved below the design lower curve.
  estimator.advance_to(t + 3 * model.period);
  const auto violation = checker.check(estimator);
  ASSERT_TRUE(violation.has_value());
  EXPECT_FALSE(violation->upper);
  EXPECT_LT(violation->observed, violation->bound);
  const auto count_after_first = checker.lower_violations();

  // The running minimum is sticky; re-checking the same state must not
  // re-count the same starvation.
  EXPECT_FALSE(checker.check(estimator).has_value());
  EXPECT_EQ(checker.lower_violations(), count_after_first);

  // Deepening starvation counts again.
  estimator.advance_to(t + 6 * model.period);
  EXPECT_TRUE(checker.check(estimator).has_value());
  EXPECT_GT(checker.lower_violations(), count_after_first);
}

// Dimensioner: streams shaped by the application's own design models must
// yield measured requirements inside the designed ones — rtc/sizing is the
// oracle on both sides of the comparison.
TEST(OnlineDimensioner, MeasuredRequirementsStayWithinTheDesign) {
  const auto app = apps::adpcm::make_application();
  const auto model = app.timing.to_model();
  const SizingReport designed =
      analyze_duplicated_network(model, app.timing.default_horizon());

  const auto measure = [](const PJD& pjd, TimeNs base_delta,
                          std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    kpn::TimingShaper shaper(pjd, 0, rng);
    CurveEstimator estimator({.base_delta = base_delta, .levels = 7});
    TimeNs last = 0;
    for (int k = 0; k < 400; ++k) {
      const TimeNs event = shaper.next_emission(last);
      shaper.commit(event);
      estimator.add_event(event);
      last = event;
    }
    return estimator.snapshot(last);
  };

  const TimeNs base = app.timing.producer.period;
  const auto producer = measure(app.timing.producer, base, 3);
  const auto r1 = measure(app.timing.replica_out[0], base, 4);
  const auto r2 = measure(app.timing.replica_out[1], base, 5);

  const OnlineMargins margins = redimension(producer, r1, r2, model, designed);
  EXPECT_GT(margins.horizon, 0);
  EXPECT_EQ(margins.designed_fifo1, designed.replicator_capacity[0]);
  EXPECT_EQ(margins.designed_divergence, designed.selector_threshold);

  ASSERT_TRUE(margins.measured_fifo1.has_value());
  ASSERT_TRUE(margins.measured_fifo2.has_value());
  EXPECT_GE(*margins.measured_fifo1, 1);
  EXPECT_LE(*margins.measured_fifo1, designed.replicator_capacity[0]);
  EXPECT_LE(*margins.measured_fifo2, designed.replicator_capacity[1]);

  ASSERT_TRUE(margins.measured_divergence.has_value());
  EXPECT_GE(*margins.measured_divergence, 1);
  EXPECT_LE(*margins.measured_divergence, designed.selector_threshold);

  // The measured Eq. (8) bound is certified on a coarser lattice than the
  // analytic curves, so it may only be later (more conservative), never
  // earlier than the designed bound.
  ASSERT_TRUE(margins.measured_latency.has_value());
  EXPECT_GE(*margins.measured_latency, designed.selector_latency_bound);
}

TEST(OnlineDimensioner, EmptySnapshotsReportNoMeasurements) {
  const auto app = apps::adpcm::make_application();
  const auto model = app.timing.to_model();
  const SizingReport designed =
      analyze_duplicated_network(model, app.timing.default_horizon());
  const EmpiricalCurveSnapshot empty;
  const OnlineMargins margins = redimension(empty, empty, empty, model, designed);
  EXPECT_EQ(margins.horizon, 0);
  EXPECT_FALSE(margins.measured_fifo1.has_value());
  EXPECT_FALSE(margins.measured_divergence.has_value());
  EXPECT_FALSE(margins.measured_latency.has_value());
  EXPECT_EQ(margins.designed_fifo1, designed.replicator_capacity[0]);
}

}  // namespace
}  // namespace sccft::rtc::online
