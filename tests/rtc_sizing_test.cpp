// Tests for the Section 3.4 design-time analysis (Eq. 3-8).
//
// The headline assertions reproduce the *paper's own Table 2 numbers*: with
// the Table 1 timing models, the analysis must yield exactly the FIFO
// capacities and initial-token counts the paper reports for the MJPEG and
// ADPCM applications.
#include <gtest/gtest.h>

#include "apps/adpcm/app.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"

namespace sccft::rtc {
namespace {

using apps::ApplicationSpec;

SizingReport analyze(const ApplicationSpec& app) {
  return analyze_duplicated_network(app.timing.to_model(),
                                    app.timing.default_horizon());
}

// ---- Paper Table 2, MJPEG row: |R1| |R2| |S1| |S2| |S1|_0 |S2|_0 ----------
TEST(SizingPaperNumbers, MjpegCapacitiesMatchTable2) {
  const auto report = analyze(apps::mjpeg::make_application());
  EXPECT_EQ(report.replicator_capacity[0], 2);
  EXPECT_EQ(report.replicator_capacity[1], 3);
  EXPECT_EQ(report.selector_capacity[0], 4);
  EXPECT_EQ(report.selector_capacity[1], 6);
  EXPECT_EQ(report.selector_initial[0], 2);
  EXPECT_EQ(report.selector_initial[1], 3);
}

// ---- Paper Table 2, ADPCM row ----------------------------------------------
TEST(SizingPaperNumbers, AdpcmCapacitiesMatchTable2) {
  const auto report = analyze(apps::adpcm::make_application());
  EXPECT_EQ(report.replicator_capacity[0], 2);
  EXPECT_EQ(report.replicator_capacity[1], 4);
  EXPECT_EQ(report.selector_capacity[0], 4);
  EXPECT_EQ(report.selector_capacity[1], 8);
  EXPECT_EQ(report.selector_initial[0], 2);
  EXPECT_EQ(report.selector_initial[1], 4);
}

TEST(SizingPaperNumbers, MjpegDetectionBoundsAreFiniteAndOrdered) {
  const auto report = analyze(apps::mjpeg::make_application());
  // Selector divergence threshold: sup difference between the replica output
  // curves is 3, so D = 4 and 2D-1 = 7 tokens; the slow replica (jitter =
  // period = 30 ms) yields 30 + 7*30 = 240 ms.
  EXPECT_EQ(report.selector_threshold, 4);
  EXPECT_EQ(report.selector_latency_bound, from_ms(240.0));
  // Replicator overflow rule: producer lower curve reaches |R2|+1 = 4 tokens
  // at 2 + 4*30 = 122 ms.
  EXPECT_EQ(report.replicator_overflow_bound, from_ms(122.0));
  EXPECT_GT(report.replicator_divergence_bound, 0);
}

TEST(SizingPaperNumbers, AdpcmDetectionBounds) {
  const auto report = analyze(apps::adpcm::make_application());
  // D = 5 -> 9 tokens; slow replica: 12.6 + 9*6.3 = 69.3 ms (the paper
  // reports 69.7 ms for its replicator-side divergence bound).
  EXPECT_EQ(report.selector_threshold, 5);
  EXPECT_EQ(report.selector_latency_bound, from_ms(69.3));
}

TEST(SizingPaperNumbers, H264BoundsAsymmetric) {
  const auto report = analyze(apps::h264::make_application());
  // The paper notes the H.264 bounds are asymmetric across channels.
  EXPECT_NE(report.replicator_overflow_bound, report.selector_latency_bound);
  EXPECT_GT(report.selector_threshold, 1);
}

TEST(SizingPaperNumbers, MjpegDetectionBoundIsTheEarlierRule) {
  // Overflow at 122 ms beats the selector's 240 ms.
  EXPECT_EQ(analyze(apps::mjpeg::make_application()).detection_bound(), from_ms(122.0));
}

TEST(PipelineFifoCapacity, IsEq3OverTheHundredPeriodHorizon) {
  const PJD producer = PJD::from_ms(10, 1, 10);
  const PJD stage = PJD::from_ms(10, 2, 10);
  EXPECT_EQ(pipeline_fifo_capacity(producer, stage),
            *min_fifo_capacity(PJDUpperCurve(producer), PJDLowerCurve(stage),
                               from_ms(1002.0)));
  // A stage slower than its producer needs an unbounded FIFO: one token.
  EXPECT_EQ(pipeline_fifo_capacity(producer, PJD::from_ms(20, 0, 20)), 1);
}

// ---- Replicator-side Eq. (5)/(7): thresholds and bounds, pinned exactly ----
TEST(SizingPaperNumbers, ReplicatorDivergencePinned) {
  // The replicas' consumption curves equal their production curves in all
  // three Table 1 rows, so the replicator-side D and divergence-rule bound
  // match the selector side (ADPCM: 12.6 + 9 * 6.3 = 69.3 ms).
  const auto mjpeg = analyze(apps::mjpeg::make_application());
  EXPECT_EQ(mjpeg.replicator_threshold, 4);
  EXPECT_EQ(mjpeg.replicator_divergence_bound, from_ms(240.0));
  const auto adpcm = analyze(apps::adpcm::make_application());
  EXPECT_EQ(adpcm.replicator_threshold, 5);
  EXPECT_EQ(adpcm.replicator_divergence_bound, from_ms(69.3));
  const auto h264 = analyze(apps::h264::make_application());
  EXPECT_EQ(h264.replicator_threshold, 3);
  EXPECT_EQ(h264.replicator_divergence_bound, from_ms(170.0));
}

// ---- Eq. (3): FIFO capacity -------------------------------------------------
TEST(MinFifoCapacity, EqualRatesYieldSmallBuffer) {
  const PJD producer = PJD::from_ms(10, 1, 10);
  const PJD consumer = PJD::from_ms(10, 1, 10);
  PJDUpperCurve upper(producer);
  PJDLowerCurve lower(consumer);
  const auto capacity = min_fifo_capacity(upper, lower, from_ms(2000.0));
  ASSERT_TRUE(capacity.has_value());
  EXPECT_GE(*capacity, 1);
  EXPECT_LE(*capacity, 3);
}

TEST(MinFifoCapacity, ProducerFasterThanConsumerIsInfeasible) {
  PJDUpperCurve upper(PJD::from_ms(5, 0, 5));    // 1 token / 5 ms
  PJDLowerCurve lower(PJD::from_ms(10, 0, 10));  // 1 token / 10 ms
  EXPECT_FALSE(min_fifo_capacity(upper, lower, from_ms(2000.0)).has_value());
}

TEST(MinFifoCapacity, GrowsWithConsumerJitter) {
  PJDUpperCurve upper(PJD::from_ms(10, 1, 10));
  Tokens previous = 0;
  for (double jitter : {0.0, 10.0, 20.0, 30.0}) {
    PJDLowerCurve lower(PJD::from_ms(10, jitter, 10));
    const auto capacity = min_fifo_capacity(upper, lower, from_ms(5000.0));
    ASSERT_TRUE(capacity.has_value());
    EXPECT_GE(*capacity, previous);
    previous = *capacity;
  }
}

// ---- Eq. (3) soundness: capacity really prevents overflow -------------------
// Property check: for any conforming producer trace (upper curve) and
// conforming consumer trace (lower curve), backlog never exceeds capacity.
TEST(MinFifoCapacity, CapacityBoundsWorstCaseBacklog) {
  const PJD prod = PJD::from_ms(10, 7, 10);
  const PJD cons = PJD::from_ms(10, 15, 10);
  PJDUpperCurve upper(prod);
  PJDLowerCurve lower(cons);
  const auto capacity = min_fifo_capacity(upper, lower, from_ms(5000.0));
  ASSERT_TRUE(capacity.has_value());
  // Backlog bound = sup(upper - lower) by definition; re-derive it densely on
  // a 0.5 ms grid as an independent oracle.
  Tokens worst = 0;
  for (TimeNs t = 0; t <= from_ms(500.0); t += from_ms(0.5)) {
    worst = std::max(worst, upper.value_at(t) - lower.value_at(t));
  }
  EXPECT_EQ(*capacity, worst);
}

// ---- Eq. (4): initial fill --------------------------------------------------
TEST(MinInitialFill, ZeroWhenProducerAheadOfConsumer) {
  PJDLowerCurve out(PJD::from_ms(10, 0, 10));
  PJDUpperCurve consumer(PJD::from_ms(10, 0, 10));
  const auto fill = min_initial_fill(out, consumer, from_ms(1000.0));
  ASSERT_TRUE(fill.has_value());
  EXPECT_LE(*fill, 1);
}

TEST(MinInitialFill, CoversReplicaJitter) {
  PJDLowerCurve out(PJD::from_ms(10, 30, 10));  // replica 3 periods late
  PJDUpperCurve consumer(PJD::from_ms(10, 0, 10));
  const auto fill = min_initial_fill(out, consumer, from_ms(5000.0));
  ASSERT_TRUE(fill.has_value());
  EXPECT_GE(*fill, 3);  // must pre-buffer ~3 periods
}

// ---- Eq. (5): divergence threshold ------------------------------------------
TEST(DivergenceThreshold, SymmetricReplicas) {
  const PJD model = PJD::from_ms(10, 2, 10);
  PJDUpperCurve upper1(model), upper2(model);
  PJDLowerCurve lower1(model), lower2(model);
  const auto d = divergence_threshold(upper1, lower1, upper2, lower2, from_ms(2000.0));
  ASSERT_TRUE(d.has_value());
  // sup(eta+ - eta-) for <10,2,10> is 1 (ceil((t+2)/10) - floor((t-2)/10)
  // peaks at 2? evaluate: D must be strictly greater than the sup).
  EXPECT_GE(*d, 2);
}

TEST(DivergenceThreshold, GrowsWithAsymmetry) {
  const PJD fast = PJD::from_ms(10, 1, 10);
  Tokens previous = 0;
  for (double jitter : {5.0, 15.0, 25.0, 45.0}) {
    const PJD slow = PJD::from_ms(10, jitter, 10);
    PJDUpperCurve u1(fast), u2(slow);
    PJDLowerCurve l1(fast), l2(slow);
    const auto d = divergence_threshold(u1, l1, u2, l2, from_ms(5000.0));
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, previous);
    previous = *d;
  }
}

TEST(DivergenceThreshold, UnboundedForMismatchedRates) {
  PJDUpperCurve u1(PJD::from_ms(5, 0, 5));
  PJDLowerCurve l1(PJD::from_ms(5, 0, 5));
  PJDUpperCurve u2(PJD::from_ms(10, 0, 10));
  PJDLowerCurve l2(PJD::from_ms(10, 0, 10));
  EXPECT_FALSE(divergence_threshold(u1, l1, u2, l2, from_ms(2000.0)).has_value());
}

// ---- Eq. (6)-(8): detection latency -----------------------------------------
TEST(DetectionLatency, SilenceBoundMatchesClosedForm) {
  // For a PJD lower curve, eta-(Delta) >= 2D-1 first at J + (2D-1)*P.
  const PJD model = PJD::from_ms(10, 4, 10);
  PJDLowerCurve lower(model);
  for (Tokens d = 1; d <= 6; ++d) {
    const auto bound = detection_latency_bound_silence(lower, d, from_ms(5000.0));
    ASSERT_TRUE(bound.has_value());
    EXPECT_EQ(*bound, model.jitter + (2 * d - 1) * model.period) << "D=" << d;
  }
}

TEST(DetectionLatency, ResidualOutputDelaysDetection) {
  PJDLowerCurve healthy(PJD::from_ms(10, 0, 10));
  ZeroCurve dead;
  // Faulty replica still trickling at 1/40ms vs dead silence.
  PJDUpperCurve trickle(PJD::from_ms(40, 0, 40));
  const auto fast = detection_latency_bound(healthy, dead, 3, from_ms(20000.0));
  const auto slow = detection_latency_bound(healthy, trickle, 3, from_ms(20000.0));
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_GT(*slow, *fast);
}

TEST(DetectionLatency, BothAssignmentsTakeTheMax) {
  PJDLowerCurve l1(PJD::from_ms(10, 0, 10));
  PJDLowerCurve l2(PJD::from_ms(10, 50, 10));
  ZeroCurve dead;
  const auto both =
      detection_latency_bound_both(l1, dead, l2, dead, 2, from_ms(20000.0));
  const auto worst = detection_latency_bound_silence(l2, 2, from_ms(20000.0));
  ASSERT_TRUE(both.has_value());
  ASSERT_TRUE(worst.has_value());
  EXPECT_EQ(*both, *worst);
}

TEST(DetectionLatency, RateFaultBoundShrinksWithSeverity) {
  // Eq. (6) with a residual post-fault upper curve: milder degradation
  // (factor closer to 1) takes longer to convict; silence is the limit.
  const PJD model = PJD::from_ms(10, 2, 10);
  PJDLowerCurve healthy(model);
  const TimeNs horizon = from_ms(20000.0);
  TimeNs previous = horizon + 1;
  for (double factor : {1.5, 2.0, 4.0, 8.0}) {
    const auto bound =
        detection_latency_bound_rate_fault(healthy, model, factor, 3, horizon);
    ASSERT_TRUE(bound.has_value()) << "factor " << factor;
    EXPECT_LT(*bound, previous) << "factor " << factor;
    previous = *bound;
  }
  const auto silence = detection_latency_bound_silence(healthy, 3, horizon);
  ASSERT_TRUE(silence.has_value());
  EXPECT_LE(*silence, previous);  // silence detected fastest
}

TEST(DetectionLatency, RateFaultTooMildIsUndetectable) {
  // A replica faster than (or equal to) the healthy one's guaranteed rate
  // never accumulates divergence.
  const PJD slow_healthy = PJD::from_ms(20, 2, 20);
  const PJD fast_faulty = PJD::from_ms(10, 2, 10);
  PJDLowerCurve healthy(slow_healthy);
  // 1.5x slowdown of a 10 ms stream still beats a 20 ms healthy stream.
  EXPECT_FALSE(detection_latency_bound_rate_fault(healthy, fast_faulty, 1.5, 3,
                                                  from_ms(20000.0))
                   .has_value());
}

TEST(DetectionLatency, MonotoneInThreshold) {
  PJDLowerCurve lower(PJD::from_ms(10, 3, 10));
  TimeNs previous = 0;
  for (Tokens d = 1; d <= 8; ++d) {
    const auto bound = detection_latency_bound_silence(lower, d, from_ms(5000.0));
    ASSERT_TRUE(bound.has_value());
    EXPECT_GT(*bound, previous);
    previous = *bound;
  }
}

// ---- sup_difference machinery ----------------------------------------------
TEST(SupDifference, ZeroCurves) {
  ZeroCurve z1, z2;
  const auto sup = sup_difference(z1, z2, from_ms(100.0));
  EXPECT_EQ(sup.value, 0);
  EXPECT_TRUE(sup.bounded);
}

TEST(SupDifference, ReportsAttainmentPoint) {
  PJDUpperCurve upper(PJD::from_ms(10, 20, 10));
  PJDLowerCurve lower(PJD::from_ms(10, 20, 10));
  const auto sup = sup_difference(upper, lower, from_ms(5000.0));
  EXPECT_GT(sup.value, 0);
  EXPECT_EQ(upper.value_at(sup.at) - lower.value_at(sup.at), sup.value);
}

TEST(FirstTimeDifferenceReaches, ReturnsNulloptBeyondHorizon) {
  PJDLowerCurve lower(PJD::from_ms(10, 0, 10));
  ZeroCurve dead;
  EXPECT_FALSE(
      first_time_difference_reaches(lower, dead, 1'000'000, from_ms(100.0)).has_value());
}

}  // namespace
}  // namespace sccft::rtc
