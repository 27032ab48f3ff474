// Parameterized property sweeps over the Section 3.4 analysis: monotonicity,
// scaling, and symmetry laws that must hold for every PJD configuration —
// plus brute-force oracles for the candidate sets of the min-plus operators
// and of the sup/first-reach probes the sizing analysis is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/minplus.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "util/rng.hpp"

namespace sccft::rtc {
namespace {

struct ModelCase {
  PJD producer;
  PJD slow_replica;
};

class SizingLaws : public ::testing::TestWithParam<ModelCase> {
 protected:
  static constexpr TimeNs kHorizon = 5'000 * kNsPerMs;
};

TEST_P(SizingLaws, CapacityMonotoneInConsumerJitter) {
  const auto& param = GetParam();
  PJDUpperCurve producer_upper(param.producer);
  Tokens previous = 0;
  for (double factor : {0.5, 1.0, 1.5, 2.0}) {
    PJD consumer = param.slow_replica;
    consumer.jitter = static_cast<TimeNs>(consumer.jitter * factor);
    PJDLowerCurve lower(consumer);
    const auto capacity = min_fifo_capacity(producer_upper, lower, kHorizon);
    ASSERT_TRUE(capacity.has_value());
    EXPECT_GE(*capacity, previous);
    previous = *capacity;
  }
}

TEST_P(SizingLaws, ThresholdSymmetricUnderSwap) {
  const auto& param = GetParam();
  PJDUpperCurve u1(param.producer), u2(param.slow_replica);
  PJDLowerCurve l1(param.producer), l2(param.slow_replica);
  const auto d_ab = divergence_threshold(u1, l1, u2, l2, kHorizon);
  const auto d_ba = divergence_threshold(u2, l2, u1, l1, kHorizon);
  ASSERT_TRUE(d_ab.has_value());
  ASSERT_TRUE(d_ba.has_value());
  EXPECT_EQ(*d_ab, *d_ba);
}

TEST_P(SizingLaws, TimeScalingLaw) {
  // Scaling all time parameters by k scales every latency bound by k and
  // leaves all token quantities (capacities, D) unchanged.
  const auto& param = GetParam();
  auto scaled = [](const PJD& model, int k) {
    return PJD{model.period * k, model.jitter * k, model.delay * k};
  };
  for (int k : {2, 5}) {
    PJDUpperCurve u1(param.producer), u2(param.slow_replica);
    PJDLowerCurve l1(param.producer), l2(param.slow_replica);
    PJDUpperCurve su1(scaled(param.producer, k)), su2(scaled(param.slow_replica, k));
    PJDLowerCurve sl1(scaled(param.producer, k)), sl2(scaled(param.slow_replica, k));

    const auto capacity = min_fifo_capacity(u1, l2, kHorizon);
    const auto scaled_capacity = min_fifo_capacity(su1, sl2, k * kHorizon);
    ASSERT_TRUE(capacity && scaled_capacity);
    EXPECT_EQ(*capacity, *scaled_capacity);

    const auto d = divergence_threshold(u1, l1, u2, l2, kHorizon);
    const auto sd = divergence_threshold(su1, sl1, su2, sl2, k * kHorizon);
    ASSERT_TRUE(d && sd);
    EXPECT_EQ(*d, *sd);

    const auto bound = detection_latency_bound_silence(l2, *d, kHorizon);
    const auto scaled_bound = detection_latency_bound_silence(sl2, *sd, k * kHorizon);
    ASSERT_TRUE(bound && scaled_bound);
    EXPECT_EQ(*scaled_bound, k * *bound);
  }
}

TEST_P(SizingLaws, LatencyBoundDominatesCapacityFillTime) {
  // The divergence-rule bound (2D-1 tokens) is never faster than one token.
  const auto& param = GetParam();
  PJDUpperCurve u1(param.producer), u2(param.slow_replica);
  PJDLowerCurve l1(param.producer), l2(param.slow_replica);
  const auto d = divergence_threshold(u1, l1, u2, l2, kHorizon);
  ASSERT_TRUE(d.has_value());
  const auto bound = detection_latency_bound_silence(l2, *d, kHorizon);
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound, param.slow_replica.period);
}

TEST_P(SizingLaws, ReportInternallyConsistent) {
  const auto& param = GetParam();
  NetworkTimingModel model;
  model.producer_upper = model.consumer_upper = make_curve<PJDUpperCurve>(param.producer);
  model.producer_lower = model.consumer_lower = make_curve<PJDLowerCurve>(param.producer);
  for (const PJD& replica : {param.producer, param.slow_replica}) {
    model.replica_in_upper.push_back(make_curve<PJDUpperCurve>(replica));
    model.replica_in_lower.push_back(make_curve<PJDLowerCurve>(replica));
  }
  model.replica_out_upper = model.replica_in_upper;
  model.replica_out_lower = model.replica_in_lower;
  const auto report = analyze_duplicated_network(model, kHorizon);

  // The slow replica always needs at least as much of everything.
  EXPECT_GE(report.replicator_capacity[1], report.replicator_capacity[0]);
  EXPECT_GE(report.selector_capacity[1], report.selector_capacity[0]);
  EXPECT_GE(report.selector_initial[1], report.selector_initial[0]);
  // Selector capacity covers its initial fill.
  EXPECT_GT(report.selector_capacity[0], report.selector_initial[0]);
  EXPECT_GT(report.selector_capacity[1], report.selector_initial[1]);
  // Thresholds and bounds are positive and ordered sanely.
  EXPECT_GE(report.selector_threshold, 2);
  EXPECT_GT(report.selector_latency_bound, 0);
  EXPECT_GT(report.replicator_overflow_bound, 0);
  // Divergence-rule bound is never tighter than the overflow-rule bound by
  // more than the capacity/threshold relationship allows.
  EXPECT_GE(report.replicator_divergence_bound, report.replicator_overflow_bound / 4);
}

// --- min-plus operator oracles ---------------------------------------------
// minplus_conv_at / minplus_deconv_at evaluate the inf/sup over lambda by
// probing a *candidate set* (endpoints, jump points, and their reflections)
// instead of every lambda. The candidate set is asymmetric between f and g
// (f is probed at its jump points, g at delta minus its own), so these
// oracles cross-check it exhaustively: on small random staircases the exact
// answer is the min/max over every integer lambda in range.

StaircaseCurve random_staircase(util::Xoshiro256& rng, const std::string& name) {
  const Tokens base = rng.uniform_int(0, 3);
  const int jump_count = static_cast<int>(rng.uniform_int(0, 6));
  std::vector<TimeNs> ats;
  for (int j = 0; j < jump_count; ++j) {
    ats.push_back(rng.uniform_int(1, 40));  // small: brute force stays cheap
  }
  std::sort(ats.begin(), ats.end());
  ats.erase(std::unique(ats.begin(), ats.end()), ats.end());
  std::vector<StaircaseCurve::Jump> jumps;
  for (const TimeNs at : ats) {
    jumps.push_back({at, rng.uniform_int(1, 4)});
  }
  return StaircaseCurve(base, std::move(jumps), 0, 0, 0, name);
}

Tokens conv_oracle(const Curve& f, const Curve& g, TimeNs delta) {
  Tokens best = std::numeric_limits<Tokens>::max();
  for (TimeNs lambda = 0; lambda <= delta; ++lambda) {
    best = std::min(best, f.value_at(lambda) + g.value_at(delta - lambda));
  }
  return best;
}

Tokens deconv_oracle(const Curve& f, const Curve& g, TimeNs delta, TimeNs horizon) {
  Tokens best = std::numeric_limits<Tokens>::min();
  for (TimeNs lambda = 0; lambda <= horizon; ++lambda) {
    best = std::max(best, f.value_at(delta + lambda) - g.value_at(lambda));
  }
  return best;
}

TEST(MinPlusOracle, ConvMatchesBruteForceOnRandomStaircases) {
  util::Xoshiro256 rng(2014);
  for (int trial = 0; trial < 200; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; ++delta) {
      ASSERT_EQ(minplus_conv_at(f, g, delta), conv_oracle(f, g, delta))
          << "trial " << trial << " delta " << delta << " f=" << f.describe()
          << " g=" << g.describe();
    }
  }
}

TEST(MinPlusOracle, ConvIsCommutativeOnRandomStaircases) {
  util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; ++delta) {
      ASSERT_EQ(minplus_conv_at(f, g, delta), minplus_conv_at(g, f, delta))
          << "trial " << trial << " delta " << delta;
    }
  }
}

TEST(MinPlusOracle, DeconvMatchesBruteForceOnRandomStaircases) {
  util::Xoshiro256 rng(77);
  constexpr TimeNs kHorizon = 50;
  for (int trial = 0; trial < 200; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    for (TimeNs delta = 0; delta <= 50; delta += 5) {
      ASSERT_EQ(minplus_deconv_at(f, g, delta, kHorizon),
                deconv_oracle(f, g, delta, kHorizon))
          << "trial " << trial << " delta " << delta << " f=" << f.describe()
          << " g=" << g.describe();
    }
  }
}

TEST(SupDifferenceOracle, MatchesBruteForceOnRandomStaircases) {
  // sup_difference and first_time_difference_reaches probe only the merged
  // jump-point candidates of both curves; every integer Delta is the oracle.
  util::Xoshiro256 rng(3141);
  constexpr TimeNs kHorizon = 50;
  for (int trial = 0; trial < 200; ++trial) {
    const StaircaseCurve f = random_staircase(rng, "f");
    const StaircaseCurve g = random_staircase(rng, "g");
    Tokens best = f.value_at(0) - g.value_at(0);
    TimeNs best_at = 0;
    for (TimeNs delta = 1; delta <= kHorizon; ++delta) {
      if (f.value_at(delta) - g.value_at(delta) > best) {
        best = f.value_at(delta) - g.value_at(delta);
        best_at = delta;
      }
    }
    const SupResult sup = sup_difference(f, g, kHorizon);
    ASSERT_EQ(sup.value, best) << "trial " << trial << " f=" << f.describe()
                               << " g=" << g.describe();
    ASSERT_EQ(sup.at, best_at) << "trial " << trial;
    for (Tokens target = best - 2; target <= best + 1; ++target) {
      std::optional<TimeNs> first;
      for (TimeNs delta = 0; delta <= kHorizon && !first; ++delta) {
        if (f.value_at(delta) - g.value_at(delta) >= target) first = delta;
      }
      ASSERT_EQ(first_time_difference_reaches(f, g, target, kHorizon), first)
          << "trial " << trial << " target " << target;
    }
  }
}

TEST(MinPlusOracle, ConvAgreesWithPjdCurves) {
  // The production callers convolve PJD-derived curves; spot-check those too
  // (small periods keep the brute force over integer lambda affordable).
  const PJDUpperCurve upper(PJD{10, 4, 0});
  const PJDLowerCurve lower(PJD{10, 4, 0});
  for (TimeNs delta = 0; delta <= 60; ++delta) {
    ASSERT_EQ(minplus_conv_at(upper, lower, delta), conv_oracle(upper, lower, delta))
        << "delta " << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelSweep, SizingLaws,
    ::testing::Values(
        ModelCase{PJD::from_ms(30, 2, 30), PJD::from_ms(30, 30, 30)},    // MJPEG
        ModelCase{PJD::from_ms(6.3, 0.1, 6.3), PJD::from_ms(6.3, 12.6, 6.3)},  // ADPCM
        ModelCase{PJD::from_ms(30, 1, 30), PJD::from_ms(30, 20, 30)},    // H.264
        ModelCase{PJD::from_ms(10, 0, 10), PJD::from_ms(10, 5, 10)},
        ModelCase{PJD::from_ms(8, 4, 8), PJD::from_ms(8, 24, 8)},
        ModelCase{PJD::from_ms(100, 10, 100), PJD::from_ms(100, 150, 100)},
        ModelCase{PJD::from_ms(1, 0.2, 1), PJD::from_ms(1, 2, 1)}));

}  // namespace
}  // namespace sccft::rtc
