// Integration tests: full reference/duplicated networks of all three paper
// applications on the simulated SCC. Validates the paper's core claims:
//   - fault-free runs trigger no detector (no false positives),
//   - observed FIFO fills stay within the Eq. (3)/(4) capacities,
//   - Theorem 2: duplicated output == reference output (values), and the
//     consumer timing statistics match,
//   - injected silence faults are detected within the Section 3.4 bounds,
//     with the correct replica blamed,
//   - both fault assignments (R1 or R2 faulty) are tolerated.
#include <gtest/gtest.h>

#include "apps/adpcm/app.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "apps/common/experiment.hpp"

namespace sccft::apps {
namespace {

// ADPCM is the fastest app (6.3 ms period); use it for the heavier sweeps and
// run the larger apps with fewer periods.
ExperimentOptions fast_options() {
  ExperimentOptions options;
  options.seed = 7;
  options.run_periods = 80;
  options.fault_after_periods = 40;
  return options;
}

class ExperimentTest : public ::testing::TestWithParam<const char*> {
 protected:
  static ApplicationSpec spec_for(const std::string& name) {
    if (name == "mjpeg") return mjpeg::make_application();
    if (name == "adpcm") return adpcm::make_application();
    return h264::make_application();
  }
};

TEST_P(ExperimentTest, FaultFreeRunHasNoFalsePositives) {
  ExperimentRunner runner(spec_for(GetParam()));
  auto options = fast_options();
  options.inject_fault = false;
  const auto result = runner.run(options);
  EXPECT_FALSE(result.any_detection) << "false positive detection";
  EXPECT_GT(result.consumer_tokens, 0u);
}

TEST_P(ExperimentTest, ObservedFillsWithinTheoreticalCapacities) {
  ExperimentRunner runner(spec_for(GetParam()));
  auto options = fast_options();
  options.inject_fault = false;
  const auto result = runner.run(options);
  EXPECT_LE(result.fill_r1, result.sizing.replicator_capacity[0]);
  EXPECT_LE(result.fill_r2, result.sizing.replicator_capacity[1]);
  EXPECT_LE(result.fill_s1, result.sizing.selector_capacity[0]);
  EXPECT_LE(result.fill_s2, result.sizing.selector_capacity[1]);
}

TEST_P(ExperimentTest, Theorem2FunctionalEquivalence) {
  ExperimentRunner runner(spec_for(GetParam()));
  auto options = fast_options();
  options.inject_fault = false;

  options.duplicated = false;
  const auto reference = runner.run(options);
  options.duplicated = true;
  const auto duplicated = runner.run(options);

  ASSERT_GT(reference.output_checksums.size(), 10u);
  ASSERT_GT(duplicated.output_checksums.size(), 10u);
  // The two runs may deliver different token counts by the horizon; compare
  // the common prefix (Theorem 2 is about stream prefixes).
  const std::size_t n =
      std::min(reference.output_checksums.size(), duplicated.output_checksums.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(reference.output_checksums[i], duplicated.output_checksums[i])
        << "stream diverges at token " << i;
  }
}

TEST_P(ExperimentTest, Theorem2TimingEquivalence) {
  ExperimentRunner runner(spec_for(GetParam()));
  auto options = fast_options();
  options.inject_fault = false;

  options.duplicated = false;
  const auto reference = runner.run(options);
  options.duplicated = true;
  const auto duplicated = runner.run(options);

  // Consumer inter-arrival statistics nearly identical (paper: "the decoded
  // frame rate is almost identical ... for both the reference and the
  // duplicated process networks").
  ASSERT_FALSE(reference.consumer_interarrival_ms.empty());
  ASSERT_FALSE(duplicated.consumer_interarrival_ms.empty());
  const double period_ms = rtc::to_ms(runner.app().timing.producer.period);
  EXPECT_NEAR(reference.consumer_interarrival_ms.mean(),
              duplicated.consumer_interarrival_ms.mean(), 0.1 * period_ms);
}

TEST_P(ExperimentTest, SilenceFaultDetectedWithinBounds) {
  ExperimentRunner runner(spec_for(GetParam()));
  for (const auto faulty : {ft::ReplicaIndex::kReplica1, ft::ReplicaIndex::kReplica2}) {
    auto options = fast_options();
    options.inject_fault = true;
    options.faulty_replica = faulty;
    const auto result = runner.run(options);

    ASSERT_TRUE(result.any_detection)
        << "fault in " << ft::to_string(faulty) << " not detected";
    EXPECT_FALSE(result.false_positive);
    EXPECT_TRUE(result.correct_replica);
    ASSERT_TRUE(result.replicator_latency.has_value());
    EXPECT_LE(*result.replicator_latency, result.sizing.replicator_overflow_bound);
    ASSERT_TRUE(result.selector_latency.has_value());
    EXPECT_LE(*result.selector_latency, result.sizing.selector_latency_bound);
  }
}

TEST_P(ExperimentTest, ConsumerKeepsReceivingAfterFault) {
  ExperimentRunner runner(spec_for(GetParam()));
  auto options = fast_options();
  options.inject_fault = true;
  options.run_periods = 120;

  const auto faulted = runner.run(options);
  options.inject_fault = false;
  const auto clean = runner.run(options);

  // Fault tolerance: the output stream continues across the fault — nearly
  // as many tokens as the fault-free run, and the same values.
  EXPECT_GE(faulted.output_checksums.size() + 3, clean.output_checksums.size());
  const std::size_t n =
      std::min(faulted.output_checksums.size(), clean.output_checksums.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(faulted.output_checksums[i], clean.output_checksums[i])
        << "output corrupted at token " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApplications, ExperimentTest,
                         ::testing::Values("mjpeg", "adpcm", "h264"));

TEST(ExperimentExtras, RateDegradationFaultDetected) {
  ExperimentRunner runner(adpcm::make_application());
  auto options = fast_options();
  options.inject_fault = true;
  options.fault_mode = ft::FaultMode::kRateDegradation;
  options.rate_factor = 6.0;
  options.run_periods = 160;
  const auto result = runner.run(options);
  EXPECT_TRUE(result.any_detection) << "degraded replica never detected";
  EXPECT_TRUE(result.correct_replica);
}

TEST(ExperimentExtras, DistanceFunctionLatencyQuantizedByPollingInterval) {
  // Paper "Brief Discussion": the distance-function baseline's detection
  // latency is set by its polling interval (it needs runtime timers); our
  // approach has no timer and is unaffected by any polling choice.
  ExperimentRunner runner(minimize_replica_jitter(adpcm::make_application()));
  auto options = fast_options();
  options.inject_fault = true;
  options.attach_baseline_monitors = true;
  options.run_periods = 160;

  options.monitor_polling_interval = rtc::from_ms(1.0);
  const auto fine = runner.run(options);
  options.monitor_polling_interval = rtc::from_ms(25.0);
  const auto coarse = runner.run(options);

  ASSERT_TRUE(fine.distance_latency.has_value());
  ASSERT_TRUE(coarse.distance_latency.has_value());
  ASSERT_TRUE(fine.replicator_latency.has_value());
  ASSERT_TRUE(coarse.replicator_latency.has_value());
  // Coarser polling => strictly later baseline detection...
  EXPECT_GT(*coarse.distance_latency, *fine.distance_latency);
  // ...while our (timer-free) detection latency is identical in both runs.
  EXPECT_EQ(*coarse.replicator_latency, *fine.replicator_latency);
  // Both detect within the same order of magnitude (a few periods).
  EXPECT_LT(*fine.distance_latency, 4 * runner.app().timing.producer.period);
  EXPECT_LT(*fine.replicator_latency, 4 * runner.app().timing.producer.period);
}

TEST(ExperimentExtras, WatchdogDetectsSilence) {
  ExperimentRunner runner(minimize_replica_jitter(adpcm::make_application()));
  auto options = fast_options();
  options.inject_fault = true;
  options.attach_baseline_monitors = true;
  options.run_periods = 160;
  const auto result = runner.run(options);
  ASSERT_TRUE(result.watchdog_latency.has_value());
  EXPECT_GT(*result.watchdog_latency, 0);
}

TEST(ExperimentExtras, DeterministicReruns) {
  ExperimentRunner runner(adpcm::make_application());
  auto options = fast_options();
  options.inject_fault = true;
  const auto a = runner.run(options);
  const auto b = runner.run(options);
  ASSERT_TRUE(a.first_latency.has_value());
  ASSERT_TRUE(b.first_latency.has_value());
  EXPECT_EQ(*a.first_latency, *b.first_latency);
  EXPECT_EQ(a.output_checksums, b.output_checksums);
}

TEST(ExperimentExtras, IdealChannelsAlsoWork) {
  ExperimentRunner runner(adpcm::make_application());
  auto options = fast_options();
  options.use_platform = false;
  options.inject_fault = true;
  const auto result = runner.run(options);
  EXPECT_TRUE(result.any_detection);
}

TEST(ExperimentExtras, TopologyRendersBothShapes) {
  ExperimentRunner runner(mjpeg::make_application());
  const std::string duplicated = runner.render_topology(true);
  const std::string reference = runner.render_topology(false);
  EXPECT_NE(duplicated.find("r1.split"), std::string::npos);
  EXPECT_NE(duplicated.find("r2.merge"), std::string::npos);
  EXPECT_NE(reference.find("F_P"), std::string::npos);
  EXPECT_EQ(reference.find("r2"), std::string::npos);
}

}  // namespace
}  // namespace sccft::apps
