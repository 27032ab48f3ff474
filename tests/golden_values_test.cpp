// Golden-value and remaining-path tests: pins down derived quantities that
// the benches print (so regressions show up in ctest, not just in diffed
// bench output), and covers a few paths no other suite exercises.
#include <gtest/gtest.h>

#include "apps/common/experiment.hpp"
#include "apps/adpcm/app.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "rtc/sizing.hpp"

namespace sccft {
namespace {

TEST(GoldenValues, H264SizingPinned) {
  // The Table 2 analog for H.264 (asymmetric models <30,1/4/20,30>).
  const auto app = apps::h264::make_application();
  const auto report = rtc::analyze_duplicated_network(app.timing.to_model(),
                                                      app.timing.default_horizon());
  EXPECT_EQ(report.replicator_capacity[0], 2);
  EXPECT_EQ(report.replicator_capacity[1], 2);
  EXPECT_EQ(report.selector_capacity[0], 4);
  EXPECT_EQ(report.selector_capacity[1], 4);
  EXPECT_EQ(report.selector_initial[0], 2);
  EXPECT_EQ(report.selector_initial[1], 2);
  EXPECT_EQ(report.selector_threshold, 3);
  EXPECT_EQ(report.replicator_overflow_bound, rtc::from_ms(91.0));
  EXPECT_EQ(report.selector_latency_bound, rtc::from_ms(170.0));
}

TEST(GoldenValues, MinimizedJitterGivesUnitCapacity) {
  // Table 3's regime: zero replica jitter => |R_i| = 1 and D = 2.
  const auto app = apps::minimize_replica_jitter(apps::mjpeg::make_application());
  const auto report = rtc::analyze_duplicated_network(app.timing.to_model(),
                                                      app.timing.default_horizon());
  EXPECT_EQ(report.replicator_capacity[0], 1);
  EXPECT_EQ(report.replicator_capacity[1], 1);
  EXPECT_EQ(report.selector_threshold, 2);
}

TEST(Harness, PhysicalPreloadPathWorks) {
  // The optional Eq. (4) physical preload: consumer can read the initial
  // tokens before any replica has produced.
  sim::Simulator simulator;
  kpn::Network net(simulator);
  ft::FaultTolerantHarness harness(
      net, {.timing = apps::mjpeg::make_application().timing,
            .preload_initial_tokens = true});
  EXPECT_EQ(harness.selector().fill(), 3);  // max(|S1|_0, |S2|_0)
  int preload_reads = 0;
  while (auto token = harness.selector().try_read()) {
    EXPECT_EQ(token->size_bytes(), 0);  // marker tokens
    ++preload_reads;
  }
  EXPECT_EQ(preload_reads, 3);
}

TEST(Channels, FifoResetClearsEverything) {
  sim::Simulator simulator;
  kpn::FifoChannel fifo(simulator, "f", 4);
  ASSERT_TRUE(fifo.try_write(kpn::Token(std::vector<std::uint8_t>{1}, 0, 0)));
  ASSERT_TRUE(fifo.try_write(kpn::Token(std::vector<std::uint8_t>{2}, 1, 0)));
  EXPECT_EQ(fifo.fill(), 2);
  fifo.reset();
  EXPECT_EQ(fifo.fill(), 0);
  EXPECT_FALSE(fifo.try_read().has_value());
  // Usable again after reset.
  ASSERT_TRUE(fifo.try_write(kpn::Token(std::vector<std::uint8_t>{3}, 2, 0)));
  EXPECT_EQ(fifo.fill(), 1);
}

TEST(Experiment, RenderTopologyCountsScaleWithStructure) {
  // Figure-1 structural law used by the bench: duplicated edge count is
  // exactly twice the reference's, for every topology shape.
  for (const char* name : {"mjpeg", "adpcm", "h264"}) {
    apps::ApplicationSpec spec;
    if (std::string(name) == "mjpeg") spec = apps::mjpeg::make_application();
    else if (std::string(name) == "adpcm") spec = apps::adpcm::make_application();
    else spec = apps::h264::make_application();
    apps::ExperimentRunner runner(std::move(spec));
    auto count_lines = [](const std::string& text) {
      return std::count(text.begin(), text.end(), '\n');
    };
    EXPECT_EQ(count_lines(runner.render_topology(true)),
              2 * count_lines(runner.render_topology(false)))
        << name;
  }
}

TEST(GoldenValues, AdpcmDetectionDeterministicAcrossRebuilds) {
  // The exact latency for a fixed seed is part of the repo's reproducibility
  // contract (any change to event ordering or RNG streams shows up here).
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  apps::ExperimentOptions options;
  options.seed = 1;
  options.run_periods = 200;
  options.fault_after_periods = 120;
  options.inject_fault = true;
  const auto a = runner.run(options);
  const auto b = runner.run(options);
  ASSERT_TRUE(a.first_latency.has_value());
  EXPECT_EQ(*a.first_latency, *b.first_latency);
  EXPECT_EQ(a.fault_injected_at, b.fault_injected_at);
}

}  // namespace
}  // namespace sccft
