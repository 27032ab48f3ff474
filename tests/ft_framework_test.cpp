// FaultTolerantHarness + FaultInjector tests.
#include <gtest/gtest.h>

#include <string>

#include "apps/mjpeg/app.hpp"
#include "ft/fault_injector.hpp"
#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "scc/platform.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

AppTimingSpec mjpeg_timing() { return apps::mjpeg::make_application().timing; }

TEST(Harness, BuildsDimensionedChannels) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(net, {.timing = mjpeg_timing()});
  EXPECT_EQ(harness.sizing().replicator_capacity[0], 2);
  EXPECT_EQ(harness.sizing().replicator_capacity[1], 3);
  EXPECT_EQ(harness.selector().space(ReplicaIndex::kReplica1), 4 - 2);
  EXPECT_EQ(harness.selector().space(ReplicaIndex::kReplica2), 6 - 3);
  EXPECT_NE(net.find_channel("ft.replicator"), nullptr);
  EXPECT_NE(net.find_channel("ft.selector"), nullptr);
}

TEST(Harness, DivergenceOverrideApplies) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(
      net, {.timing = mjpeg_timing(), .divergence_threshold_override = 9});
  // Detections only via observer; verify override by driving the selector.
  auto& w2 = harness.selector().write_interface(ReplicaIndex::kReplica2);
  for (std::uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(w2.try_write(kpn::Token(std::vector<std::uint8_t>{1}, k, 0)));
    (void)harness.selector().try_read();
  }
  // W2-W1 = 8 < 9: no divergence fault; and stall rule may fire instead, so
  // disable comparison there — only check divergence did not trigger.
  const auto detection = harness.selector().detection(ReplicaIndex::kReplica1);
  if (detection) {
    EXPECT_NE(detection->rule, DetectionRule::kSelectorDivergence);
  }
}

TEST(Harness, CapacityOverrideApplies) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(
      net, {.timing = mjpeg_timing(), .replicator_capacity_override = 7});
  EXPECT_EQ(harness.replicator().space(ReplicaIndex::kReplica1), 7);
  EXPECT_EQ(harness.replicator().space(ReplicaIndex::kReplica2), 7);
}

TEST(Harness, NegativeOverridesAreRejectedWithTheOffendingValue) {
  // 0 means "use the analyzed size"; a negative override is neither unset
  // nor legal, and silently falling back to the analysis would hide the
  // caller's bug. The diagnostic must carry the value that was passed.
  sim::Simulator sim;
  kpn::Network net(sim);
  try {
    FaultTolerantHarness harness(
        net, {.timing = mjpeg_timing(), .divergence_threshold_override = -3});
    FAIL() << "negative divergence override accepted";
  } catch (const util::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("divergence_threshold_override"),
              std::string::npos);
    EXPECT_NE(std::string(violation.what()).find("-3"), std::string::npos);
  }
  try {
    FaultTolerantHarness harness(
        net, {.timing = mjpeg_timing(), .replicator_capacity_override = -7});
    FAIL() << "negative capacity override accepted";
  } catch (const util::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("replicator_capacity_override"),
              std::string::npos);
    EXPECT_NE(std::string(violation.what()).find("-7"), std::string::npos);
  }
}

/// Runs `body`, expecting a ContractViolation whose message names every
/// string in `fragments`.
template <typename Body>
void expect_violation_naming(Body body, const std::vector<std::string>& fragments) {
  try {
    body();
    FAIL() << "no contract violation";
  } catch (const util::ContractViolation& violation) {
    for (const std::string& fragment : fragments) {
      EXPECT_NE(std::string(violation.what()).find(fragment), std::string::npos)
          << violation.what() << " does not name " << fragment;
    }
  }
}

TEST(Harness, MalformedReplicaSetsAreRejectedWithTheirSizes) {
  sim::Simulator sim;
  kpn::Network net(sim);
  AppTimingSpec single = mjpeg_timing();
  single.replica_in.resize(1);
  single.replica_out.resize(1);
  expect_violation_naming(
      [&] { FaultTolerantHarness harness(net, {.timing = single}); },
      {"at least 2 replicas", "has 1"});

  AppTimingSpec ragged = mjpeg_timing();
  ragged.replica_out.push_back(ragged.replica_out.back());
  expect_violation_naming(
      [&] { FaultTolerantHarness harness(net, {.timing = ragged}); },
      {"timing.replica_out has 3 entries", "timing.replica_in has 2"});

  expect_violation_naming(
      [&] {
        FaultTolerantHarness harness(
            net, {.timing = mjpeg_timing(), .replica_in_cores = {scc::CoreId{2}}});
      },
      {"replica_in_cores has 1 entries", "timing.replica_in has 2"});

  scc::Platform platform(sim);
  AppTimingSpec triple = mjpeg_timing();
  triple.replica_in.push_back(triple.replica_in.back());
  triple.replica_out.push_back(triple.replica_out.back());
  const std::vector<scc::CoreId> cores{scc::CoreId{2}, scc::CoreId{4}, scc::CoreId{6}};
  expect_violation_naming(
      [&] {
        FaultTolerantHarness harness(net, {.timing = triple,
                                           .platform = &platform,
                                           .replica_in_cores = cores,
                                           .replica_out_cores = cores,
                                           .enable_payload_vote = true});
      },
      {"enable_payload_vote", "platform", "3 replicas"});
}

TEST(Harness, VoteModeGrowsSelectorSidesToTheFloor) {
  // N = 3 vote rig: every side's usable space must exceed D, so the harness
  // builds each side with at least initial + D + 1 slots.
  sim::Simulator sim;
  kpn::Network net(sim);
  AppTimingSpec triple = mjpeg_timing();
  triple.replica_in.push_back(triple.replica_in.front());
  triple.replica_out.push_back(triple.replica_out.front());
  FaultTolerantHarness harness(net, {.timing = triple, .enable_payload_vote = true});
  const rtc::SizingReport& sizing = harness.sizing();
  ASSERT_EQ(sizing.selector_capacity.size(), 3u);
  EXPECT_EQ(harness.selector().replica_count(), 3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(harness.selector().space(static_cast<ReplicaIndex>(r)),
              sizing.selector_threshold + 1)
        << r;
  }
}

TEST(Harness, DetectionLogAggregatesBothChannels) {
  sim::Simulator sim;
  kpn::Network net(sim);
  FaultTolerantHarness harness(net, {.timing = mjpeg_timing()});
  // Force a replicator overflow (3 writes into |R1|=2 with nobody reading).
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(harness.replicator().try_write(kpn::Token({1}, k, 0)));
  }
  EXPECT_TRUE(harness.detections().first_replicator().has_value());
  EXPECT_TRUE(harness.detections().first().has_value());
  EXPECT_FALSE(harness.detections().first_selector().has_value());
}

TEST(Injector, SilenceParksProcessAtGate) {
  sim::Simulator sim;
  kpn::Network net(sim);
  int iterations = 0;
  auto& victim = net.add_process(
      "victim", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
        while (true) {
          SCCFT_FAULT_GATE(ctx);
          ++iterations;
          co_await ctx.delay(100);
        }
      });
  FaultInjector injector(sim);
  injector.schedule({&victim}, 1'000, FaultMode::kSilence);
  net.run_until(10'000);
  EXPECT_TRUE(injector.fired());
  // ~10 iterations before the fault at t=1000, none after (one gate pass).
  EXPECT_LE(iterations, 12);
  EXPECT_GE(iterations, 9);
}

TEST(Injector, RateDegradationSlowsCompute) {
  sim::Simulator sim;
  kpn::Network net(sim);
  std::vector<rtc::TimeNs> ticks;
  auto& victim = net.add_process(
      "victim", scc::CoreId{0}, 1, [&](kpn::ProcessContext& ctx) -> sim::Task {
        while (true) {
          co_await ctx.compute(100);
          ticks.push_back(ctx.now());
        }
      });
  FaultInjector injector(sim);
  injector.schedule({&victim}, 1'000, FaultMode::kRateDegradation, 4.0);
  net.run_until(3'000);
  // Before t=1000: ticks every 100. After: every 400.
  ASSERT_GT(ticks.size(), 12u);
  EXPECT_EQ(ticks[9], 1'000);
  EXPECT_EQ(ticks[10], 1'400);
  EXPECT_EQ(ticks[11], 1'800);
}

TEST(Injector, SingleFaultHypothesisEnforced) {
  sim::Simulator sim;
  kpn::Network net(sim);
  auto& p = net.add_process("p", scc::CoreId{0}, 1,
                            [](kpn::ProcessContext&) -> sim::Task { co_return; });
  FaultInjector injector(sim);
  injector.schedule({&p}, 100);
  EXPECT_THROW(injector.schedule({&p}, 200), util::ContractViolation);
}

TEST(Injector, RateFactorMustExceedOne) {
  sim::Simulator sim;
  kpn::Network net(sim);
  auto& p = net.add_process("p", scc::CoreId{0}, 1,
                            [](kpn::ProcessContext&) -> sim::Task { co_return; });
  FaultInjector injector(sim);
  EXPECT_THROW(injector.schedule({&p}, 100, FaultMode::kRateDegradation, 1.0),
               util::ContractViolation);
}

TEST(TimingSpec, HorizonCoversLargestModel) {
  const auto spec = mjpeg_timing();
  EXPECT_GE(spec.default_horizon(), 100 * spec.producer.period);
}

}  // namespace
}  // namespace sccft::ft
