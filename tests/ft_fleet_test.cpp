// Fleet simulation tests (ft/fleet.hpp): deterministic materialization, the
// placement request shape, end-to-end run invariants, and the shared
// restart-budget pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "ft/fleet.hpp"
#include "scc/placement.hpp"
#include "scc/topology.hpp"
#include "util/assert.hpp"

namespace sccft::ft {
namespace {

FleetRunOptions quick_options() {
  FleetRunOptions options;
  options.run_length = 300'000'000;  // 300 ms keeps the test fast
  options.fault_at = 80'000'000;
  options.fault_duration = 40'000'000;
  return options;
}

TEST(FleetSpec, MaterializeIsDeterministic) {
  FleetSpec spec;
  spec.streams = 8;
  spec.seed = 42;
  const auto a = spec.materialize();
  const auto b = spec.materialize();
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].producer, b[i].producer);
    EXPECT_EQ(a[i].stage, b[i].stage);
    EXPECT_EQ(a[i].consumer, b[i].consumer);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].critical, b[i].critical);
  }
}

TEST(FleetSpec, MaterializeIsPrefixStable) {
  // Growing the fleet must not perturb the streams already in it — the
  // saturation sweep compares stream counts, so stream i must mean the same
  // workload at every count.
  FleetSpec small, large;
  small.streams = 4;
  large.streams = 12;
  const auto a = small.materialize();
  const auto b = large.materialize();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].producer, b[i].producer) << "stream " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "stream " << i;
  }
}

TEST(FleetSpec, CriticalEveryControlsDuplication) {
  FleetSpec spec;
  spec.streams = 6;
  spec.critical_every = 2;
  const auto streams = spec.materialize();
  for (const auto& s : streams) {
    EXPECT_EQ(s.critical, s.index % 2 == 0) << "stream " << s.index;
  }
  spec.critical_every = 0;
  for (const auto& s : spec.materialize()) EXPECT_FALSE(s.critical);
  spec.critical_every = 1;
  for (const auto& s : spec.materialize()) EXPECT_TRUE(s.critical);
}

TEST(FleetSpec, PlacementRequestShape) {
  FleetSpec spec;
  spec.streams = 4;
  const auto streams = spec.materialize();
  const auto request = build_placement_request(spec, streams);
  // Streams 0 and 2 critical (4 processes), 1 and 3 plain pipelines (3).
  ASSERT_EQ(request.processes.size(), 4u + 3u + 4u + 3u);
  // Each critical stream contributes exactly one anti-affine replica pair.
  std::set<int> groups;
  int group_members = 0;
  for (const auto& process : request.processes) {
    if (process.anti_affinity_group >= 0) {
      groups.insert(process.anti_affinity_group);
      ++group_members;
    }
  }
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(group_members, 4);
  // Every FIFO demand is accounted in MPB bytes somewhere.
  std::size_t total_mpb = 0;
  for (const auto& process : request.processes) total_mpb += process.mpb_bytes;
  EXPECT_GT(total_mpb, 0u);
  // And the request must actually place.
  const auto placement = scc::place_fleet(request);
  EXPECT_EQ(placement.process_to_core.size(), request.processes.size());
}

TEST(Fleet, SmallRunMeetsPaperGuarantees) {
  FleetSpec spec;
  spec.streams = 4;
  const auto result = run_fleet(spec, quick_options());
  ASSERT_EQ(result.streams.size(), 4u);
  EXPECT_GT(result.events_processed, 0u);
  EXPECT_EQ(result.simulated_ns, quick_options().run_length);
  EXPECT_GE(result.tiles_used, 1);
  EXPECT_LE(result.max_tile_mpb_used,
            static_cast<std::size_t>(scc::kMpbBytesPerTile));
  for (const auto& stream : result.streams) {
    EXPECT_GT(stream.tokens_consumed, 0u) << "stream " << stream.index;
    EXPECT_GT(stream.achieved_rate_hz, 0.0) << "stream " << stream.index;
    EXPECT_FALSE(stream.sequence_gap) << "stream " << stream.index;
    EXPECT_FALSE(stream.false_conviction) << "stream " << stream.index;
    if (stream.critical) {
      // The injected silence must be caught within the Eq. (6)-(8) bound.
      EXPECT_TRUE(stream.detected) << "stream " << stream.index;
      ASSERT_TRUE(stream.detection_latency.has_value())
          << "stream " << stream.index;
      EXPECT_GT(stream.detection_bound, 0);
      EXPECT_LE(*stream.detection_latency, stream.detection_bound)
          << "stream " << stream.index;
      // Designed Eq. (3)/(5) capacities were published.
      EXPECT_GT(stream.replicator_capacity, 0u);
      EXPECT_GT(stream.selector_capacity, 0u);
    }
  }
}

TEST(Fleet, RunIsDeterministic) {
  FleetSpec spec;
  spec.streams = 4;
  spec.seed = 9;
  const auto a = run_fleet(spec, quick_options());
  const auto b = run_fleet(spec, quick_options());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.placement_cost, b.placement_cost);
  EXPECT_EQ(a.noc_contention_stalls, b.noc_contention_stalls);
  EXPECT_EQ(a.max_link_busy_ns, b.max_link_busy_ns);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(a.streams[i].tokens_consumed, b.streams[i].tokens_consumed);
    EXPECT_EQ(a.streams[i].detection_latency, b.streams[i].detection_latency);
    EXPECT_EQ(a.streams[i].restarts, b.streams[i].restarts);
    EXPECT_EQ(a.streams[i].replicator_max_fill, b.streams[i].replicator_max_fill);
    EXPECT_EQ(a.streams[i].selector_max_fill, b.streams[i].selector_max_fill);
    EXPECT_EQ(a.streams[i].upper_violations, b.streams[i].upper_violations);
    EXPECT_EQ(a.streams[i].lower_violations, b.streams[i].lower_violations);
  }
}

TEST(Fleet, SharedPoolGatesRestartsAcrossStreams) {
  // Two critical streams, one shared restart token: the first detection wins
  // the restart, the second supervisor finds the pool dry and degrades its
  // replica instead of restarting it.
  FleetSpec spec;
  spec.streams = 4;  // streams 0 and 2 critical
  spec.shared_restart_budget = 1;
  const auto result = run_fleet(spec, quick_options());
  EXPECT_EQ(result.pool_capacity, 1);
  EXPECT_EQ(result.pool_used, 1);
  int restarted = 0, degraded = 0;
  for (const auto& stream : result.streams) {
    if (!stream.critical) continue;
    EXPECT_TRUE(stream.detected) << "stream " << stream.index;
    if (stream.restarts > 0) ++restarted;
    if (stream.degraded) ++degraded;
  }
  EXPECT_EQ(restarted, 1);
  EXPECT_GE(degraded, 1);

  // With an ample pool both streams restart and nothing degrades.
  spec.shared_restart_budget = 8;
  const auto rich = run_fleet(spec, quick_options());
  EXPECT_EQ(rich.pool_capacity, 8);
  for (const auto& stream : rich.streams) {
    if (stream.critical) {
      EXPECT_FALSE(stream.degraded) << stream.index;
    }
  }
}

TEST(FleetSpec, ExplicitProtectionMatchesLegacyDerivation) {
  // protection = {2,1,2,1} must be indistinguishable from the default
  // critical_every = 2 mapping: same envelopes, same criticality, same
  // placement request.
  FleetSpec legacy;
  legacy.streams = 4;
  FleetSpec explicit_spec = legacy;
  explicit_spec.protection = {2, 1, 2, 1};
  const auto a = legacy.materialize();
  const auto b = explicit_spec.materialize();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].critical, b[i].critical);
    EXPECT_EQ(a[i].protection, b[i].protection);
    EXPECT_EQ(a[i].producer, b[i].producer);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  const auto ra = build_placement_request(legacy, a);
  const auto rb = build_placement_request(explicit_spec, b);
  ASSERT_EQ(ra.processes.size(), rb.processes.size());
  for (std::size_t i = 0; i < ra.processes.size(); ++i) {
    EXPECT_EQ(ra.processes[i].name, rb.processes[i].name);
    EXPECT_EQ(ra.processes[i].mpb_bytes, rb.processes[i].mpb_bytes);
  }
}

TEST(FleetSpec, ProtectionOutOfRangeNamesStreamAndLevel) {
  FleetSpec spec;
  spec.streams = 3;
  spec.protection = {2, 5, 1};
  try {
    (void)spec.materialize();
    FAIL() << "protection 5 accepted";
  } catch (const util::ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("stream 1"), std::string::npos) << what;
    EXPECT_NE(what.find("got 5"), std::string::npos) << what;
  }
}

TEST(FleetSpec, MixedProtectionPlacementShape) {
  FleetSpec spec;
  spec.streams = 4;
  spec.protection = {3, 1, 2, 1};
  const auto streams = spec.materialize();
  EXPECT_EQ(streams[0].protection, 3);
  EXPECT_TRUE(streams[0].critical);
  EXPECT_EQ(streams[1].protection, 1);
  EXPECT_FALSE(streams[1].critical);
  const auto request = build_placement_request(spec, streams);
  // Stream 0: producer + 3 replicas + consumer; 1 and 3 plain (3 each);
  // 2 duplicated (4).
  ASSERT_EQ(request.processes.size(), 5u + 3u + 4u + 3u);
  int group_members = 0;
  std::set<int> groups;
  for (const auto& process : request.processes) {
    if (process.anti_affinity_group >= 0) {
      groups.insert(process.anti_affinity_group);
      ++group_members;
    }
  }
  EXPECT_EQ(groups.size(), 2u);  // stream 0's triple + stream 2's pair
  EXPECT_EQ(group_members, 5);
  const auto placement = scc::place_fleet(request);
  EXPECT_EQ(placement.process_to_core.size(), request.processes.size());
}

TEST(Fleet, MixedProtectionRunSurvivesInjectedSilence) {
  FleetSpec spec;
  spec.streams = 4;
  spec.protection = {3, 1, 2, 1};
  const auto result = run_fleet(spec, quick_options());
  ASSERT_EQ(result.streams.size(), 4u);
  for (const auto& stream : result.streams) {
    EXPECT_GT(stream.tokens_consumed, 0u) << "stream " << stream.index;
    EXPECT_FALSE(stream.sequence_gap) << "stream " << stream.index;
    EXPECT_FALSE(stream.false_conviction) << "stream " << stream.index;
  }
  const auto& vote = result.streams[0];
  EXPECT_EQ(vote.protection, 3);
  // The N = 3 rig catches the injected silence without any supervisor,
  // within its Eq. (6)-(8) bound, and keeps the stream whole on the
  // surviving majority.
  EXPECT_TRUE(vote.detected);
  ASSERT_TRUE(vote.detection_latency.has_value());
  EXPECT_GT(vote.detection_bound, 0);
  EXPECT_LE(*vote.detection_latency, vote.detection_bound);
  EXPECT_EQ(vote.restarts, 0);
  EXPECT_TRUE(vote.degraded);
  const auto& pair = result.streams[2];
  EXPECT_EQ(pair.protection, 2);
  EXPECT_TRUE(pair.detected);
}

FleetSpec mixed_fleet() {
  FleetSpec spec;
  spec.streams = 5;
  spec.protection = {3, 1, 2, 1, 4};
  return spec;
}

TEST(FleetSpec, MixedProtectionPlacementRequestPinned) {
  // The full request, in order: placement is greedy over process and edge
  // order, so names, MPB demands, anti-affinity groups and the edge sequence
  // are all part of the contract. Pair replicas hold |R_i| and the consumer
  // both |S_i|; vote replicas hold |R_i| + |S_i| (vote floor applied) and
  // the consumer nothing.
  const FleetSpec spec = mixed_fleet();
  const auto request = build_placement_request(spec, spec.materialize());
  const std::vector<scc::PlacementProcess> processes{
      {"s0.producer", 0, -1, 0},    {"s0.r1", 0, 0, 8192},
      {"s0.r2", 0, 0, 8192},        {"s0.r3", 0, 0, 8192},
      {"s0.consumer", 0, -1, 0},    {"s1.producer", 1, -1, 0},
      {"s1.worker", 1, -1, 2048},   {"s1.consumer", 1, -1, 2048},
      {"s2.producer", 2, -1, 0},    {"s2.r1", 2, 2, 2048},
      {"s2.r2", 2, 2, 2048},        {"s2.consumer", 2, -1, 8192},
      {"s3.producer", 3, -1, 0},    {"s3.worker", 3, -1, 2048},
      {"s3.consumer", 3, -1, 2048}, {"s4.producer", 4, -1, 0},
      {"s4.r1", 4, 4, 8192},        {"s4.r2", 4, 4, 8192},
      {"s4.r3", 4, 4, 8192},        {"s4.r4", 4, 4, 8192},
      {"s4.consumer", 4, -1, 0}};
  ASSERT_EQ(request.processes.size(), processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    EXPECT_EQ(request.processes[i].name, processes[i].name) << i;
    EXPECT_EQ(request.processes[i].stream, processes[i].stream) << i;
    EXPECT_EQ(request.processes[i].anti_affinity_group,
              processes[i].anti_affinity_group) << i;
    EXPECT_EQ(request.processes[i].mpb_bytes, processes[i].mpb_bytes) << i;
  }
  const std::vector<scc::TrafficEdge> edges{
      {0, 1, 173056},   {1, 4, 173056},   {0, 2, 173056},   {2, 4, 173056},
      {0, 3, 173056},   {3, 4, 173056},   {5, 6, 185344},   {6, 7, 185344},
      {8, 9, 206848},   {8, 10, 206848},  {9, 11, 206848},  {10, 11, 206848},
      {12, 13, 251904}, {13, 14, 251904}, {15, 16, 282624}, {16, 20, 282624},
      {15, 17, 282624}, {17, 20, 282624}, {15, 18, 282624}, {18, 20, 282624},
      {15, 19, 282624}, {19, 20, 282624}};
  ASSERT_EQ(request.edges.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(request.edges[i].from_process, edges[i].from_process) << i;
    EXPECT_EQ(request.edges[i].to_process, edges[i].to_process) << i;
    EXPECT_EQ(request.edges[i].bytes_per_period, edges[i].bytes_per_period) << i;
  }
  EXPECT_EQ(request.max_processes_per_core, 0);
}

TEST(Fleet, MixedProtectionSizingPinned) {
  // Designed capacities and detection bounds each stream reports: the
  // largest |R_i|, the sum of the |S_i| the selector was built with (vote
  // floor included at N >= 3), and min(overflow, selector) Eq. (6)-(8)
  // bound. Plain pipelines report their Eq. (3) FIFO and no bound.
  const auto result = run_fleet(mixed_fleet(), quick_options());
  struct Expected {
    rtc::Tokens replicator_capacity;
    rtc::Tokens selector_capacity;
    rtc::TimeNs detection_bound;
  };
  const std::vector<Expected> expected{{2, 18, 18'448'256},
                                       {2, 2, 0},
                                       {2, 8, 15'427'140},
                                       {2, 2, 0},
                                       {2, 24, 11'309'928}};
  ASSERT_EQ(result.streams.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.streams[i].replicator_capacity, expected[i].replicator_capacity) << i;
    EXPECT_EQ(result.streams[i].selector_capacity, expected[i].selector_capacity) << i;
    EXPECT_EQ(result.streams[i].detection_bound, expected[i].detection_bound) << i;
  }
}

TEST(Fleet, OversubscribedFleetThrowsPlacementError) {
  FleetSpec spec;
  spec.streams = 96;
  EXPECT_THROW((void)run_fleet(spec, quick_options()), scc::PlacementError);
}

}  // namespace
}  // namespace sccft::ft
