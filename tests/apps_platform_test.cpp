// Integration tests for the experiment engine's platform path: process
// mapping, NoC effects, and cross-configuration result invariance.
#include <gtest/gtest.h>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/mjpeg/app.hpp"
#include "scc/mapping.hpp"

namespace sccft::apps {
namespace {

TEST(PlatformIntegration, OutputIdenticalWithAndWithoutNoc) {
  // The NoC adds microsecond-scale latencies; token VALUES must be identical
  // either way (determinacy), and the consumer's millisecond-scale timing
  // statistics nearly so.
  ExperimentRunner runner(adpcm::make_application());
  ExperimentOptions options;
  options.seed = 11;
  options.run_periods = 60;

  options.use_platform = true;
  const auto with_noc = runner.run(options);
  options.use_platform = false;
  const auto without = runner.run(options);

  EXPECT_EQ(with_noc.output_checksums, without.output_checksums);
  ASSERT_FALSE(with_noc.consumer_interarrival_ms.empty());
  EXPECT_NEAR(with_noc.consumer_interarrival_ms.mean(),
              without.consumer_interarrival_ms.mean(), 0.1);
}

TEST(PlatformIntegration, NocContentionObservedOnLargeTokens) {
  // The MJPEG decoded frames (76.8 KB in <= 3 KiB chunks) genuinely traverse
  // the modelled mesh: contention stalls occur and are reported.
  ExperimentRunner runner(mjpeg::make_application());
  ExperimentOptions options;
  options.seed = 1;
  options.run_periods = 30;
  const auto result = runner.run(options);
  EXPECT_GT(result.noc_contention_stalls, 0u);
}

TEST(PlatformIntegration, MappingUsesDistinctTiles) {
  // The low-contention mapper must place each of the duplicated MJPEG
  // network's 10 processes on its own tile (paper: one process per tile).
  std::vector<scc::TrafficEdge> edges{{0, 1, 1000}, {1, 2, 1000}, {2, 3, 1000},
                                      {0, 4, 1000}, {4, 5, 1000}, {5, 3, 1000}};
  const auto mapping = scc::map_low_contention(10, edges);
  std::vector<int> tiles;
  for (const auto core : mapping.process_to_core) tiles.push_back(core.tile().value);
  std::sort(tiles.begin(), tiles.end());
  EXPECT_EQ(std::adjacent_find(tiles.begin(), tiles.end()), tiles.end());
}

TEST(PlatformIntegration, HeavyEdgesMappedAdjacent) {
  // Producer->replica-head edges carry the big tokens; after mapping, the
  // heaviest pair should sit within a couple of hops.
  std::vector<scc::TrafficEdge> edges{{0, 1, 1'000'000}, {0, 2, 10}};
  const auto mapping = scc::map_low_contention(3, edges);
  const int heavy_hops = scc::hop_count(mapping.process_to_core[0].tile(),
                                        mapping.process_to_core[1].tile());
  EXPECT_LE(heavy_hops, 2);
}

TEST(PlatformIntegration, SeedChangesTimingNotValues) {
  ExperimentRunner runner(adpcm::make_application());
  ExperimentOptions options;
  options.run_periods = 60;
  options.seed = 1;
  const auto a = runner.run(options);
  options.seed = 2;
  const auto b = runner.run(options);
  // Same data stream (values are seed-independent)...
  EXPECT_EQ(a.output_checksums, b.output_checksums);
  // ...but different jitter draws.
  EXPECT_NE(a.consumer_interarrival_ms.samples(), b.consumer_interarrival_ms.samples());
}

TEST(PlatformIntegration, LongRunRemainsStable) {
  // 1000 periods (~6.3 s simulated): no false positives, no drift-induced
  // stalls, fills still within capacity.
  ExperimentRunner runner(adpcm::make_application());
  ExperimentOptions options;
  options.seed = 5;
  options.run_periods = 1'000;
  const auto result = runner.run(options);
  EXPECT_FALSE(result.any_detection);
  EXPECT_LE(result.fill_r2, result.sizing.replicator_capacity[1]);
  EXPECT_GT(result.output_checksums.size(), 980u);
}

}  // namespace
}  // namespace sccft::apps
