// SCC platform model tests: topology, XY routing, NoC latency/contention,
// low-contention mapping, clock synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "scc/mapping.hpp"
#include "scc/noc.hpp"
#include "scc/platform.hpp"
#include "scc/topology.hpp"
#include "util/assert.hpp"

namespace sccft::scc {
namespace {

TEST(Topology, Dimensions) {
  EXPECT_EQ(kTileCount, 24);
  EXPECT_EQ(kCoreCount, 48);
  EXPECT_EQ(TileId::at(5, 3).value, 23);
  EXPECT_EQ(CoreId{47}.tile().value, 23);
  EXPECT_EQ(CoreId{47}.local_index(), 1);
}

TEST(Topology, HopCountIsManhattan) {
  EXPECT_EQ(hop_count(TileId::at(0, 0), TileId::at(0, 0)), 0);
  EXPECT_EQ(hop_count(TileId::at(0, 0), TileId::at(5, 3)), 8);
  EXPECT_EQ(hop_count(TileId::at(2, 1), TileId::at(4, 1)), 2);
}

TEST(Topology, XyRouteGoesXThenY) {
  const auto route = xy_route(TileId::at(1, 1), TileId::at(3, 3));
  ASSERT_EQ(route.size(), 5u);  // 2 x-hops + 2 y-hops + origin
  EXPECT_EQ(route[0], TileId::at(1, 1));
  EXPECT_EQ(route[1], TileId::at(2, 1));
  EXPECT_EQ(route[2], TileId::at(3, 1));
  EXPECT_EQ(route[3], TileId::at(3, 2));
  EXPECT_EQ(route[4], TileId::at(3, 3));
}

TEST(Topology, LinkIndexUniquePerDirectedLink) {
  std::vector<int> seen;
  for (int t = 0; t < kTileCount; ++t) {
    const TileId from{t};
    for (const auto& [dc, dr] : {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
      const int col = from.column() + dc;
      const int row = from.row() + dr;
      if (col < 0 || col >= kMeshColumns || row < 0 || row >= kMeshRows) continue;
      const int idx = link_index(Link{from, TileId::at(col, row)});
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, kLinkTableSize);
      seen.push_back(idx);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Topology, NonAdjacentLinkRejected) {
  EXPECT_THROW((void)link_index(Link{TileId::at(0, 0), TileId::at(2, 0)}),
               util::ContractViolation);
}

TEST(Noc, LatencyGrowsWithDistance) {
  NocModel noc;
  const auto near = noc.estimate_latency(CoreId{0}, CoreId{2}, 1024);
  const auto far = noc.estimate_latency(CoreId{0}, CoreId{46}, 1024);
  EXPECT_GT(far, near);
}

TEST(Noc, LatencyGrowsWithSize) {
  NocModel noc;
  const auto small = noc.estimate_latency(CoreId{0}, CoreId{10}, 512);
  const auto large = noc.estimate_latency(CoreId{0}, CoreId{10}, 64 * 1024);
  EXPECT_GT(large, 10 * (small - noc.config().software_overhead_ns));
}

TEST(Noc, ChunkingAtThreeKib) {
  NocModel noc;
  noc = NocModel{};
  (void)noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024, 0);
  EXPECT_EQ(noc.chunks_sent(), 1u);
  (void)noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024 + 1, 0);
  EXPECT_EQ(noc.chunks_sent(), 3u);  // +2
  (void)noc.transfer(CoreId{0}, CoreId{10}, 9 * 1024, 0);
  EXPECT_EQ(noc.chunks_sent(), 6u);  // +3
}

TEST(Noc, ContentionDelaysSharedLink) {
  NocConfig config;
  config.model_contention = true;
  NocModel noc(config);
  // Two same-start transfers crossing the same links: second is delayed.
  const auto first = noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024, 0);
  const auto second = noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024, 0);
  EXPECT_GT(second, first);
  EXPECT_GT(noc.contention_stalls(), 0u);

  NocConfig ideal = config;
  ideal.model_contention = false;
  NocModel free_noc(ideal);
  const auto a = free_noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024, 0);
  const auto b = free_noc.transfer(CoreId{0}, CoreId{10}, 3 * 1024, 0);
  EXPECT_EQ(a, b);
}

TEST(Noc, SameTileTransferSkipsMesh) {
  NocModel noc;
  const auto same = noc.estimate_latency(CoreId{0}, CoreId{1}, 1024);  // same tile
  const auto cross = noc.estimate_latency(CoreId{0}, CoreId{2}, 1024);
  EXPECT_LT(same, cross);
}

TEST(Mapping, OneProcessPerTile) {
  const auto mapping = map_low_contention(10, {});
  std::vector<int> tiles;
  for (const auto core : mapping.process_to_core) {
    tiles.push_back(core.tile().value);
  }
  std::sort(tiles.begin(), tiles.end());
  EXPECT_EQ(std::adjacent_find(tiles.begin(), tiles.end()), tiles.end());
}

TEST(Mapping, LowContentionBeatsRowMajor) {
  // A chain topology: 0 -> 1 -> 2 -> ... -> 9, heavy traffic.
  std::vector<TrafficEdge> edges;
  for (int i = 0; i + 1 < 10; ++i) {
    edges.push_back({i, i + 1, 1'000'000});
  }
  const auto smart = map_low_contention(10, edges);
  const auto naive = map_row_major(10);
  EXPECT_LE(smart.cost(edges), naive.cost(edges));
  // Adjacent chain stages should sit on adjacent tiles (cost = sum of hops =
  // 9 edges * 1 hop in the optimum).
  EXPECT_LE(smart.cost(edges) / 1'000'000, 12u);
}

TEST(Mapping, Deterministic) {
  std::vector<TrafficEdge> edges{{0, 1, 10}, {1, 2, 20}, {2, 3, 5}};
  const auto a = map_low_contention(4, edges);
  const auto b = map_low_contention(4, edges);
  for (std::size_t i = 0; i < a.process_to_core.size(); ++i) {
    EXPECT_EQ(a.process_to_core[i], b.process_to_core[i]);
  }
}

TEST(Mapping, RejectsTooManyProcesses) {
  EXPECT_THROW(map_low_contention(kTileCount + 1, {}), util::ContractViolation);
}

// Regression: a request for more processes than tiles (or a non-positive
// count) must die with the offending count and the valid range in the
// message, not a bare `cond` string.
TEST(Mapping, TooManyProcessesDiagnosticNamesTheCounts) {
  for (const int bad : {0, -3, kTileCount + 1, 1000}) {
    try {
      (void)map_low_contention(bad, {});
      FAIL() << "accepted process_count " << bad;
    } catch (const util::ContractViolation& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(kTileCount)), std::string::npos)
          << what;
    }
    EXPECT_THROW(map_row_major(bad), util::ContractViolation);
  }
}

// Regression: a TrafficEdge naming a process outside [0, process_count) must
// be rejected up front with the edge's endpoints in the message — it used to
// index the traffic matrix out of bounds in release builds.
TEST(Mapping, OutOfRangeEdgeDiagnosticNamesTheEdge) {
  const std::vector<TrafficEdge> edges{{0, 7, 100}};
  try {
    (void)map_low_contention(3, edges);
    FAIL() << "accepted out-of-range edge";
  } catch (const util::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("0 -> 7"), std::string::npos) << what;
    EXPECT_NE(what.find("process_count is 3"), std::string::npos) << what;
  }
  EXPECT_THROW((void)map_low_contention(3, {{-1, 1, 5}}),
               util::ContractViolation);
}

TEST(Mapping, CostRejectsOutOfRangeEdge) {
  const auto mapping = map_row_major(4);
  EXPECT_THROW((void)mapping.cost({{0, 4, 10}}), util::ContractViolation);
  EXPECT_THROW((void)mapping.cost({{4, 0, 10}}), util::ContractViolation);
}

TEST(Platform, BootDefaultsMatchPaper) {
  sim::Simulator sim;
  Platform platform(sim);
  EXPECT_DOUBLE_EQ(platform.config().tile_frequency_hz, 533e6);
  EXPECT_DOUBLE_EQ(platform.config().router_frequency_hz, 800e6);
  EXPECT_DOUBLE_EQ(platform.config().ddr_frequency_hz, 800e6);
  EXPECT_FALSE(platform.config().l2_cache_enabled);
  EXPECT_FALSE(platform.config().interrupts_enabled);
}

TEST(Platform, ClockSyncAlignsAllCores) {
  sim::Simulator sim;
  Platform platform(sim);
  sim.schedule_at(5'000'000, [] {});
  sim.run();
  platform.synchronize_clocks();
  for (int c = 0; c < kCoreCount; ++c) {
    EXPECT_NEAR(static_cast<double>(platform.local_time(CoreId{c})),
                static_cast<double>(sim.now()), 3.0)
        << "core " << c;
  }
}

TEST(Platform, UnsyncedClocksDisagree) {
  sim::Simulator sim;
  Platform platform(sim);
  sim.schedule_at(1'000'000, [] {});
  sim.run();
  bool any_off = false;
  for (int c = 0; c < kCoreCount; ++c) {
    if (std::abs(platform.local_time(CoreId{c}) - sim.now()) > 10) any_off = true;
  }
  EXPECT_TRUE(any_off);
}


// Property: the fault-free multi-chunk fast path (one closed-form event for
// the tail of the message) must be indistinguishable from sending the same
// message chunk by chunk — same arrival, same chunk counter, same stall
// counter, and same link reservations left behind. The reference model chains
// single-chunk transfers (each transfer_ex call with bytes <= max_chunk_bytes
// walks the route exactly once), so it exercises the pre-closed-form
// semantics; foreign traffic beforehand seeds contention on shared links.
TEST(Noc, ClosedFormMatchesPerChunkReference) {
  std::mt19937 rng(20140601);  // DAC'14, deterministic
  for (int iteration = 0; iteration < 200; ++iteration) {
    NocConfig config;
    config.software_overhead_ns = 0;  // additive start offset, irrelevant here
    config.model_contention = (iteration % 4) != 3;
    NocModel fast(config);
    NocModel reference(config);

    const auto core = [&] {
      return CoreId{static_cast<int>(rng() % static_cast<unsigned>(kCoreCount))};
    };

    // Foreign traffic: identical pre-load on both models so the message under
    // test may stall on live reservations mid-route.
    const int foreign = static_cast<int>(rng() % 4);
    for (int i = 0; i < foreign; ++i) {
      const CoreId src = core(), dst = core();
      const auto bytes = static_cast<std::size_t>(1 + rng() % (4 * 3 * 1024));
      const auto at = static_cast<TimeNs>(rng() % 2'000);
      (void)fast.transfer(src, dst, bytes, at);
      (void)reference.transfer(src, dst, bytes, at);
    }

    const CoreId src = core(), dst = core();
    const auto bytes =
        static_cast<std::size_t>(1 + rng() % (10 * config.max_chunk_bytes));
    const auto start = static_cast<TimeNs>(2'000 + rng() % 10'000);

    const auto fast_outcome = fast.transfer_ex(src, dst, bytes, start);

    // Reference: the same message, one chunk per call, each chunk departing
    // at the previous chunk's arrival.
    TimeNs t = start;
    std::size_t remaining = bytes;
    while (remaining > 0) {
      const std::size_t chunk = std::min(remaining, config.max_chunk_bytes);
      t = reference.transfer(src, dst, chunk, t);
      remaining -= chunk;
    }

    ASSERT_TRUE(fast_outcome.delivered);
    EXPECT_EQ(fast_outcome.arrival, t)
        << "iteration " << iteration << ": " << bytes << " B "
        << src.value << "->" << dst.value;
    EXPECT_EQ(fast.chunks_sent(), reference.chunks_sent());
    EXPECT_EQ(fast.contention_stalls(), reference.contention_stalls());

    // The reservations the message leaves behind must match too: a probe
    // chunk over the same route arrives at the same instant on both models.
    const TimeNs probe_fast = fast.transfer(src, dst, 64, t);
    const TimeNs probe_reference = reference.transfer(src, dst, 64, t);
    EXPECT_EQ(probe_fast, probe_reference) << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace sccft::scc
