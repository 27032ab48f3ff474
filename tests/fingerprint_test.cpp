// Golden-fingerprint determinism pins: exact simulator event counts and
// output CRCs for one run of each campaign rig, captured on the pre-refactor
// (binary-heap + std::function) kernel. The DES-kernel rewrite must preserve
// the (time, seq) total order exactly — any silent event reorder, extra wake,
// or dropped schedule shows up here as a changed event count or stream CRC
// long before the (slower) campaign-determinism CI lane runs.
//
// The pinned values are part of the kernel's compatibility contract: a PR
// that changes them is changing simulation semantics and must say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"
#include "ft/fleet.hpp"
#include "util/crc32.hpp"
#include "vuln/profile.hpp"
#include "vuln/profiler.hpp"

namespace sccft {
namespace {

/// Folds a vector of integers into a running CRC-32, little-endian per value,
/// so stream fingerprints are one number per run.
template <typename T>
std::uint32_t crc_fold(const std::vector<T>& values, std::uint32_t seed = 0) {
  std::uint32_t crc = seed;
  for (const T& value : values) {
    std::uint8_t bytes[sizeof(T)];
    auto v = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    crc = util::crc32(std::span<const std::uint8_t>(bytes, sizeof(T)), crc);
  }
  return crc;
}

TEST(Fingerprint, Table2AdpcmFaultFreeRun) {
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  apps::ExperimentOptions options;
  options.seed = 1;
  options.run_periods = 240;
  const auto result = runner.run(options);

  EXPECT_EQ(result.events_processed, 2694u);
  EXPECT_EQ(result.consumer_tokens, 239u);
  EXPECT_EQ(crc_fold(result.output_checksums), 1353322099u);
}

TEST(Fingerprint, FaultCampaignSilenceRun) {
  apps::ExperimentRunner runner(apps::adpcm::make_application());
  apps::ExperimentOptions options;
  options.seed = 1;
  options.run_periods = 240;
  options.fault_after_periods = 150;
  options.inject_fault = true;
  options.faulty_replica = ft::ReplicaIndex::kReplica1;
  options.fault_mode = ft::FaultMode::kSilence;
  const auto result = runner.run(options);

  EXPECT_TRUE(result.any_detection);
  EXPECT_FALSE(result.false_positive);
  EXPECT_EQ(result.events_processed, 2257u);
  EXPECT_EQ(result.consumer_tokens, 239u);
  // The healthy replica covers the stream: same output as the fault-free run.
  EXPECT_EQ(crc_fold(result.output_checksums), 1353322099u);
}

TEST(Fingerprint, ChaosStormRun) {
  chaos::StormGenerator generator;
  const chaos::StormPlan plan = generator.generate(1);
  const chaos::RunObservation obs = chaos::run_storm(plan);

  ASSERT_FALSE(obs.contract_violation.has_value());
  EXPECT_EQ(obs.events_processed, 1253u);
  EXPECT_EQ(obs.consumed_seqs.size(), 199u);
  EXPECT_EQ(crc_fold(obs.consumed_seqs), 912480545u);
  EXPECT_EQ(crc_fold(obs.consumed_fingerprints), 1813323357u);
}

TEST(Fingerprint, ChaosControlPlaneStormRun) {
  // Watchdog and scrubber armed: seed 13 trips the per-tile watchdog and
  // repairs counter flips, so the replica loops' heartbeat kicks and the
  // supervisor's self-watchdog both shape the schedule.
  chaos::StormConfig config;
  config.control_plane = true;
  const chaos::StormPlan plan = chaos::StormGenerator(config).generate(13);
  chaos::RunOptions options;
  options.control_plane.enabled = true;
  const chaos::RunObservation obs = chaos::run_storm(plan, options);

  ASSERT_FALSE(obs.contract_violation.has_value());
  EXPECT_EQ(obs.events_processed, 1617u);
  EXPECT_EQ(crc_fold(obs.consumed_seqs), 912480545u);
  EXPECT_EQ(crc_fold(obs.consumed_fingerprints), 1813323357u);
  EXPECT_EQ(obs.watchdog_resets, 9u);
  EXPECT_EQ(obs.heartbeats, 80u);
  EXPECT_EQ(obs.scrub_repairs, 15u);
}

TEST(Fingerprint, ChaosReconfigureStormRun) {
  chaos::StormConfig config;
  config.reconfigure = true;
  const chaos::StormPlan plan = chaos::StormGenerator(config).generate(4);
  chaos::RunOptions options;
  options.reconfig.enabled = true;
  const chaos::RunObservation obs = chaos::run_storm(plan, options);

  ASSERT_FALSE(obs.contract_violation.has_value());
  EXPECT_EQ(obs.events_processed, 1296u);
  EXPECT_EQ(crc_fold(obs.consumed_seqs), 912480545u);
  EXPECT_EQ(crc_fold(obs.consumed_fingerprints), 1813323357u);
  EXPECT_EQ(obs.reconfig_windows, 7u);
}

TEST(Fingerprint, MixedProtectionFleetRun) {
  // One stream per protection level (3, 1, 2, 1, 4), each protected stream
  // losing replica 1 to a transient silence.
  ft::FleetSpec spec;
  spec.streams = 5;
  spec.protection = {3, 1, 2, 1, 4};
  const ft::FleetRunResult result = ft::run_fleet(spec);

  EXPECT_EQ(result.events_processed, 4053u);
  std::vector<std::uint64_t> consumed;
  std::vector<rtc::TimeNs> latency;
  std::vector<int> restarts;
  for (const ft::FleetStreamOutcome& stream : result.streams) {
    consumed.push_back(stream.tokens_consumed);
    latency.push_back(stream.detection_latency.value_or(-1));
    restarts.push_back(stream.restarts);
  }
  EXPECT_EQ(consumed, (std::vector<std::uint64_t>{101, 108, 121, 147, 165}));
  EXPECT_EQ(latency, (std::vector<rtc::TimeNs>{15567232, -1, 13322438, -1, 9560480}));
  EXPECT_EQ(restarts, (std::vector<int>{0, 0, 1, 0, 0}));
}

// --- N >= 3 payload-vote rig ---------------------------------------------
// Event counts, delivered streams, vote counters and channel convictions of
// the unsupervised vote rig, plus one vote-rig vulnerability profile.

/// Everything the N-replica pins compare, one struct per run.
struct NStormPin {
  std::uint64_t events = 0;
  std::size_t consumed = 0;
  std::uint32_t seq_crc = 0;
  std::uint32_t fingerprint_crc = 0;
  std::uint64_t vote_conflicts = 0;
  std::uint64_t votes_outvoted = 0;
  /// (replica, rule, detected_at) of every channel conviction, in order.
  std::uint32_t detection_crc = 0;
  std::size_t detections = 0;
};

NStormPin pin_n_storm(const chaos::StormPlan& plan,
                      chaos::RunOptions options = {.nreplica = 3}) {
  const chaos::RunObservation obs = chaos::run_storm(plan, options);
  EXPECT_FALSE(obs.contract_violation.has_value());
  std::vector<std::int64_t> detections;
  for (const auto& d : obs.n_detections) {
    detections.push_back(static_cast<int>(d.replica));
    detections.push_back(static_cast<int>(d.rule));
    detections.push_back(d.detected_at);
  }
  return NStormPin{obs.events_processed,
                   obs.consumed_seqs.size(),
                   crc_fold(obs.consumed_seqs),
                   crc_fold(obs.consumed_fingerprints),
                   obs.vote_conflicts,
                   obs.votes_outvoted,
                   crc_fold(detections),
                   obs.n_detections.size()};
}

chaos::StormPlan n_storm_plan(std::uint64_t seed) {
  chaos::StormConfig config;
  config.nreplica = 3;
  config.allow_noc = false;
  return chaos::StormGenerator(config).generate(seed);
}

void expect_pin(const NStormPin& got, const NStormPin& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.consumed, want.consumed);
  EXPECT_EQ(got.seq_crc, want.seq_crc);
  EXPECT_EQ(got.fingerprint_crc, want.fingerprint_crc);
  EXPECT_EQ(got.vote_conflicts, want.vote_conflicts);
  EXPECT_EQ(got.votes_outvoted, want.votes_outvoted);
  EXPECT_EQ(got.detection_crc, want.detection_crc);
  EXPECT_EQ(got.detections, want.detections);
}

TEST(Fingerprint, NReplicaStormRunSeed1) {
  expect_pin(pin_n_storm(n_storm_plan(1)),
             NStormPin{1456, 199, 912480545u, 1813323357u, 0, 0, 4009386918u, 2});
}

TEST(Fingerprint, NReplicaStormRunSeed2) {
  expect_pin(pin_n_storm(n_storm_plan(2)),
             NStormPin{1583, 199, 912480545u, 1813323357u, 0, 0, 1162143547u, 2});
}

TEST(Fingerprint, NReplicaStormRunSeed3) {
  expect_pin(pin_n_storm(n_storm_plan(3)),
             NStormPin{1503, 199, 912480545u, 1813323357u, 0, 0, 889649471u, 2});
}

TEST(Fingerprint, NReplicaStormRunFourReplicas) {
  chaos::StormConfig config;
  config.nreplica = 4;
  config.allow_noc = false;
  const chaos::StormPlan plan = chaos::StormGenerator(config).generate(1);
  chaos::RunOptions options;
  options.nreplica = 4;
  expect_pin(pin_n_storm(plan, options), NStormPin{1884, 199, 912480545u, 1813323357u, 0, 0, 59147446u, 2});
}

TEST(Fingerprint, NReplicaPayloadCorruptionRun) {
  // CRC-visible corruption of replica 2 plus a silent (re-stamped) corruption
  // of replica 3: the CRC rule quarantines the first, the vote the second.
  chaos::StormPlan plan;
  plan.seed = 7;
  plan.run_length = rtc::from_sec(2.0);
  ft::FaultSpec visible;
  visible.kind = ft::FaultKind::kPayloadCorruption;
  visible.victim = 2;
  visible.at = rtc::from_ms(300.0);
  visible.duration = rtc::from_ms(600.0);
  visible.corrupt_probability = 0.5;
  visible.seed = 11;
  plan.faults.push_back(visible);
  ft::FaultSpec silent = visible;
  silent.kind = ft::FaultKind::kSilentCorruption;
  silent.victim = 3;
  silent.at = rtc::from_ms(1100.0);
  silent.seed = 12;
  plan.faults.push_back(silent);
  expect_pin(pin_n_storm(plan),
             NStormPin{1691, 199, 912480545u, 924894064u, 31, 0, 579127039u, 1});
}

TEST(Fingerprint, NReplicaSilentCorruptionOutvotedRun) {
  // A silent corruption while all three replicas are live: the majority
  // out-votes the corrupted copy and convicts its replica.
  chaos::StormPlan plan;
  plan.seed = 9;
  plan.run_length = rtc::from_sec(2.0);
  ft::FaultSpec silent;
  silent.kind = ft::FaultKind::kSilentCorruption;
  silent.victim = 1;
  silent.at = rtc::from_ms(300.0);
  silent.duration = rtc::from_ms(600.0);
  silent.corrupt_probability = 0.5;
  silent.seed = 13;
  plan.faults.push_back(silent);
  expect_pin(pin_n_storm(plan),
             NStormPin{1697, 199, 912480545u, 1813323357u, 0, 1, 684894933u, 1});
}

TEST(Fingerprint, VulnProfileVoteRig) {
  vuln::Application app;
  app.name = "pin";
  vuln::ProcessSpec spec;
  spec.name = "ledger";
  spec.sensitivity_mask = 0xff;
  spec.deadline_slack = rtc::from_ms(80.0);
  spec.producer = rtc::PJD::from_ms(10, 1, 10);
  spec.stage = rtc::PJD::from_ms(10, 2, 10);
  spec.consumer = rtc::PJD::from_ms(10, 1, 10);
  spec.seed = 0xC0FFEE;
  app.processes.push_back(spec);
  vuln::ProfilerOptions options;
  options.trials_per_cell = 2;
  options.protections = {3};
  options.seed = 1;
  const std::string text = vuln::to_text(vuln::profile_application(app, options));
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()), text.size())),
            271437160u);
}

}  // namespace
}  // namespace sccft
