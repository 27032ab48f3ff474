// Tests for the vulnerability-guided selective replication layer (src/vuln/):
// profile/plan text round-trips and malformed-input rejection, the
// fault-injection profiler's class-separation properties (an unprotected
// tight-deadline stream misses deadlines undetected; the N = 3 vote masks the
// silent corruption that escapes the N = 2 pair), shared cost accounting, and
// a pinned regression for the greedy planner on the Table 7 reference
// application.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ft/fault_plan.hpp"
#include "ft/nreplica.hpp"
#include "util/assert.hpp"
#include "vuln/planner.hpp"
#include "vuln/profile.hpp"
#include "vuln/profiler.hpp"
#include "vuln/rig.hpp"

namespace sccft::vuln {
namespace {

VulnerabilityProfile synthetic_profile() {
  VulnerabilityProfile profile;
  profile.seed = 42;
  profile.run_length = rtc::from_sec(2.0);
  profile.trials_per_cell = 4;
  for (int index = 0; index < 2; ++index) {
    ProcessProfile process;
    process.name = index == 0 ? "guidance" : "telemetry0";
    process.index = index;
    for (const ft::FaultKind kind : profiled_kinds()) {
      for (const int protection : {1, 2, 3}) {
        CampaignCell cell;
        cell.kind = kind;
        cell.protection = protection;
        cell.trials = 4;
        cell.injections = 7;
        cell.tokens_delivered = 180;
        cell.corruption_escapes = index == 0 && protection < 3 ? 12 : 0;
        cell.sequence_divergences = protection == 1 ? 3 : 0;
        cell.deadline_misses = index == 0 && protection == 1 ? 21 : 0;
        cell.detections = protection >= 2 ? 5 : 0;
        cell.detection_latency_sum = protection >= 2 ? 93'000'000 : 0;
        cell.detection_latency_count = protection >= 2 ? 4 : 0;
        process.cells.push_back(cell);
      }
    }
    profile.processes.push_back(std::move(process));
  }
  return profile;
}

/// A one-process application of the given class, sharing the reference rig's
/// envelope family so the profiler's storms hit the same timing regime.
Application single_process(const std::string& name, std::uint8_t mask,
                           rtc::TimeNs slack) {
  Application app;
  app.name = "test-" + name;
  ProcessSpec spec;
  spec.name = name;
  spec.index = 0;
  spec.sensitivity_mask = mask;
  spec.deadline_slack = slack;
  spec.producer = rtc::PJD::from_ms(10, 1, 10);
  spec.stage = rtc::PJD::from_ms(10, 2, 10);
  spec.consumer = rtc::PJD::from_ms(10, 1, 10);
  spec.token_bytes = 8;
  spec.seed = 0xC0FFEE;
  app.processes.push_back(std::move(spec));
  return app;
}

// ---------------------------------------------------------------------------
// Text serialization
// ---------------------------------------------------------------------------

TEST(VulnProfileText, RoundTrips) {
  const VulnerabilityProfile profile = synthetic_profile();
  const std::string text = to_text(profile);
  EXPECT_EQ(profile_from_text(text), profile);
  // Stable: serializing the parse reproduces the bytes.
  EXPECT_EQ(to_text(profile_from_text(text)), text);
}

TEST(VulnProfileText, EveryTruncationThrows) {
  // Drop the trailing lines one at a time: every proper prefix of a valid
  // profile must be rejected (the `end` line is load-bearing).
  const std::string text = to_text(synthetic_profile());
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 2u);
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    std::string truncated;
    for (std::size_t i = 0; i < keep; ++i) truncated += lines[i] + "\n";
    EXPECT_THROW((void)profile_from_text(truncated), util::ContractViolation)
        << "kept " << keep << " of " << lines.size() << " lines";
  }
}

TEST(VulnProfileText, MalformedInputThrows) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW((void)profile_from_text(text), util::ContractViolation)
        << text;
  };
  reject("");                                         // no header
  reject("vuln-plan v1\nend\n");                      // wrong header
  reject("vuln-profile v2\nend\n");                   // wrong version
  reject("vuln-profile v1\nbogus 1\nend\n");          // unknown key
  reject("vuln-profile v1\ntrials 0\nend\n");         // trials not positive
  reject("vuln-profile v1\nrun-length -5\nend\n");    // run length negative
  reject("vuln-profile v1\nprocess -1 p\nend\n");     // index negative
  reject("vuln-profile v1\nprocess 0\nend\n");        // name missing
  reject("vuln-profile v1\nseed\nend\n");             // value missing
  // Cell before any process declaration.
  reject("vuln-profile v1\ncell transient-silence 1 1 1 1 0 0 0 0 0 0\nend\n");
  // Unknown fault kind and out-of-range fields.
  reject("vuln-profile v1\nprocess 0 p\ncell gamma-ray 1 1 1 1 0 0 0 0 0 0\nend\n");
  reject("vuln-profile v1\nprocess 0 p\ncell transient-silence 0 1 1 1 0 0 0 0 0 0\nend\n");
  reject("vuln-profile v1\nprocess 0 p\ncell transient-silence 1 -1 1 1 0 0 0 0 0 0\nend\n");
  reject("vuln-profile v1\nprocess 0 p\ncell transient-silence 1 1 1 1 0 0 0 0 -7 0\nend\n");
  reject("vuln-profile v1\nprocess 0 p\ncell transient-silence 1 1 1\nend\n");
  reject("vuln-profile v1\nseed -1\nend\n");             // wraps to 2^64 - 1
  reject("vuln-profile v1\nseed 5x\nend\n");             // trailing garbage
  reject("vuln-profile v1\ntrials 4 9\nend\n");          // trailing field
  reject("vuln-profile v1\ntrials 4294967300\nend\n");   // truncates to 4
}

TEST(VulnProfileText, ErrorsNameTheLineFieldAndValue) {
  try {
    (void)profile_from_text("vuln-profile v1\nseed 1\ntrials 4294967300\nend\n");
    FAIL() << "out-of-range trials accepted";
  } catch (const util::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("trials"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967300"), std::string::npos) << what;
  }
}

TEST(VulnProfileText, SerializeRejectsWhitespaceProcessName) {
  VulnerabilityProfile profile = synthetic_profile();
  profile.processes[0].name = "two words";
  EXPECT_THROW((void)to_text(profile), util::ContractViolation);
  profile.processes[0].name = "";
  EXPECT_THROW((void)to_text(profile), util::ContractViolation);
}

TEST(VulnPlanText, RoundTrips) {
  ProtectionPlan plan;
  plan.budget_extra_cores = 6;
  plan.protection = {1, 1, 1, 1, 2, 2, 3, 3};
  plan.total_cost = ft::ReplicationCost{14, 1024, 28};
  plan.residual_vulnerability = 1.25;
  const std::string text = to_text(plan);
  EXPECT_EQ(plan_from_text(text), plan);
  EXPECT_EQ(to_text(plan_from_text(text)), text);
}

TEST(VulnPlanText, MalformedInputThrows) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW((void)plan_from_text(text), util::ContractViolation) << text;
  };
  reject("");                                        // no header
  reject("vuln-plan v1\n");                          // truncated: no end
  reject("vuln-plan v1\nbudget 3\n");                // truncated: no end
  reject("vuln-plan v1\nbudget -1\nend\n");          // negative budget
  reject("vuln-plan v1\ncost -1 0 0\nend\n");        // negative cores
  reject("vuln-plan v1\nresidual -0.5\nend\n");      // negative residual
  reject("vuln-plan v1\nprotection\nend\n");         // empty protection list
  reject("vuln-plan v1\nprotection 2 0 2\nend\n");   // level < 1
  reject("vuln-plan v1\nshiny 1\nend\n");            // unknown key
  reject("vuln-plan v1\nprotection 2 x 3\nend\n");   // garbage level
  reject("vuln-plan v1\ncost 1 -1 3\nend\n");        // mpb bytes wrap
}

TEST(VulnPlanText, ErrorsNameTheLineFieldAndValue) {
  try {
    (void)plan_from_text("vuln-plan v1\nbudget 2\ncost 1 -1 3\nend\n");
    FAIL() << "negative mpb bytes accepted";
  } catch (const util::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("mpb_bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("'-1'"), std::string::npos) << what;
  }
}

TEST(VulnPlanText, ResidualKeepsSeventeenSignificantDigits) {
  // Bytes of the format as stored plans carry them: "%.17g", not the
  // shortest round-trip form ("0.3333333333333333", "1e-05").
  ProtectionPlan plan;
  plan.budget_extra_cores = 2;
  plan.protection = {1, 3};
  plan.total_cost = ft::ReplicationCost{4, 2048, 8};
  plan.residual_vulnerability = 1.0 / 3;
  EXPECT_EQ(to_text(plan),
            "vuln-plan v1\nbudget 2\ncost 4 2048 8\nresidual 0.33333333333333331\n"
            "protection 1 3\nend\n");
  plan.residual_vulnerability = 1e-05;
  EXPECT_EQ(to_text(plan),
            "vuln-plan v1\nbudget 2\ncost 4 2048 8\nresidual 1.0000000000000001e-05\n"
            "protection 1 3\nend\n");
}

// ---------------------------------------------------------------------------
// Profile queries
// ---------------------------------------------------------------------------

TEST(VulnProfile, VulnerabilityAveragesEscapesPerTrial) {
  const VulnerabilityProfile profile = synthetic_profile();
  // Process 0 at N=1: per kind (12 + 3 + 21) / 4 trials, over 4 kinds.
  EXPECT_DOUBLE_EQ(profile.processes[0].vulnerability(1), 4.0 * 36.0 / 4.0);
  // Process 1 at N=3 has no escapes at all.
  EXPECT_DOUBLE_EQ(profile.processes[1].vulnerability(3), 0.0);
  // Unmeasured level: no cells -> 0.
  EXPECT_DOUBLE_EQ(profile.processes[1].vulnerability(4), 0.0);
}

TEST(VulnProfile, RankingMostVulnerableFirstStableTies) {
  const VulnerabilityProfile profile = synthetic_profile();
  EXPECT_EQ(profile.ranking(), (std::vector<int>{0, 1}));

  // Equal scores keep index order.
  VulnerabilityProfile flat;
  for (int index = 0; index < 3; ++index) {
    ProcessProfile p;
    p.name = "p" + std::to_string(index);
    p.index = index;
    flat.processes.push_back(std::move(p));
  }
  EXPECT_EQ(flat.ranking(), (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Profiler properties (the class axes the rig is built around)
// ---------------------------------------------------------------------------

TEST(VulnProfiler, UnprotectedTightStreamMissesDeadlinesUndetected) {
  // An actuation-class stream (value-insensitive, 80 ms slack) under storms
  // at N = 1: transient outages turn into deadline misses, and with no
  // detection machinery in the pipeline nothing is ever convicted.
  const Application app =
      single_process("actuation", 0x00, rtc::from_ms(80.0));
  ProfilerOptions options;
  options.trials_per_cell = 2;
  options.protections = {1};
  options.seed = 1;
  const VulnerabilityProfile profile = profile_application(app, options);

  const CampaignCell* silence =
      profile.processes[0].cell(ft::FaultKind::kTransientSilence, 1);
  ASSERT_NE(silence, nullptr);
  EXPECT_GT(silence->deadline_misses, 0u);
  EXPECT_EQ(silence->detections, 0u);
  // Value-insensitive: corruption cannot become user-visible damage.
  const CampaignCell* corrupt =
      profile.processes[0].cell(ft::FaultKind::kSilentCorruption, 1);
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->corruption_escapes, 0u);
}

TEST(VulnProfiler, VoteMasksSilentCorruptionThePairOnlyDetectsVisible) {
  // A ledger-class stream (fully value-sensitive, loose slack). Silent
  // corruption re-stamps the checksum, so the N = 2 pair has nothing to
  // convict on and the wrong values escape; the N = 3 payload vote out-votes
  // the single corrupted replica — zero escapes AND a conviction.
  const Application app = single_process("ledger", 0xff, rtc::from_ms(450.0));
  ProfilerOptions options;
  options.trials_per_cell = 2;
  options.protections = {2, 3};
  options.seed = 1;
  const VulnerabilityProfile profile = profile_application(app, options);
  const ProcessProfile& p = profile.processes[0];

  const CampaignCell* silent2 = p.cell(ft::FaultKind::kSilentCorruption, 2);
  const CampaignCell* silent3 = p.cell(ft::FaultKind::kSilentCorruption, 3);
  ASSERT_NE(silent2, nullptr);
  ASSERT_NE(silent3, nullptr);
  EXPECT_GT(silent2->corruption_escapes, 0u);
  EXPECT_EQ(silent3->corruption_escapes, 0u);
  EXPECT_GT(silent3->detections, 0u);

  // CRC-visible corruption is the contrast case: the pair detects it.
  const CampaignCell* visible2 = p.cell(ft::FaultKind::kPayloadCorruption, 2);
  ASSERT_NE(visible2, nullptr);
  EXPECT_GT(visible2->detections, 0u);
}

TEST(VulnProfiler, ProfileIsIdenticalAtAnyJobs) {
  const Application app = single_process("stream", 0xff, rtc::from_ms(80.0));
  ProfilerOptions options;
  options.trials_per_cell = 2;
  options.seed = 3;
  options.jobs = 1;
  const VulnerabilityProfile serial = profile_application(app, options);
  options.jobs = 4;
  const VulnerabilityProfile parallel = profile_application(app, options);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(to_text(serial), to_text(parallel));
}

// ---------------------------------------------------------------------------
// Cost accounting and the planner
// ---------------------------------------------------------------------------

TEST(VulnPlanner, ProcessCostPinnedPerLevel) {
  // Shared accounting (ft::replication_cost / ft::unreplicated_cost) on the
  // reference rig's envelope family at 8-byte tokens. Pinned: a drift here
  // silently reshapes every Table 7 budget row.
  const Application app = reference_application();
  const ProcessSpec& spec = app.processes[0];
  EXPECT_EQ(process_cost(spec, 1), (ft::ReplicationCost{1, 16, 2}));
  EXPECT_EQ(process_cost(spec, 2), (ft::ReplicationCost{2, 96, 4}));
  EXPECT_EQ(process_cost(spec, 3), (ft::ReplicationCost{3, 192, 6}));
  EXPECT_EQ(process_cost(spec, 4), (ft::ReplicationCost{4, 256, 8}));
  // All eight streams share the envelope family, so costs are uniform.
  for (const ProcessSpec& other : app.processes) {
    EXPECT_EQ(process_cost(other, 2), process_cost(spec, 2)) << other.name;
  }
}

TEST(VulnPlanner, MixedProtectionPlacementRequestPinned) {
  // The planner's feasibility check places the same per-stream layout the
  // fleet builds; pinned in full (order matters to the greedy placer).
  const Application app = reference_application();
  const auto request = build_placement_request(app, {1, 2, 3, 4, 1, 2, 3, 1});
  const std::vector<scc::PlacementProcess> processes{
      {"telemetry0.producer", 0, -1, 0}, {"telemetry0.stage", 0, -1, 16},
      {"telemetry0.consumer", 0, -1, 16}, {"telemetry1.producer", 1, -1, 0},
      {"telemetry1.r1", 1, 1, 16},        {"telemetry1.r2", 1, 1, 16},
      {"telemetry1.consumer", 1, -1, 64}, {"telemetry2.producer", 2, -1, 0},
      {"telemetry2.r1", 2, 2, 64},        {"telemetry2.r2", 2, 2, 64},
      {"telemetry2.r3", 2, 2, 64},        {"telemetry2.consumer", 2, -1, 0},
      {"telemetry3.producer", 3, -1, 0},  {"telemetry3.r1", 3, 3, 64},
      {"telemetry3.r2", 3, 3, 64},        {"telemetry3.r3", 3, 3, 64},
      {"telemetry3.r4", 3, 3, 64},        {"telemetry3.consumer", 3, -1, 0},
      {"actuation0.producer", 4, -1, 0},  {"actuation0.stage", 4, -1, 16},
      {"actuation0.consumer", 4, -1, 16}, {"actuation1.producer", 5, -1, 0},
      {"actuation1.r1", 5, 5, 16},        {"actuation1.r2", 5, 5, 16},
      {"actuation1.consumer", 5, -1, 64}, {"ledger.producer", 6, -1, 0},
      {"ledger.r1", 6, 6, 64},            {"ledger.r2", 6, 6, 64},
      {"ledger.r3", 6, 6, 64},            {"ledger.consumer", 6, -1, 0},
      {"guidance.producer", 7, -1, 0},    {"guidance.stage", 7, -1, 16},
      {"guidance.consumer", 7, -1, 16}};
  ASSERT_EQ(request.processes.size(), processes.size());
  for (std::size_t i = 0; i < processes.size(); ++i) {
    EXPECT_EQ(request.processes[i].name, processes[i].name) << i;
    EXPECT_EQ(request.processes[i].stream, processes[i].stream) << i;
    EXPECT_EQ(request.processes[i].anti_affinity_group,
              processes[i].anti_affinity_group) << i;
    EXPECT_EQ(request.processes[i].mpb_bytes, processes[i].mpb_bytes) << i;
  }
  const std::vector<std::pair<int, int>> edges{
      {0, 1},   {1, 2},   {3, 4},   {3, 5},   {4, 6},   {5, 6},   {7, 8},
      {8, 11},  {7, 9},   {9, 11},  {7, 10},  {10, 11}, {12, 13}, {13, 17},
      {12, 14}, {14, 17}, {12, 15}, {15, 17}, {12, 16}, {16, 17}, {18, 19},
      {19, 20}, {21, 22}, {21, 23}, {22, 24}, {23, 24}, {25, 26}, {26, 29},
      {25, 27}, {27, 29}, {25, 28}, {28, 29}, {30, 31}, {31, 32}};
  ASSERT_EQ(request.edges.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(request.edges[i].from_process, edges[i].first) << i;
    EXPECT_EQ(request.edges[i].to_process, edges[i].second) << i;
    EXPECT_EQ(request.edges[i].bytes_per_period, 800u) << i;
  }
  EXPECT_EQ(request.max_processes_per_core, 1);
}

TEST(VulnPlanner, ProtectionOutOfRangeNamesStreamAndLevel) {
  const Application app = reference_application();
  auto expect_named = [](auto body, const std::string& stream, const std::string& level) {
    try {
      body();
      FAIL() << "protection " << level << " accepted";
    } catch (const util::ContractViolation& violation) {
      const std::string what = violation.what();
      EXPECT_NE(what.find("'" + stream + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("got " + level), std::string::npos) << what;
    }
  };
  expect_named([&] { (void)process_cost(app.processes[6], 0); }, "ledger", "0");
  expect_named(
      [&] { (void)build_placement_request(app, {1, 1, 1, 1, 1, 1, 1, 7}); },
      "guidance", "7");
}

TEST(VulnPlanner, RejectsMismatchedProfile) {
  const Application app = reference_application();
  VulnerabilityProfile profile;  // empty: wrong process count
  EXPECT_THROW((void)plan_protection(app, profile, PlannerOptions{}),
               util::ContractViolation);
}

TEST(VulnPlanner, ZeroBudgetLeavesEveryProcessUnprotected) {
  const Application app = reference_application();
  ProfilerOptions options;
  options.trials_per_cell = 2;
  const VulnerabilityProfile profile = profile_application(app, options);
  const ProtectionPlan plan = plan_protection(app, profile, PlannerOptions{});
  EXPECT_EQ(plan.protection, std::vector<int>(app.processes.size(), 1));
  EXPECT_EQ(plan.total_cost.cores, static_cast<int>(app.processes.size()));
}

TEST(VulnPlanner, PinnedReferencePlanAtBudgetSix) {
  // The Table 7 head-line result: with six extra cores the greedy planner
  // gives the two tight-deadline actuation streams the supervised pair and
  // the two value-sensitive streams the N = 3 vote, leaving the four
  // don't-care telemetry streams unprotected. Same profile settings as the
  // bench defaults (trials 4, seed 1).
  const Application app = reference_application();
  ProfilerOptions options;
  options.trials_per_cell = 4;
  options.seed = 1;
  const VulnerabilityProfile profile = profile_application(app, options);

  PlannerOptions planner;
  planner.budget_extra_cores = 6;
  const ProtectionPlan plan = plan_protection(app, profile, planner);
  EXPECT_EQ(plan.protection, (std::vector<int>{1, 1, 1, 1, 2, 2, 3, 3}));
  EXPECT_EQ(plan.budget_extra_cores, 6);

  // The profiler's ranking puts the doubly-critical stream first and the
  // silent-corruption-sensitive ledger ahead of the deadline-only pair.
  const std::vector<int> ranking = profile.ranking();
  ASSERT_EQ(ranking.size(), 8u);
  EXPECT_EQ(app.processes[static_cast<std::size_t>(ranking[0])].name,
            "guidance");
  EXPECT_EQ(app.processes[static_cast<std::size_t>(ranking[1])].name,
            "ledger");

  // Monotonicity along the budget axis: residual vulnerability never grows
  // with budget, and spending is capped by the budget.
  double previous = -1.0;
  for (int budget = 0; budget <= 8; ++budget) {
    planner.budget_extra_cores = budget;
    const ProtectionPlan p = plan_protection(app, profile, planner);
    int spent = 0;
    for (const int n : p.protection) spent += n - 1;
    EXPECT_LE(spent, budget);
    if (previous >= 0.0) {
      EXPECT_LE(p.residual_vulnerability, previous);
    }
    previous = p.residual_vulnerability;
  }
}

}  // namespace
}  // namespace sccft::vuln
