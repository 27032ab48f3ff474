// Deterministic mutational fuzzing of every util/record text format: fault
// plans, chaos artifacts, vulnerability profiles and protection plans.
//
// Each iteration mutates one valid text — byte flips, dropped or duplicated
// lines, inserted digits and '-' signs — from a fixed seed, then parses it.
// A parse must either throw util::ContractViolation or return a value whose
// serialization parses back to the same value. Any other exception, a crash
// or a sanitizer report is a parser defect.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "chaos/artifact.hpp"
#include "ft/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "vuln/profile.hpp"

namespace sccft {
namespace {

constexpr int kIterationsPerFormat = 5000;

std::vector<ft::FaultSpec> sample_plan() {
  std::vector<ft::FaultSpec> plan(3);
  plan[0].kind = ft::FaultKind::kTransientSilence;
  plan[0].at = 250'000'000;
  plan[0].duration = 40'000'000;
  plan[0].seed = 17;
  plan[1].kind = ft::FaultKind::kRateDegradation;
  plan[1].replica = ft::ReplicaIndex::kReplica2;
  plan[1].at = 90'000'000;
  plan[1].rate_factor = 1.1;
  plan[1].noc.chunk_drop_probability = 0.1;
  plan[1].noc.delay_max_ns = 9'000;
  plan[2].kind = ft::FaultKind::kSilentCorruption;
  plan[2].corrupt_probability = 1e-05;
  plan[2].tile = 7;
  plan[2].victim = 3;
  return plan;
}

chaos::FailureArtifact sample_artifact() {
  chaos::FailureArtifact artifact;
  artifact.seed = 0xDEADBEEFull;
  artifact.run_length = 2'000'000'000;
  artifact.planted = chaos::PlantedBug::kCorruptAfterRestart;
  artifact.control_plane.enabled = true;
  artifact.reconfig.enabled = true;
  artifact.nreplica = 3;
  artifact.violations.push_back(
      {chaos::ViolationCode::kGoldenMismatch, "seq 41 payload differs from golden run"});
  artifact.plan = sample_plan();
  artifact.shrunk = std::vector<ft::FaultSpec>{artifact.plan[0]};
  artifact.flight_csv = "time_ns,kind,subject,a,b\n1000,enqueue,ft.r1,4,0\n";
  artifact.registry_csv = "name,kind,value\nft.restarts,counter,2\n";
  return artifact;
}

vuln::VulnerabilityProfile sample_profile() {
  vuln::VulnerabilityProfile profile;
  profile.seed = 7;
  profile.run_length = 1'500'000'000;
  profile.trials_per_cell = 4;
  for (int index = 0; index < 2; ++index) {
    vuln::ProcessProfile process;
    process.name = index == 0 ? "decode" : "filter";
    process.index = index;
    for (const int protection : {1, 2}) {
      vuln::CampaignCell cell;
      cell.kind = ft::FaultKind::kPayloadCorruption;
      cell.protection = protection;
      cell.trials = 4;
      cell.injections = 9;
      cell.tokens_delivered = 300;
      cell.corruption_escapes = protection == 1 ? 5 : 0;
      cell.detections = protection == 2 ? 4 : 0;
      cell.detection_latency_sum = protection == 2 ? 61'000'000 : 0;
      cell.detection_latency_count = protection == 2 ? 4 : 0;
      process.cells.push_back(cell);
    }
    profile.processes.push_back(std::move(process));
  }
  return profile;
}

vuln::ProtectionPlan sample_protection_plan() {
  vuln::ProtectionPlan plan;
  plan.budget_extra_cores = 3;
  plan.protection = {1, 2, 3};
  plan.total_cost = ft::ReplicationCost{6, 4096, 12};
  plan.residual_vulnerability = 1.0 / 3;
  return plan;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t stop = text.find('\n', start);
    lines.push_back(text.substr(start, stop - start));
    if (stop == std::string::npos) break;
    start = stop + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// One to three random mutations of `text`.
std::string mutate(std::string text, util::Xoshiro256& rng) {
  const int count = static_cast<int>(rng.uniform_int(1, 3));
  for (int m = 0; m < count; ++m) {
    const auto pick = [&rng](std::size_t size) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[pick(text.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        }
        break;
      case 1: {  // drop a line
        std::vector<std::string> lines = split_lines(text);
        if (!lines.empty()) lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size())));
        text = join_lines(lines);
        break;
      }
      case 2: {  // duplicate a line
        std::vector<std::string> lines = split_lines(text);
        if (!lines.empty()) {
          const std::size_t at = pick(lines.size());
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
        }
        text = join_lines(lines);
        break;
      }
      default: {  // insert a digit or a minus sign
        const char inserted = rng.uniform_int(0, 10) == 10
                                  ? '-'
                                  : static_cast<char>('0' + rng.uniform_int(0, 9));
        text.insert(pick(text.size() + 1), 1, inserted);
        break;
      }
    }
  }
  return text;
}

/// Fuzzes one format. `round_trip` parses a text and, when it is accepted,
/// checks that its serialization parses back equal.
void fuzz(const std::string& valid, std::uint64_t seed,
          const std::function<void(const std::string&)>& round_trip) {
  util::Xoshiro256 rng(seed);
  ASSERT_NO_THROW(round_trip(valid));
  int accepted = 0;
  for (int i = 0; i < kIterationsPerFormat; ++i) {
    const std::string text = mutate(valid, rng);
    try {
      round_trip(text);
      ++accepted;
    } catch (const util::ContractViolation&) {
      // The parser's one way to refuse a text.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "non-contract exception '" << error.what() << "' on:\n" << text;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << i << " failed on:\n" << text;
    }
  }
  // Mutations land in fields that accept other values too (digits inserted
  // into numbers, comment or blank lines), so some texts must parse.
  EXPECT_GT(accepted, 0);
}

TEST(RecordFuzz, FaultPlans) {
  fuzz(ft::serialize(sample_plan()), 1, [](const std::string& text) {
    const std::vector<ft::FaultSpec> plan = ft::parse_fault_plan(text);
    const std::string written = ft::serialize(plan);
    EXPECT_EQ(ft::serialize(ft::parse_fault_plan(written)), written);
  });
}

TEST(RecordFuzz, ChaosArtifacts) {
  fuzz(chaos::serialize(sample_artifact()), 2, [](const std::string& text) {
    const chaos::FailureArtifact artifact = chaos::parse_artifact(text);
    const std::string written = chaos::serialize(artifact);
    EXPECT_EQ(chaos::serialize(chaos::parse_artifact(written)), written);
  });
}

TEST(RecordFuzz, VulnProfiles) {
  fuzz(vuln::to_text(sample_profile()), 3, [](const std::string& text) {
    const vuln::VulnerabilityProfile profile = vuln::profile_from_text(text);
    EXPECT_EQ(vuln::profile_from_text(vuln::to_text(profile)), profile);
  });
}

TEST(RecordFuzz, VulnPlans) {
  fuzz(vuln::to_text(sample_protection_plan()), 4, [](const std::string& text) {
    const vuln::ProtectionPlan plan = vuln::plan_from_text(text);
    EXPECT_EQ(vuln::plan_from_text(vuln::to_text(plan)), plan);
  });
}

}  // namespace
}  // namespace sccft
