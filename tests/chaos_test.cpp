// Tests for the chaos soak subsystem (src/chaos/): storm generation
// determinism, invariant oracles on clean and planted-bug runs, failure
// artifact round-trips, ddmin shrinking, and regressions for the two
// production bugs the soak itself discovered (the frontier-hold writer wake
// and the NoC arrival-count duplicate).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/artifact.hpp"
#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"
#include "chaos/storm.hpp"
#include "ft/fault_plan.hpp"
#include "ft/stream.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace sccft::chaos {
namespace {

bool has_code(const std::vector<Violation>& violations, ViolationCode code) {
  for (const Violation& violation : violations) {
    if (violation.code == code) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Storm generation
// ---------------------------------------------------------------------------

TEST(Storm, GenerateIsDeterministicPerSeed) {
  const StormGenerator generator{StormConfig{}};
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL}) {
    const StormPlan a = generator.generate(seed);
    const StormPlan b = generator.generate(seed);
    EXPECT_EQ(a.seed, seed);
    EXPECT_EQ(a.run_length, b.run_length);
    EXPECT_EQ(ft::serialize(a.faults), ft::serialize(b.faults));
  }
}

TEST(Storm, RespectsConfigBounds) {
  StormConfig config;
  config.min_faults = 2;
  config.max_faults = 5;
  const StormGenerator generator{config};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const StormPlan plan = generator.generate(seed);
    ASSERT_GE(plan.faults.size(), 2u);
    ASSERT_LE(plan.faults.size(), 5u);
    for (const ft::FaultSpec& spec : plan.faults) {
      EXPECT_GE(spec.at, rtc::from_ms(100.0));
      EXPECT_LT(spec.at, plan.run_length);
    }
  }
}

TEST(Storm, NocFreeWhenDisallowed) {
  StormConfig config;
  config.allow_noc = false;
  config.adversarial_probability = 1.0;
  const StormGenerator generator{config};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const ft::FaultSpec& spec : generator.generate(seed).faults) {
      EXPECT_NE(spec.kind, ft::FaultKind::kNocLink);
    }
  }
}

TEST(Storm, LosslessClassification) {
  auto fault = [](ft::FaultKind kind, ft::ReplicaIndex replica) {
    ft::FaultSpec spec;
    spec.kind = kind;
    spec.replica = replica;
    spec.at = rtc::from_ms(500.0);
    return spec;
  };
  EXPECT_TRUE(plan_is_lossless({}));
  EXPECT_TRUE(plan_is_lossless(
      {fault(ft::FaultKind::kTransientSilence, ft::ReplicaIndex::kReplica1),
       fault(ft::FaultKind::kPayloadCorruption, ft::ReplicaIndex::kReplica1)}));
  EXPECT_FALSE(plan_is_lossless(
      {fault(ft::FaultKind::kTransientSilence, ft::ReplicaIndex::kReplica1),
       fault(ft::FaultKind::kTransientSilence, ft::ReplicaIndex::kReplica2)}));
  EXPECT_FALSE(plan_is_lossless(
      {fault(ft::FaultKind::kNocLink, ft::ReplicaIndex::kReplica1)}));
}

TEST(Storm, NReplicaAdversarialDoubleSilencePinned) {
  // Exact-plan regression for the N-replica generator's signature template:
  // two overlapping transient silences across two DISTINCT replicas of a
  // 3-replica rig — lossless at N = 3 (a healthy replica always remains) yet
  // precisely the plan a 2-replica rig could never survive. Any change to
  // the draw order or parameter ranges shows up here as a byte diff.
  StormConfig config;
  config.nreplica = 3;
  config.adversarial_probability = 1.0;
  config.allow_noc = false;
  config.min_faults = 2;
  config.max_faults = 2;
  const StormGenerator generator{config};
  const StormPlan plan = generator.generate(7);
  EXPECT_EQ(
      ft::serialize(plan.faults),
      "fault transient-silence 1 1509160908 165188019 4 1 0 0 "
      "1926500276298015196 0 0 0 0 3 50000 0 1\n"
      "fault transient-silence 2 1555494495 187954026 4 1 0 0 "
      "9986469540036305303 0 0 0 0 3 50000 0 2\n");
  EXPECT_TRUE(plan_is_lossless(plan.faults, 3));
  EXPECT_FALSE(plan_is_lossless(plan.faults, 2));
}

TEST(Storm, NReplicaAdversarialStormsStayLosslessAtN3) {
  // With at most two faults per storm the adversarial branch touches at most
  // two distinct victims, so every generated plan keeps the N = 3 no-loss
  // guarantee the soak oracle enforces.
  StormConfig config;
  config.nreplica = 3;
  config.adversarial_probability = 1.0;
  config.allow_noc = false;
  config.min_faults = 2;
  config.max_faults = 2;
  const StormGenerator generator{config};
  int cross_replica = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const StormPlan plan = generator.generate(seed);
    EXPECT_TRUE(plan_is_lossless(plan.faults, 3)) << "seed " << seed;
    if (!plan_is_lossless(plan.faults, 2)) ++cross_replica;
    for (const ft::FaultSpec& spec : plan.faults) {
      EXPECT_NE(spec.kind, ft::FaultKind::kNocLink);
    }
  }
  // The double-fault templates must actually fire: a healthy share of the
  // storms spans two replicas (impossible under the 2-replica guarantee).
  EXPECT_GT(cross_replica, 10);
}

TEST(Storm, OnlyKindPinsEveryFaultToTheVictim) {
  // The vulnerability profiler's restricted mode: one kind, one victim. No
  // adversarial drift, no other kinds, no other victims — at any N.
  for (const ft::FaultKind kind :
       {ft::FaultKind::kTransientSilence, ft::FaultKind::kRateDegradation,
        ft::FaultKind::kPayloadCorruption, ft::FaultKind::kSilentCorruption}) {
    StormConfig config;
    config.nreplica = 3;
    config.allow_noc = false;
    config.only_kind = kind;
    config.pin_victim = 1;
    config.min_faults = 1;
    config.max_faults = 3;
    const StormGenerator generator{config};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const StormPlan plan = generator.generate(seed);
      EXPECT_FALSE(plan.faults.empty());
      for (const ft::FaultSpec& spec : plan.faults) {
        EXPECT_EQ(spec.kind, kind);
        EXPECT_EQ(ft::victim_index(spec), 1);
      }
      EXPECT_TRUE(plan_is_lossless(plan.faults, 3));
    }
  }
}

// ---------------------------------------------------------------------------
// Oracles on clean runs
// ---------------------------------------------------------------------------

TEST(Oracle, CleanStormsProduceNoViolations) {
  const StormGenerator generator{StormConfig{}};
  for (std::uint64_t seed : {3ULL, 11ULL, 29ULL}) {
    const StormPlan plan = generator.generate(seed);
    const RunObservation golden = run_golden(seed, plan.run_length);
    const RunObservation obs = run_storm(plan);
    const std::vector<Violation> violations = check_invariants(plan, obs, golden);
    for (const Violation& violation : violations) {
      ADD_FAILURE() << "seed " << seed << ": " << to_string(violation.code)
                    << ": " << violation.detail;
    }
  }
}

TEST(Oracle, GoldenRunSatisfiesItsOwnInvariants) {
  const RunObservation golden = run_golden(5, rtc::from_sec(2.0));
  StormPlan empty;
  empty.seed = 5;
  empty.run_length = rtc::from_sec(2.0);
  EXPECT_TRUE(check_invariants(empty, golden, golden).empty());
  EXPECT_FALSE(golden.consumed_seqs.empty());
  EXPECT_EQ(golden.consumed_seqs.front(), 0u);
}

TEST(Oracle, CorruptionStormLeavesTheGoldenRunUnchanged) {
  // Producers share one payload table per token size; a storm's bit flips
  // must land in copies, so a later golden run sees the pristine payloads.
  const std::uint64_t seed = 17;
  const rtc::TimeNs run_length = rtc::from_sec(1.0);
  const RunObservation before = run_golden(seed, run_length);
  for (const ft::FaultKind kind :
       {ft::FaultKind::kPayloadCorruption, ft::FaultKind::kSilentCorruption}) {
    StormConfig config;
    config.run_length = run_length;
    config.allow_noc = false;
    config.only_kind = kind;
    config.pin_victim = 0;
    config.min_faults = config.max_faults = 3;
    const RunObservation storm = run_storm(StormGenerator{config}.generate(seed));
    ASSERT_FALSE(storm.injections.empty()) << ft::to_string(kind);
  }
  const RunObservation after = run_golden(seed, run_length);
  EXPECT_FALSE(before.consumed_fingerprints.empty());
  EXPECT_EQ(after.consumed_seqs, before.consumed_seqs);
  EXPECT_EQ(after.consumed_fingerprints, before.consumed_fingerprints);
  // Fingerprints are CRCs cached at admission, blind to bytes flipped in
  // place; check the rig's table entries byte for byte as well.
  const ft::SyntheticPayloads& table =
      ft::synthetic_payloads(ft::SyntheticStream{}.token_bytes);
  for (std::size_t v = 0; v < table.size(); ++v) {
    const kpn::PayloadRef& entry = table[v];
    EXPECT_EQ(std::vector<std::uint8_t>(entry.view().begin(), entry.view().end()),
              std::vector<std::uint8_t>(entry.size(), static_cast<std::uint8_t>(v)))
        << "entry " << v;
    EXPECT_EQ(entry.crc(), util::crc32(entry.view())) << "entry " << v;
  }
}

TEST(Oracle, ViolationCodeTextRoundTrips) {
  for (const ViolationCode code :
       {ViolationCode::kContractViolation, ViolationCode::kDuplicateDelivery,
        ViolationCode::kCorruptDelivery, ViolationCode::kGoldenMismatch,
        ViolationCode::kUnjustifiedConviction, ViolationCode::kIllegalTransition,
        ViolationCode::kBudgetExceeded, ViolationCode::kSpineInconsistent,
        ViolationCode::kSequenceGap, ViolationCode::kStalledStream}) {
    EXPECT_EQ(violation_code_from_text(to_string(code)), code);
  }
  EXPECT_THROW((void)violation_code_from_text("no-such-code"),
               util::ContractViolation);
}

// ---------------------------------------------------------------------------
// Rig preconditions: every rejection names the replica count and the
// offending option or fault index
// ---------------------------------------------------------------------------

/// Expects run_storm to reject (plan, options) with a message containing
/// `detail`.
void expect_rejected(const StormPlan& plan, const RunOptions& options,
                     const std::string& detail) {
  try {
    (void)run_storm(plan, options);
    ADD_FAILURE() << "run_storm accepted the rig";
  } catch (const util::ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find(detail), std::string::npos)
        << violation.what();
  }
}

StormPlan plan_with(const std::vector<ft::FaultSpec>& faults) {
  StormPlan plan;
  plan.seed = 1;
  plan.run_length = rtc::from_sec(1.0);
  plan.faults = faults;
  return plan;
}

TEST(Runner, RejectsFewerThanTwoReplicas) {
  expect_rejected(plan_with({}), {.nreplica = 1}, "nreplica must be >= 2, got 1");
}

TEST(Runner, RejectsControlPlaneAtThreeReplicas) {
  RunOptions options{.nreplica = 3};
  options.control_plane.enabled = true;
  expect_rejected(plan_with({}), options, "nreplica 3 rig has no control plane");
}

TEST(Runner, RejectsReconfigureAtFourReplicas) {
  RunOptions options{.nreplica = 4};
  options.reconfig.enabled = true;
  expect_rejected(plan_with({}), options,
                  "nreplica 4 rig cannot open reconfiguration windows");
}

TEST(Runner, RejectsPlantedBugAtThreeReplicas) {
  const RunOptions options{.planted = PlantedBug::kCorruptAfterRestart, .nreplica = 3};
  expect_rejected(plan_with({}), options,
                  "nreplica 3 rig cannot plant bug corrupt-after-restart");
}

TEST(Runner, RejectsVictimBeyondTheReplicaCount) {
  ft::FaultSpec healthy{.kind = ft::FaultKind::kTransientSilence,
                        .at = rtc::from_ms(100.0),
                        .duration = rtc::from_ms(50.0)};
  ft::FaultSpec stray = healthy;
  stray.victim = 4;
  expect_rejected(plan_with({healthy, stray}), {.nreplica = 3},
                  "fault 1 (transient-silence) targets replica index 3 of an "
                  "nreplica 3 rig");
}

TEST(Runner, RejectsNonDataPathKindsAtThreeReplicas) {
  for (const ft::FaultKind kind :
       {ft::FaultKind::kNocLink, ft::FaultKind::kSupervisorHang}) {
    const ft::FaultSpec spec{.kind = kind, .at = rtc::from_ms(100.0)};
    expect_rejected(plan_with({spec}), {.nreplica = 3},
                    "fault 0 (" + ft::to_string(kind) +
                        ") is not a data-path fault, which the unsupervised "
                        "nreplica 3 rig needs");
  }
}

TEST(Runner, RejectsZeroPeriodsOfEnabledDefenses) {
  // A zero resize period used to spin at one simulated instant forever; a
  // zero watchdog deadline or scrub period aborted in the defense's
  // constructor without naming the option.
  RunOptions resize;
  resize.reconfig.enabled = true;
  resize.reconfig.period = 0;
  expect_rejected(plan_with({}), resize,
                  "reconfiguration windows need a positive period, got 0 ns");
  RunOptions watchdog;
  watchdog.control_plane.enabled = true;
  watchdog.control_plane.watchdog_deadline = 0;
  expect_rejected(plan_with({}), watchdog,
                  "the armed watchdog needs a positive deadline, got 0 ns");
  RunOptions scrubber;
  scrubber.control_plane.enabled = true;
  scrubber.control_plane.scrub_period = 0;
  expect_rejected(plan_with({}), scrubber,
                  "the running scrubber needs a positive period, got 0 ns");
}

// ---------------------------------------------------------------------------
// Regressions: bugs found BY the chaos soak (kept as exact reproducers)
// ---------------------------------------------------------------------------

// A writer parked at the selector's rejoin frontier hold used to be resumed
// by unfreeze_writer / wake_writers while the hold was still active; the
// failed try_write retry then tripped the WriteAwaiter's `accepted_` assert
// (kpn/channel.hpp). Shrunk reproducer from soak seed 55.
TEST(ChaosRegression, FrontierHeldWriterSurvivesThawAndPeerWakes) {
  StormPlan plan;
  plan.seed = 55;
  plan.run_length = rtc::from_sec(2.0);
  plan.faults = ft::parse_fault_plan(
      "fault rate-degradation 2 1090633154 333002685 2.9697453589341336 1 0 0 "
      "12263056459291545251 0 0 0 0 3 50000\n"
      "fault transient-silence 1 1431440021 355011926 4 1 0 0 "
      "630105317583351277 0 0 0 0 3 50000\n"
      "fault rate-degradation 1 1050201645 182864106 5.0220312361801982 1 0 0 "
      "5072207305160419023 0 0 0 0 3 50000\n");
  const RunObservation golden = run_golden(plan.seed, plan.run_length);
  const RunObservation obs = run_storm(plan);
  EXPECT_FALSE(obs.contract_violation)
      << "contract violation: " << *obs.contract_violation;
  EXPECT_TRUE(check_invariants(plan, obs, golden).empty());
}

// NoC loss on a producer->replica link skews the replicas' arrival counts
// until both copies of one sequence number pass the count-based first-of-
// pair test: seq 68 was delivered twice. Shrunk reproducer from soak seed
// 1207; the fix pins delivery to the strictly-increasing seq frontier.
TEST(ChaosRegression, ArrivalCountSkewCannotDuplicateDelivery) {
  StormPlan plan;
  plan.seed = 1207;
  plan.run_length = rtc::from_sec(2.0);
  plan.faults = ft::parse_fault_plan(
      "fault noc-link 1 311687880 436419733 4 1 0 0 17037552813843147886 "
      "0.30295116915761761 0.21631566163006999 10000 159734 3 50000\n"
      "fault transient-silence 1 449314519 205245999 4 1 0 0 "
      "11240728515737854683 0 0 0 0 3 50000\n");
  const RunObservation golden = run_golden(plan.seed, plan.run_length);
  const RunObservation obs = run_storm(plan);
  const std::vector<Violation> violations = check_invariants(plan, obs, golden);
  EXPECT_FALSE(has_code(violations, ViolationCode::kDuplicateDelivery));
  for (std::size_t i = 1; i < obs.consumed_seqs.size(); ++i) {
    ASSERT_GT(obs.consumed_seqs[i], obs.consumed_seqs[i - 1]);
  }
}

// ---------------------------------------------------------------------------
// Planted bugs drive the whole pipeline: oracle -> artifact -> shrink ->
// replay (the ISSUE's acceptance scenario)
// ---------------------------------------------------------------------------

struct PlantedCase {
  PlantedBug bug;
  ViolationCode expected;
};

class PlantedPipeline : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedPipeline, OracleArtifactShrinkReplay) {
  const PlantedCase param = GetParam();
  const StormGenerator generator{StormConfig{}};
  const RunOptions options{.planted = param.bug};

  // Soak until the planted bug manifests (seed 1 fires for both bugs; the
  // loop keeps the test robust to generator evolution).
  StormPlan plan;
  RunObservation golden;
  RunObservation obs;
  std::vector<Violation> violations;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    plan = generator.generate(seed);
    golden = run_golden(seed, plan.run_length);
    obs = run_storm(plan, options);
    violations = check_invariants(plan, obs, golden);
    found = has_code(violations, param.expected);
  }
  ASSERT_TRUE(found) << "planted bug never manifested in 32 storms";

  // Artifact bundle round-trips byte-for-byte.
  FailureArtifact artifact = make_artifact(plan, options, obs, violations);
  EXPECT_EQ(artifact.seed, plan.seed);
  EXPECT_FALSE(artifact.flight_csv.empty());
  EXPECT_FALSE(artifact.registry_csv.empty());

  // ddmin shrink: the acceptance bar is a minimal reproducer of <= 2 faults.
  const ShrinkResult minimal = shrink_plan(plan, options, violations, golden);
  ASSERT_LE(minimal.faults.size(), 2u);
  EXPECT_TRUE(has_code(minimal.violations, param.expected));
  artifact.shrunk = minimal.faults;

  const std::string text = serialize(artifact);
  const FailureArtifact parsed = parse_artifact(text);
  EXPECT_EQ(serialize(parsed), text);
  EXPECT_EQ(parsed.seed, artifact.seed);
  EXPECT_EQ(parsed.planted, param.bug);
  ASSERT_TRUE(parsed.shrunk.has_value());
  EXPECT_EQ(ft::serialize(*parsed.shrunk), ft::serialize(minimal.faults));

  // Replay from the PARSED artifact (not the in-memory one) reproduces.
  StormPlan replay;
  replay.seed = parsed.seed;
  replay.run_length = parsed.run_length;
  replay.faults = *parsed.shrunk;
  const RunObservation replay_golden = run_golden(replay.seed, replay.run_length);
  const RunObservation replay_obs =
      run_storm(replay, RunOptions{.planted = parsed.planted});
  EXPECT_TRUE(has_code(check_invariants(replay, replay_obs, replay_golden),
                       param.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, PlantedPipeline,
    ::testing::Values(
        PlantedCase{PlantedBug::kDropAfterSecondRestart,
                    ViolationCode::kSequenceGap},
        PlantedCase{PlantedBug::kCorruptAfterRestart,
                    ViolationCode::kGoldenMismatch}),
    [](const ::testing::TestParamInfo<PlantedCase>& info) {
      return info.param.bug == PlantedBug::kDropAfterSecondRestart
                 ? "DropAfterSecondRestart"
                 : "CorruptAfterRestart";
    });

TEST(Shrink, ChecksProbesAgainstTheCallersNReplicaGolden) {
  // The shrinker checks every probe against the reference the caller passes
  // in, here the N = 3 rig's own fault-free run (a reference simulated on
  // the pair rig would cover a different delivery schedule). Doctoring that
  // reference at seq 0 makes every probe mismatch, so the search must end at
  // the empty plan after one probe.
  StormConfig config;
  config.nreplica = 3;
  config.adversarial_probability = 1.0;
  config.allow_noc = false;
  config.min_faults = 2;
  config.max_faults = 2;
  const StormPlan plan = StormGenerator{config}.generate(7);
  const RunOptions options{.nreplica = 3};
  const RunObservation golden = run_golden(plan.seed, plan.run_length, {}, 3);
  const RunObservation obs = run_storm(plan, options);
  ASSERT_TRUE(check_invariants(plan, obs, golden).empty());
  ASSERT_FALSE(golden.consumed_seqs.empty());
  ASSERT_EQ(golden.consumed_seqs.front(), 0u);

  RunObservation doctored = golden;
  doctored.consumed_fingerprints.front() ^= 1u;
  const std::vector<Violation> violations = check_invariants(plan, obs, doctored);
  ASSERT_TRUE(has_code(violations, ViolationCode::kGoldenMismatch));

  const ShrinkResult minimal = shrink_plan(plan, options, violations, doctored);
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_EQ(minimal.probes, 1);
  ASSERT_TRUE(has_code(minimal.violations, ViolationCode::kGoldenMismatch));
  EXPECT_EQ(minimal.violations.front().detail, "seq 0 payload differs from golden run");
}

// ---------------------------------------------------------------------------
// Artifact parser rejects malformed input
// ---------------------------------------------------------------------------

std::string valid_artifact_text() {
  return "sccft-chaos-artifact v1\n"
         "seed 7\n"
         "run-length-ns 2000000000\n"
         "planted none\n"
         "control-plane 0 1 1 25000000 120000000 5000000\n"
         "reconfigure 0 250000000 2000000 8\n"
         "violation sequence-gap gap after seq 12\n"
         "plan-begin\n"
         "fault transient-silence 1 500000000 100000000 4 1 0 0 9 0 0 0 0 3 "
         "50000 0\n"
         "plan-end\n"
         "flight-begin\n"
         "time,kind\n"
         "flight-end\n"
         "registry-begin\n"
         "name,kind,value\n"
         "registry-end\n";
}

TEST(Artifact, ValidTextRoundTrips) {
  const FailureArtifact artifact = parse_artifact(valid_artifact_text());
  EXPECT_EQ(artifact.seed, 7u);
  EXPECT_EQ(artifact.run_length, 2'000'000'000);
  EXPECT_EQ(artifact.planted, PlantedBug::kNone);
  ASSERT_EQ(artifact.violations.size(), 1u);
  EXPECT_EQ(artifact.violations[0].code, ViolationCode::kSequenceGap);
  EXPECT_EQ(artifact.violations[0].detail, "gap after seq 12");
  ASSERT_EQ(artifact.plan.size(), 1u);
  EXPECT_EQ(artifact.plan[0].kind, ft::FaultKind::kTransientSilence);
  EXPECT_FALSE(artifact.shrunk.has_value());
  EXPECT_EQ(serialize(artifact), valid_artifact_text());
}

TEST(Artifact, MalformedInputThrows) {
  // Fuzz-style negatives: every structural mutilation must throw, never
  // crash or silently mis-parse.
  const std::string valid = valid_artifact_text();
  // The valid text with its line starting `prefix` replaced by `line`.
  const auto with_line = [&valid](const std::string& prefix, const std::string& line) {
    std::string text = valid;
    const std::size_t at = text.find("\n" + prefix) + 1;
    return text.replace(at, text.find('\n', at) - at, line);
  };
  const std::vector<std::string> bad = {
      "",                                         // empty
      "sccft-chaos-artifact v2\nseed 1\n",        // wrong version
      valid + "mystery-directive 1\n",            // unknown directive
      "sccft-chaos-artifact v1\nseed banana\n",   // non-numeric seed
      "sccft-chaos-artifact v1\nseed 1\nrun-length-ns 12x\n",  // trailing junk
      "sccft-chaos-artifact v1\nseed 1\nplanted quantum-bit-flip\n",
      "sccft-chaos-artifact v1\nseed 1\nviolation made-up-code detail\n",
      // control-plane flags are strictly 0|1; periods must be numbers
      "sccft-chaos-artifact v1\nseed 1\ncontrol-plane 2 1 1 1 1 1\n",
      "sccft-chaos-artifact v1\nseed 1\ncontrol-plane 1 1 1 soon 1 1\n",
      "sccft-chaos-artifact v1\nseed 1\ncontrol-plane 1 1\n",  // truncated
      "sccft-chaos-artifact v1\nseed 1\nrun-length-ns 5\nviolation "
      "sequence-gap x\nplan-begin\nfault garbage\nplan-end\n",  // bad fault line
      "sccft-chaos-artifact v1\nseed 1\nrun-length-ns 5\nviolation "
      "sequence-gap x\nplan-begin\n",  // truncated section
      with_line("seed", "seed -1"),      // wraps to 2^64 - 1
      with_line("seed", "seed 5 6"),     // trailing field
      with_line("planted", "protection 4294967298"),  // truncates to 2
      // A u64 that wraps to a negative heartbeat period / resize step.
      with_line("control-plane", "control-plane 1 1 1 18446744073709551615 1 1"),
      with_line("reconfigure", "reconfigure 1 1 1 18446744073709551615"),
      // Zero periods of an enabled defense: the resize tick would re-arm at
      // one instant forever, the watchdog and scrubber refuse to construct.
      with_line("reconfigure", "reconfigure 1 0 2000000 8"),
      with_line("control-plane", "control-plane 1 1 0 25000000 0 5000000"),
      with_line("control-plane", "control-plane 1 0 1 25000000 120000000 0"),
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)parse_artifact(text), util::ContractViolation)
        << "accepted: " << text.substr(0, 60);
  }
  // Required fields must be present even if everything else parses.
  EXPECT_THROW((void)parse_artifact("sccft-chaos-artifact v1\nseed 1\n"),
               util::ContractViolation);
}

TEST(Artifact, ErrorsNameTheLineFieldAndValue) {
  std::string text = valid_artifact_text();
  const std::size_t at = text.find("reconfigure 0 250000000 2000000 8");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 33, "reconfigure 0 250000000 2000000 18446744073709551615");
  try {
    (void)parse_artifact(text);
    FAIL() << "wrapping resize step accepted";
  } catch (const util::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("grow"), std::string::npos) << what;
    EXPECT_NE(what.find("18446744073709551615"), std::string::npos) << what;
  }
}

TEST(Artifact, PlantedBugTextRoundTrips) {
  for (const PlantedBug bug :
       {PlantedBug::kNone, PlantedBug::kDropAfterSecondRestart,
        PlantedBug::kCorruptAfterRestart}) {
    EXPECT_EQ(planted_bug_from_text(to_string(bug)), bug);
  }
  EXPECT_THROW((void)planted_bug_from_text("heisenbug"), util::ContractViolation);
}

}  // namespace
}  // namespace sccft::chaos
