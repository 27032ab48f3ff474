// Live-resize protocol tests (src/adapt/reconfig.hpp).
//
// Property layer: randomized interleavings of producer writes, replica pumps,
// consumer reads, and reconfiguration requests fired at arbitrary points —
// mid-burst, back-to-back, while a window is already open. The oracle is the
// paper's own: the consumed stream is exactly 0, 1, 2, ... (no gap, no
// duplicate, no reorder) and no detection rule ever fires on a legal
// schedule, no matter where a resize lands.
//
// Protocol layer: scripted windows pin the quiesce -> resize -> resume
// sequencing — busy rejection, clamped shrinks (fill+1 / gap+1), rejoin
// frontier holds surviving a window, and TMR scrubbing of the pending words.
//
// Chaos layer: full-system runs (src/chaos) with periodic benign windows —
// fault-free runs must deliver the same stream as their window-matched
// golden and a prefix of the unresized golden; lossless storms must stay
// green under the no-loss/ordering oracles; the reconfiguration-window
// adversarial template (storm template 7) is pinned as an exact-plan
// regression so generator drift cannot silently retire the coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "adapt/reconfig.hpp"
#include "chaos/artifact.hpp"
#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"
#include "ft/fault_plan.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sccft::adapt {
namespace {

using ft::ReplicaIndex;
using kpn::Token;

Token make_token(std::uint64_t seq) {
  return Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq & 0xFF),
                                         static_cast<std::uint8_t>((seq >> 8) & 0xFF)},
               seq, 0);
}

/// One replicator/selector pair under a controller, with the manual
/// write/read interfaces the property driver pokes.
struct Rig {
  sim::Simulator sim;
  ft::ReplicatorChannel rep;
  ft::SelectorChannel sel;
  ReconfigurationController rc;

  Rig(rtc::Tokens fifo1, rtc::Tokens fifo2, rtc::Tokens divergence,
      rtc::TimeNs quiesce)
      : rep(sim, "rep", {.capacities = {fifo1, fifo2}}),
        sel(sim, "sel",
            {.capacities = {12, 12},
             // Eq. (4) stall budget: a replica may trail the consumer by up
             // to 5 tokens before rule (a) convicts it.
             .initials = {5, 5},
             .divergence_threshold = divergence,
             .enable_stall_rule = true}),
        rc(sim, sim.trace(), rep, sel,
           {.quiesce_window = quiesce, .name = "rc"}) {}

  [[nodiscard]] bool any_fault() const {
    return rep.fault(ReplicaIndex::kReplica1) || rep.fault(ReplicaIndex::kReplica2) ||
           sel.fault(ReplicaIndex::kReplica1) || sel.fault(ReplicaIndex::kReplica2);
  }
};

// The smallest divergence threshold any random request installs; the legal
// schedule keeps the replicas' write gap strictly below it so no resize can
// clamp the rig into a verdict.
constexpr rtc::Tokens kMinD = 3;

class ReconfigRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfigRandomized, ResizeAtRandomPointsKeepsTheStreamExact) {
  util::Xoshiro256 rng(GetParam());
  Rig rig(/*fifo1=*/2, /*fifo2=*/4, /*divergence=*/4, /*quiesce=*/500'000);
  auto& read1 = rig.rep.read_interface(ReplicaIndex::kReplica1);
  auto& read2 = rig.rep.read_interface(ReplicaIndex::kReplica2);
  auto& write1 = rig.sel.write_interface(ReplicaIndex::kReplica1);
  auto& write2 = rig.sel.write_interface(ReplicaIndex::kReplica2);

  std::uint64_t produced = 0;
  std::uint64_t pumped1 = 0;
  std::uint64_t pumped2 = 0;
  std::uint64_t consumed = 0;
  // In-flight token per replica: read from the replicator but not yet
  // accepted by the selector (a refused selector write must not lose it).
  std::optional<Token> hold1;
  std::optional<Token> hold2;
  std::uint64_t requested = 0;
  std::uint64_t rejected = 0;
  rtc::TimeNs t = 0;

  const auto pump = [&](kpn::TokenSource& from, kpn::TokenSink& to,
                        std::optional<Token>& hold, std::uint64_t& pumped,
                        std::uint64_t peer_pumped) {
    // A conforming replica never leads its peer by D - 1 or more.
    if (pumped + 1 >= peer_pumped + kMinD) return;
    if (!hold) hold = from.try_read();
    if (hold && to.try_write(*hold)) {
      hold.reset();
      ++pumped;
    }
  };

  for (int step = 0; step < 4000; ++step) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {
        // Producer: a write into a full queue is the overflow rule's trigger
        // (immediately outside a window, via the deferred end-of-window check
        // inside one) — a legal producer paces itself at all times. Window
        // over-capacity absorption is exercised by the chaos-layer tests,
        // where the soak runner pairs every window with grow targets.
        const bool space =
            rig.rep.fill(ReplicaIndex::kReplica1) < rig.rep.capacity(ReplicaIndex::kReplica1) &&
            rig.rep.fill(ReplicaIndex::kReplica2) < rig.rep.capacity(ReplicaIndex::kReplica2);
        if (space) {
          if (rig.rep.try_write(make_token(produced))) ++produced;
        }
        break;
      }
      case 1:
        pump(read1, write1, hold1, pumped1, pumped2);
        break;
      case 2:
        pump(read2, write2, hold2, pumped2, pumped1);
        break;
      case 3:
        // Consumer: reading past a replica's deliveries is the stall rule's
        // trigger — a legal consumer stays behind both replicas.
        if (std::min(pumped1, pumped2) > consumed) {
          if (auto token = rig.sel.try_read()) {
            ASSERT_EQ(token->seq(), consumed)
                << "gap/duplicate/reorder at step " << step << " (seed "
                << GetParam() << ")";
            ++consumed;
          }
        }
        break;
      case 4:
        if (!rig.rc.window_open() && rng.chance(0.25)) {
          ReconfigurationController::Request request;
          if (rng.chance(0.7)) request.fifo1 = 1 + rng.uniform_int(0, 9);
          if (rng.chance(0.7)) request.fifo2 = 1 + rng.uniform_int(0, 9);
          if (rng.chance(0.7)) request.divergence = kMinD + rng.uniform_int(0, 9);
          if (!request.empty()) {
            ASSERT_TRUE(rig.rc.request(request));
            ++requested;
          }
        } else if (rig.rc.window_open()) {
          // A second request while the window is open is rejected, never
          // queued.
          ReconfigurationController::Request request;
          request.fifo1 = 5;
          ASSERT_FALSE(rig.rc.request(request));
          ++rejected;
        }
        break;
    }
    if (rng.chance(0.5)) {
      t += rng.uniform_int(0, 200'000);
      rig.sim.run_until(t);
    }
    // Note: fill may transiently exceed a queue's capacity after a window —
    // the deque absorbs over-capacity demand while the overflow rule is
    // suspended, and a queue whose capacity was not a resize target keeps
    // its old size. The binding invariants are no conviction and no loss.
    ASSERT_FALSE(rig.any_fault()) << "false conviction at step " << step
                                  << " (seed " << GetParam() << ")";
  }

  // Close any window still open, then drain everything that was produced.
  t += 1'000'000;
  rig.sim.run_until(t);
  EXPECT_FALSE(rig.rc.window_open());
  for (int spin = 0; consumed < produced && spin < 100000; ++spin) {
    pump(read1, write1, hold1, pumped1, pumped2);
    pump(read2, write2, hold2, pumped2, pumped1);
    if (std::min(pumped1, pumped2) > consumed) {
      if (auto token = rig.sel.try_read()) {
        ASSERT_EQ(token->seq(), consumed);
        ++consumed;
      }
    }
  }
  EXPECT_EQ(consumed, produced) << "tokens lost across resizes (seed "
                                << GetParam() << ")";
  EXPECT_FALSE(rig.any_fault());
  EXPECT_EQ(rig.rc.stats().windows_opened, requested);
  EXPECT_EQ(rig.rc.stats().windows_completed, requested);
  EXPECT_EQ(rig.rc.stats().rejected_busy, rejected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigRandomized,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- scripted protocol sequencing ------------------------------------------

TEST(ReconfigProtocol, BackToBackWindowsApplyInRequestOrder) {
  Rig rig(2, 4, 5, /*quiesce=*/1'000'000);
  EXPECT_TRUE(rig.rc.request({.fifo1 = 6}));
  EXPECT_TRUE(rig.rc.window_open());
  EXPECT_FALSE(rig.rc.request({.fifo1 = 9}));  // busy
  rig.sim.run_until(1'000'000);
  EXPECT_FALSE(rig.rc.window_open());
  EXPECT_EQ(rig.rc.fifo1(), 6);
  EXPECT_EQ(rig.rc.fifo2(), 4);

  // Back-to-back: a new window opening at the very instant the last closed.
  EXPECT_TRUE(rig.rc.request({.fifo1 = 3, .divergence = 9}));
  rig.sim.run_until(2'000'000);
  EXPECT_EQ(rig.rc.fifo1(), 3);
  EXPECT_EQ(rig.rc.divergence(), 9);
  EXPECT_EQ(rig.rc.stats().windows_opened, 2u);
  EXPECT_EQ(rig.rc.stats().windows_completed, 2u);
  EXPECT_EQ(rig.rc.stats().targets_applied, 3u);
  EXPECT_EQ(rig.rc.stats().rejected_busy, 1u);
  EXPECT_EQ(rig.rc.stats().clamped, 0u);
  EXPECT_FALSE(rig.any_fault());
}

TEST(ReconfigProtocol, ShrinkClampsAtLiveOccupancy) {
  Rig rig(4, 4, 5, /*quiesce=*/1'000'000);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(rig.rep.try_write(make_token(seq)));
  }
  ASSERT_EQ(rig.rep.fill(ReplicaIndex::kReplica1), 3);

  // Shrinking to 1 with 3 tokens in flight must clamp to fill + 1, convict
  // nothing, and count the adjustment.
  EXPECT_TRUE(rig.rc.request({.fifo1 = 1, .fifo2 = 1}));
  rig.sim.run_until(1'000'000);
  EXPECT_EQ(rig.rc.fifo1(), 4);
  EXPECT_EQ(rig.rc.fifo2(), 4);
  EXPECT_EQ(rig.rc.stats().clamped, 2u);
  EXPECT_FALSE(rig.any_fault());

  // Once the queues drain, the same shrink goes through unclamped.
  auto& read1 = rig.rep.read_interface(ReplicaIndex::kReplica1);
  auto& read2 = rig.rep.read_interface(ReplicaIndex::kReplica2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(read1.try_read().has_value());
    ASSERT_TRUE(read2.try_read().has_value());
  }
  EXPECT_TRUE(rig.rc.request({.fifo1 = 1, .fifo2 = 1}));
  rig.sim.run_until(2'000'000);
  EXPECT_EQ(rig.rc.fifo1(), 1);
  EXPECT_EQ(rig.rc.fifo2(), 1);
  EXPECT_EQ(rig.rc.stats().clamped, 2u);
}

TEST(ReconfigProtocol, NarrowingDivergenceClampsAtTheLiveGap) {
  Rig rig(8, 8, 5, /*quiesce=*/1'000'000);
  auto& write1 = rig.sel.write_interface(ReplicaIndex::kReplica1);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(write1.try_write(make_token(seq)));
  }
  ASSERT_EQ(rig.rc.divergence_gap(), 3);

  EXPECT_TRUE(rig.rc.request({.divergence = 2}));
  rig.sim.run_until(1'000'000);
  // gap + 1 = 4: legal, zero slack, and no retroactive conviction.
  EXPECT_EQ(rig.rc.divergence(), 4);
  EXPECT_EQ(rig.rc.stats().clamped, 1u);
  EXPECT_FALSE(rig.any_fault());
}

TEST(ReconfigProtocol, WindowDuringRejoinFrontierHoldKeepsTheWriterHeld) {
  Rig rig(8, 8, 8, /*quiesce=*/1'000'000);
  auto& write1 = rig.sel.write_interface(ReplicaIndex::kReplica1);
  auto& write2 = rig.sel.write_interface(ReplicaIndex::kReplica2);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(write2.try_write(make_token(seq)));
  }

  // Replica 1 rejoins after recovery; its pipeline restarts ahead of the
  // delivered frontier (peer last delivered seq 2, so the frontier is 3).
  rig.sel.reintegrate(ReplicaIndex::kReplica1);
  EXPECT_FALSE(write1.try_write(make_token(5)));  // ahead: held

  // Re-anchoring is deferred across a reconfiguration window: even the
  // frontier token stays held until the window closes.
  EXPECT_TRUE(rig.rc.request({.divergence = 12}));
  EXPECT_FALSE(write1.try_write(make_token(3)));
  rig.sim.run_until(1'000'000);
  EXPECT_FALSE(rig.rc.window_open());

  // After resume the frontier write re-anchors and is accepted.
  EXPECT_TRUE(write1.try_write(make_token(3)));
  for (std::uint64_t expected = 0; expected < 4; ++expected) {
    auto token = rig.sel.try_read();
    ASSERT_TRUE(token.has_value());
    EXPECT_EQ(token->seq(), expected);
  }
  EXPECT_FALSE(rig.any_fault());
}

TEST(ReconfigProtocol, PendingTargetsSurviveASingleCopyCorruption) {
  Rig rig(2, 4, 5, /*quiesce=*/1'000'000);
  EXPECT_TRUE(rig.rc.request({.fifo1 = 7, .divergence = 9}));
  // Flip bits in one TMR copy of the pending-|F1| word while the window is
  // open; the apply phase must read the majority vote.
  rig.rc.corrupt_control_word(/*word=*/0, /*copy=*/1, /*mask=*/0xFF);
  const ft::ScrubReport report = rig.rc.scrub_control_state();
  EXPECT_EQ(report.repairs, 1);
  rig.sim.run_until(1'000'000);
  EXPECT_EQ(rig.rc.fifo1(), 7);
  EXPECT_EQ(rig.rc.divergence(), 9);
}

// --- chaos layer: full-system runs with benign periodic windows ------------

TEST(ReconfigChaos, FaultFreeWindowsDeliverTheGoldenStream) {
  chaos::ReconfigOptions reconfig;
  reconfig.enabled = true;
  const rtc::TimeNs run_length = rtc::from_ms(1500.0);
  chaos::StormPlan plan;
  plan.seed = 11;
  plan.run_length = run_length;

  chaos::RunOptions options;
  options.reconfig = reconfig;
  const chaos::RunObservation obs = chaos::run_storm(plan, options);
  ASSERT_FALSE(obs.contract_violation.has_value()) << *obs.contract_violation;
  EXPECT_GE(obs.reconfig_windows, 5u);
  EXPECT_GT(obs.reconfig_targets, 0u);

  // Window-matched golden: byte-identical stream.
  const chaos::RunObservation golden =
      chaos::run_golden(plan.seed, run_length, reconfig);
  EXPECT_EQ(obs.consumed_seqs, golden.consumed_seqs);
  EXPECT_EQ(obs.consumed_fingerprints, golden.consumed_fingerprints);
  EXPECT_TRUE(chaos::check_invariants(plan, obs, golden).empty());

  // Unresized golden: the windows may shift wake-ups (so lengths can differ
  // at the tail) but every delivered token must match, in order, bit-exact.
  const chaos::RunObservation plain = chaos::run_golden(plan.seed, run_length);
  const std::size_t common =
      std::min(obs.consumed_seqs.size(), plain.consumed_seqs.size());
  ASSERT_GT(common, 0u);
  EXPECT_TRUE(std::equal(obs.consumed_seqs.begin(),
                         obs.consumed_seqs.begin() + static_cast<std::ptrdiff_t>(common),
                         plain.consumed_seqs.begin()));
  EXPECT_TRUE(std::equal(
      obs.consumed_fingerprints.begin(),
      obs.consumed_fingerprints.begin() + static_cast<std::ptrdiff_t>(common),
      plain.consumed_fingerprints.begin()));
}

TEST(ReconfigChaos, LosslessStormsStayGreenAcrossWindows) {
  chaos::StormConfig config;
  config.run_length = rtc::from_ms(1500.0);
  config.reconfigure = true;
  const chaos::StormGenerator generator(config);

  chaos::ReconfigOptions reconfig;
  reconfig.enabled = true;
  chaos::RunOptions options;
  options.reconfig = reconfig;

  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40 && checked < 4; ++seed) {
    const chaos::StormPlan plan = generator.generate(seed);
    if (!chaos::plan_is_lossless(plan.faults)) continue;
    ++checked;
    const chaos::RunObservation obs = chaos::run_storm(plan, options);
    ASSERT_FALSE(obs.contract_violation.has_value())
        << "seed " << seed << ": " << *obs.contract_violation;
    const chaos::RunObservation golden =
        chaos::run_golden(plan.seed, plan.run_length, reconfig);
    const auto violations = chaos::check_invariants(plan, obs, golden);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << " first violation: "
        << (violations.empty() ? "" : violations.front().detail);
    EXPECT_GE(obs.reconfig_windows, 4u) << "seed " << seed;
  }
  ASSERT_EQ(checked, 4) << "not enough lossless storms in the seed range";
}

// --- storm template 7: faults inside a reconfiguration window --------------

bool in_reconfig_window(const ft::FaultSpec& fault) {
  return fault.at >= chaos::kReconfigPeriodNs &&
         fault.at % chaos::kReconfigPeriodNs < chaos::kReconfigWindowNs;
}

/// Template-7 signature: an onset pinned inside a window plus a cross-replica
/// follow-up 150-500 ms later (a random onset can land in a window by
/// coincidence — one in ~125 — so the scan for the *template* requires both).
bool is_window_template_plan(const chaos::StormPlan& plan) {
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    if (!in_reconfig_window(plan.faults[i])) continue;
    for (std::size_t j = 0; j < plan.faults.size(); ++j) {
      const rtc::TimeNs gap = plan.faults[j].at - plan.faults[i].at;
      if (j != i && gap >= rtc::from_ms(150.0) && gap <= rtc::from_ms(500.0)) {
        return true;
      }
    }
  }
  return false;
}

constexpr std::uint64_t kPinnedSeed = 16;
constexpr const char* kPinnedPlan =
    "fault transient-silence 2 1250678429 396023900 4 1 0 0 "
    "7523731266670064322 0 0 0 0 3 50000 0\n"
    "fault rate-degradation 1 1405096062 317293248 2.5818881188254625 1 0 0 "
    "6948467965160479165 0 0 0 0 3 50000 0\n"
    "fault intermittent-silence 2 1384968827 336278876 4 1 52577666 86940570 "
    "11818542425071029415 0 0 0 0 3 50000 0\n";

TEST(ReconfigChaos, GeneratorTargetsReconfigWindowsOnlyWhenEnabled) {
  chaos::StormConfig vanilla;
  vanilla.run_length = rtc::from_ms(2000.0);
  chaos::StormConfig extended = vanilla;
  extended.reconfigure = true;
  const chaos::StormGenerator base(vanilla);
  const chaos::StormGenerator armed(extended);

  int in_window_plans = 0;
  int diverged_plans = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const chaos::StormPlan a = base.generate(seed);
    const chaos::StormPlan b = armed.generate(seed);
    if (ft::serialize(a.faults) != ft::serialize(b.faults)) ++diverged_plans;
    if (std::any_of(b.faults.begin(), b.faults.end(), in_reconfig_window)) {
      ++in_window_plans;
    }
  }
  // The template draw is randomized; over 48 seeds the armed generator must
  // have produced at least one onset pinned inside a window.
  EXPECT_GE(in_window_plans, 1);
  EXPECT_GE(diverged_plans, 1);
}

TEST(ReconfigChaos, PinnedWindowTemplatePlanStaysGreen) {
  // Exact-plan regression for the reconfiguration-window adversarial
  // template: the first armed seed whose storm lands a silence onset between
  // quiesce and resume. Pinned byte-for-byte — a generator change that moves
  // it must update this test deliberately.
  chaos::StormConfig config;
  config.run_length = rtc::from_ms(2000.0);
  config.reconfigure = true;
  const chaos::StormGenerator generator(config);

  std::optional<chaos::StormPlan> pinned;
  std::uint64_t pinned_seed = 0;
  for (std::uint64_t seed = 1; seed <= 48 && !pinned; ++seed) {
    chaos::StormPlan plan = generator.generate(seed);
    if (is_window_template_plan(plan)) {
      pinned = std::move(plan);
      pinned_seed = seed;
    }
  }
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(pinned_seed, kPinnedSeed);
  EXPECT_EQ(ft::serialize(pinned->faults), kPinnedPlan);

  // The pinned plan runs under fire: deferred detection and held-writer
  // wake-ups execute with the fault already live inside the window.
  chaos::RunOptions options;
  options.reconfig.enabled = true;
  const chaos::RunObservation obs = chaos::run_storm(*pinned, options);
  ASSERT_FALSE(obs.contract_violation.has_value()) << *obs.contract_violation;
  const chaos::RunObservation golden =
      chaos::run_golden(pinned->seed, pinned->run_length, options.reconfig);
  const auto violations = chaos::check_invariants(*pinned, obs, golden);
  EXPECT_TRUE(violations.empty())
      << "first violation: "
      << (violations.empty() ? "" : violations.front().detail);
}

// --- artifact format --------------------------------------------------------

TEST(ReconfigChaos, ArtifactRoundTripsTheReconfigureLine) {
  chaos::FailureArtifact artifact;
  artifact.seed = 42;
  artifact.run_length = rtc::from_ms(2000.0);
  artifact.reconfig.enabled = true;
  artifact.reconfig.period = rtc::from_ms(125.0);
  artifact.reconfig.quiesce_window = rtc::from_ms(3.0);
  artifact.reconfig.grow = 5;
  artifact.violations.push_back(
      chaos::Violation{chaos::ViolationCode::kContractViolation, "probe"});
  ft::FaultSpec silence;
  silence.kind = ft::FaultKind::kPermanentSilence;
  silence.replica = ReplicaIndex::kReplica1;
  silence.at = rtc::from_ms(400.0);
  artifact.plan.push_back(silence);

  const chaos::FailureArtifact parsed =
      chaos::parse_artifact(chaos::serialize(artifact));
  EXPECT_TRUE(parsed.reconfig.enabled);
  EXPECT_EQ(parsed.reconfig.period, rtc::from_ms(125.0));
  EXPECT_EQ(parsed.reconfig.quiesce_window, rtc::from_ms(3.0));
  EXPECT_EQ(parsed.reconfig.grow, 5);
  EXPECT_EQ(chaos::serialize(parsed), chaos::serialize(artifact));
}

TEST(ReconfigChaos, LegacyArtifactsWithoutTheReconfigureLineParseDisabled) {
  const std::string legacy =
      "sccft-chaos-artifact v1\n"
      "seed 3\n"
      "run-length-ns 2000000000\n"
      "planted none\n"
      "violation stalled-stream nothing was ever delivered\n"
      "plan-begin\n"
      "plan-end\n"
      "flight-begin\n"
      "flight-end\n"
      "registry-begin\n"
      "registry-end\n";
  const chaos::FailureArtifact parsed = chaos::parse_artifact(legacy);
  EXPECT_FALSE(parsed.reconfig.enabled);
  EXPECT_EQ(parsed.reconfig.period, chaos::kReconfigPeriodNs);
  EXPECT_EQ(parsed.reconfig.quiesce_window, chaos::kReconfigWindowNs);
}

}  // namespace
}  // namespace sccft::adapt
