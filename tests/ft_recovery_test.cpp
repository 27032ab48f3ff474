// Replica recovery / reintegration tests: a killed replica is restarted,
// rejoins the stream with exact duplicate-pair alignment, and the repaired
// system then tolerates a fault in the OTHER replica.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "ft/framework.hpp"
#include "ft/recovery.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {
namespace {

struct Rig {
  sim::Simulator simulator;
  kpn::Network net{simulator};
  ft::AppTimingSpec timing;
  std::optional<FaultTolerantHarness> harness;
  std::vector<kpn::Process*> replicas;
  std::vector<std::uint64_t> consumed;
  bool gap = false;
  bool duplicate = false;

  Rig() {
    timing.producer = rtc::PJD::from_ms(10, 1, 10);
    timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                              rtc::PJD::from_ms(10, 6, 10)};
    timing.consumer = rtc::PJD::from_ms(10, 1, 10);
    harness.emplace(net, FaultTolerantHarness::Config{.timing = timing});

    net.add_process("producer", scc::CoreId{0}, 1,
                    [this](kpn::ProcessContext& ctx) -> sim::Task {
                      kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                      for (std::uint64_t k = 0;; ++k) {
                        const rtc::TimeNs t = shaper.next_emission(ctx.now());
                        if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                        std::vector<std::uint8_t> payload(4, static_cast<std::uint8_t>(k));
                        co_await kpn::write(harness->replicator(),
                                            kpn::Token(std::move(payload), k, ctx.now()));
                        shaper.commit(ctx.now());
                      }
                    });

    auto replica_body = [this](ReplicaIndex which, rtc::PJD model) {
      return [this, which, model](kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
        while (true) {
          SCCFT_FAULT_GATE(ctx);
          kpn::Token token =
              co_await kpn::read(harness->replicator().read_interface(which));
          SCCFT_FAULT_GATE(ctx);
          const rtc::TimeNs t = emit.next_emission(ctx.now());
          if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
          SCCFT_FAULT_GATE(ctx);
          co_await kpn::write(harness->selector().write_interface(which), token);
          emit.commit(ctx.now());
        }
      };
    };
    replicas.push_back(&net.add_process(
        "r1", scc::CoreId{2}, 2, replica_body(ReplicaIndex::kReplica1, timing.replica_out[0])));
    replicas.push_back(&net.add_process(
        "r2", scc::CoreId{4}, 3, replica_body(ReplicaIndex::kReplica2, timing.replica_out[1])));

    net.add_process("consumer", scc::CoreId{6}, 4,
                    [this](kpn::ProcessContext& ctx) -> sim::Task {
                      kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                      std::uint64_t expected = 0;
                      while (true) {
                        const rtc::TimeNs t = shaper.next_emission(ctx.now());
                        if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                        kpn::Token token = co_await kpn::read(harness->selector());
                        shaper.commit(ctx.now());
                        if (token.seq() > expected) gap = true;
                        if (token.seq() < expected) duplicate = true;
                        expected = token.seq() + 1;
                        consumed.push_back(token.seq());
                      }
                    });
  }

  void kill(ReplicaIndex r, rtc::TimeNs at) {
    simulator.schedule_at(at, [this, r] {
      replicas[static_cast<std::size_t>(index_of(r))]->context().fault().silenced = true;
      harness->replicator().freeze_reader(r);
      harness->selector().freeze_writer(r);
    });
  }

  void recover(ReplicaIndex r, rtc::TimeNs at) {
    simulator.schedule_at(at, [this, r] {
      ReplicaAssets assets{r, {replicas[static_cast<std::size_t>(index_of(r))]}, {}};
      recover_replica(harness->replicator(), harness->selector(), assets);
    });
  }

  /// Transient outage: silence + freeze at `at`, self-clearing silence and
  /// channel unfreeze at `at + duration` (no restart involved).
  void pause(ReplicaIndex r, rtc::TimeNs at, rtc::TimeNs duration) {
    simulator.schedule_at(at, [this, r, until = at + duration] {
      auto& fault = replicas[static_cast<std::size_t>(index_of(r))]->context().fault();
      fault.silenced = true;
      fault.silence_until = until;
      harness->replicator().freeze_reader(r);
      harness->selector().freeze_writer(r);
    });
    simulator.schedule_at(at + duration, [this, r] {
      replicas[static_cast<std::size_t>(index_of(r))]->context().fault().clear_silence();
      harness->replicator().unfreeze_reader(r);
      harness->selector().unfreeze_writer(r);
    });
  }
};

TEST(Recovery, ReplicaRejoinsWithoutCorruptingStream) {
  Rig rig;
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(800.0));
  rig.net.run_until(rtc::from_sec(2.0));

  EXPECT_FALSE(rig.gap) << "token lost across fault or rejoin";
  EXPECT_FALSE(rig.duplicate) << "duplicate delivered after rejoin";
  EXPECT_GT(rig.consumed.size(), 180u);
  // The rejoined replica is healthy again and participating.
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.harness->replicator().fault(ReplicaIndex::kReplica1));
  EXPECT_GT(rig.harness->selector().tokens_received(ReplicaIndex::kReplica1), 0u);
}

TEST(Recovery, RepairedSystemToleratesSecondFault) {
  Rig rig;
  // Fault 1 in replica 1; recover it; fault 2 in replica 2.
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(800.0));
  rig.kill(ReplicaIndex::kReplica2, rtc::from_ms(1300.0));
  rig.net.run_until(rtc::from_sec(2.5));

  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 230u);  // stream survived both faults
  // Replica 2's fault was detected after replica 1 rejoined.
  EXPECT_TRUE(rig.harness->selector().fault(ReplicaIndex::kReplica2) ||
              rig.harness->replicator().fault(ReplicaIndex::kReplica2));
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
}

TEST(Recovery, SameReplicaFaultsRecoversAndFaultsAgain) {
  Rig rig;
  // The same replica dies twice; each recovery must fully re-arm it — stale
  // state from the first fault/repair cycle must not poison the second.
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(600.0));
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(1000.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(1300.0));
  rig.net.run_until(rtc::from_sec(2.0));

  EXPECT_FALSE(rig.gap) << "token lost across one of the two fault cycles";
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 180u);
  // After the second recovery the replica participates again.
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.harness->replicator().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.replicas[0]->context().fault().faulty());
}

TEST(Recovery, RecoveryWhilePeerIsMidBurstKeepsTheStreamIntact) {
  Rig rig;
  // Replica 1 dies and is recovered at t=800ms — exactly while replica 2
  // sits in a short transient outage (a burst of an intermittent fault).
  // The rejoin must not rely on the peer being live at that instant, and
  // nothing may deadlock even though both replicas are briefly down.
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.pause(ReplicaIndex::kReplica2, rtc::from_ms(790.0), rtc::from_ms(25.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(800.0));
  rig.net.run_until(rtc::from_sec(2.0));

  EXPECT_FALSE(rig.gap);
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 150u);
  // Both replicas ended up live: replica 1 rejoined, replica 2's burst ended.
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.replicas[1]->context().fault().silenced);
  EXPECT_GT(rig.harness->selector().tokens_received(ReplicaIndex::kReplica1), 0u);
}

TEST(Recovery, ReintegrationClearsDetectionState) {
  sim::Simulator simulator;
  kpn::Network net(simulator);
  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                            rtc::PJD::from_ms(10, 6, 10)};
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);
  FaultTolerantHarness harness(net, {.timing = timing});

  // Force a replicator overflow on queue 1.
  for (std::uint64_t k = 0; k < 5; ++k) {
    std::vector<std::uint8_t> payload{1};
    ASSERT_TRUE(harness.replicator().try_write(kpn::Token(std::move(payload), k, 0)));
    (void)harness.replicator().read_interface(ReplicaIndex::kReplica2).try_read();
  }
  ASSERT_TRUE(harness.replicator().fault(ReplicaIndex::kReplica1));

  harness.replicator().reintegrate(ReplicaIndex::kReplica1);
  EXPECT_FALSE(harness.replicator().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(harness.replicator().detection(ReplicaIndex::kReplica1).has_value());
  EXPECT_EQ(harness.replicator().fill(ReplicaIndex::kReplica1), 0);
  // New writes flow into the reopened queue again.
  std::vector<std::uint8_t> payload{2};
  ASSERT_TRUE(harness.replicator().try_write(kpn::Token(std::move(payload), 99, 0)));
  EXPECT_EQ(harness.replicator().fill(ReplicaIndex::kReplica1), 1);
}

TEST(Recovery, SelectorResyncAlignsPairs) {
  sim::Simulator simulator;
  SelectorChannel selector(simulator, "sel",
                           {.capacities = {4, 4},
                            .initials = {2, 2},
                            .divergence_threshold = 50,
                            .enable_stall_rule = false});
  auto& w1 = selector.write_interface(ReplicaIndex::kReplica1);
  auto& w2 = selector.write_interface(ReplicaIndex::kReplica2);
  auto make = [](std::uint64_t seq) {
    return kpn::Token(std::vector<std::uint8_t>{static_cast<std::uint8_t>(seq)}, seq, 0);
  };
  // Both deliver pairs 0..2; then replica 1 goes down.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(w1.try_write(make(k)));
    ASSERT_TRUE(w2.try_write(make(k)));
    (void)selector.try_read();
  }
  selector.freeze_writer(ReplicaIndex::kReplica1);
  // Replica 2 alone delivers 3..6.
  for (std::uint64_t k = 3; k < 7; ++k) {
    ASSERT_TRUE(w2.try_write(make(k)));
    (void)selector.try_read();
  }
  // Reintegrate replica 1; it resumes at seq 7 (skipping 3..6).
  selector.reintegrate(ReplicaIndex::kReplica1);
  ASSERT_TRUE(w1.try_write(make(7)));  // FIRST of pair 7: must enqueue
  auto fresh = selector.try_read();
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->seq(), 7u);
  // Replica 2's 7 is now the late duplicate: dropped.
  const auto fill_before = selector.fill();
  ASSERT_TRUE(w2.try_write(make(7)));
  EXPECT_EQ(selector.fill(), fill_before);
}

/// Collects every event of the subscribed mask (test-side flight recorder).
struct EventLog final : trace::Sink {
  std::vector<trace::Event> events;
  void on_event(const trace::Event& event) override { events.push_back(event); }
};

TEST(Recovery, RecoverReplicaEmitsReintegrateOnBothChannels) {
  Rig rig;
  EventLog log;
  rig.simulator.trace().subscribe(&log, trace::bit(trace::EventKind::kReintegrate));
  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.recover(ReplicaIndex::kReplica1, rtc::from_ms(800.0));
  rig.net.run_until(rtc::from_sec(1.2));
  rig.simulator.trace().unsubscribe(&log);

  // recover_replica leaves a typed repair boundary on BOTH channels, so a
  // flight-recorder dump brackets the re-admission instant.
  ASSERT_EQ(log.events.size(), 2u);
  for (const trace::Event& event : log.events) {
    EXPECT_EQ(event.kind, trace::EventKind::kReintegrate);
    EXPECT_EQ(event.time, rtc::from_ms(800.0));
    EXPECT_EQ(event.a, index_of(ReplicaIndex::kReplica1));
  }
  // One from the replicator, one from the selector: distinct subjects.
  EXPECT_NE(log.events[0].subject, log.events[1].subject);
}

TEST(Recovery, DoubleFaultDuringReintegrationWindowStaysLiveAndOrdered) {
  Rig rig;
  std::array<ReplicaAssets, 2> assets{
      ReplicaAssets{ReplicaIndex::kReplica1, {rig.replicas[0]}, {}},
      ReplicaAssets{ReplicaIndex::kReplica2, {rig.replicas[1]}, {}}};
  Supervisor supervisor(rig.simulator, rig.harness->replicator(),
                        rig.harness->selector(), assets,
                        {.restart_budget = 3,
                         .initial_backoff = rtc::from_ms(20.0)});

  // Replica 1 dies; the supervisor convicts and restarts it. The moment that
  // restart fires (kRestart on the bus), replica 2 is killed — i.e. the
  // second fault lands deterministically inside replica 1's reintegration
  // window, while its selector side is still awaiting its sequence-number
  // resync. Coupling the injection to the event (not a tuned constant) makes
  // the adversarial interleaving hold for any timing model.
  struct KillOnRestart final : trace::Sink {
    Rig* rig = nullptr;
    bool fired = false;
    void on_event(const trace::Event& event) override {
      if (fired || event.a != index_of(ReplicaIndex::kReplica1)) return;
      fired = true;
      const rtc::TimeNs at = event.time + rtc::from_ms(2.0);
      rig->kill(ReplicaIndex::kReplica2, at);
    }
  };
  KillOnRestart second_fault;
  second_fault.rig = &rig;
  rig.simulator.trace().subscribe(&second_fault,
                                  trace::bit(trace::EventKind::kRestart));

  rig.kill(ReplicaIndex::kReplica1, rtc::from_ms(300.0));
  rig.net.run_until(rtc::from_sec(2.4));
  rig.simulator.trace().unsubscribe(&second_fault);

  // Tokens replica 2 had read but not yet delivered when it died are lost to
  // both replicas (replica 1's queue was cleared while it was down) — that
  // gap is inherent to the double fault, and conviction of replica 2 lifts
  // replica 1's rejoin frontier-hold exactly so the stream keeps flowing.
  // What must NEVER happen, gap or not: duplicates or sequence regressions.
  EXPECT_TRUE(second_fault.fired) << "replica 1 was never restarted";
  EXPECT_FALSE(rig.duplicate);
  EXPECT_GT(rig.consumed.size(), 150u) << "stream stalled across the double fault";
  // Both replicas were repaired: one restart each, both healthy at the end.
  EXPECT_EQ(supervisor.health(ReplicaIndex::kReplica1), ReplicaHealth::kHealthy);
  EXPECT_EQ(supervisor.health(ReplicaIndex::kReplica2), ReplicaHealth::kHealthy);
  EXPECT_EQ(supervisor.report(ReplicaIndex::kReplica1).restarts, 1);
  EXPECT_EQ(supervisor.report(ReplicaIndex::kReplica2).restarts, 1);
  // And the repaired pair is really participating again.
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica1));
  EXPECT_FALSE(rig.harness->selector().fault(ReplicaIndex::kReplica2));
}

}  // namespace
}  // namespace sccft::ft
