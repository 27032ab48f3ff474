// Scrubbing tests: Tmr voting and self-healing writes, channel control-word
// corruption + majority repair through the Scrubbable interface, and the
// periodic Scrubber (repair metrics, kScrubRepair events, flight-ring
// resync of a wedged sink).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ft/framework.hpp"
#include "ft/scrub.hpp"
#include "kpn/network.hpp"
#include "sim/simulator.hpp"
#include "trace/bus.hpp"
#include "trace/sinks.hpp"

namespace sccft::ft {
namespace {

// --- Tmr<T> word semantics -------------------------------------------------

TEST(Tmr, SingleCopyCorruptionIsOutvoted) {
  Tmr<std::int64_t> word = 42;
  word.corrupt(1, 0x10);
  EXPECT_EQ(word.vote(), 42);  // 2-of-3 majority holds
  word.corrupt(1, 0x10);       // XOR is its own inverse
  EXPECT_EQ(word.vote(), 42);
}

TEST(Tmr, WritesRefreshAllCopies) {
  Tmr<std::int64_t> word = 5;
  word.corrupt(2, 0xFF);
  word = 7;  // read-modify-write self-heals
  word.corrupt(0, 0);  // no-op corruption; all copies must already agree
  EXPECT_EQ(word.vote(), 7);
  EXPECT_EQ(word.scrub().repairs, 0);
}

TEST(Tmr, ScrubRepairsTheMinorityCopy) {
  Tmr<std::int64_t> word = 42;
  word.corrupt(2, 0x4);
  const ScrubWordResult result = word.scrub();
  EXPECT_EQ(result.repairs, 1);
  EXPECT_FALSE(result.unrepairable);
  EXPECT_EQ(word.vote(), 42);
  EXPECT_EQ(word.scrub().repairs, 0);  // idempotent once repaired
}

TEST(Tmr, AllDistinctCopiesFallBackToCopyZeroAndReportUnrepairable) {
  Tmr<std::int64_t> word = 42;
  word.corrupt(1, 0x1);
  word.corrupt(2, 0x2);
  EXPECT_EQ(word.vote(), 42);  // copy 0 untouched; fallback is still correct
  const ScrubWordResult result = word.scrub();
  EXPECT_TRUE(result.unrepairable);
  EXPECT_EQ(result.repairs, 2);
  EXPECT_EQ(word.vote(), 42);

  // The dangerous variant: copy 0 itself corrupted, the other two distinct.
  Tmr<std::int64_t> bad = 42;
  bad.corrupt(0, 0x8);
  bad.corrupt(1, 0x2);
  EXPECT_EQ(bad.vote(), 42 ^ 0x8);  // fallback adopts the corrupt copy 0
  EXPECT_TRUE(bad.scrub().unrepairable);
}

TEST(Tmr, CompoundOpsVoteThenRewrite) {
  Tmr<std::int64_t> word = 10;
  word.corrupt(1, 0xFF00);
  word += 5;  // votes (10), adds, rewrites all three copies
  EXPECT_EQ(word.vote(), 15);
  EXPECT_EQ(word.scrub().repairs, 0);
  ++word;
  word -= 6;
  EXPECT_EQ(word.vote(), 10);
}

// --- channel Scrubbable surfaces ------------------------------------------

struct ChannelRig {
  sim::Simulator simulator;
  kpn::Network net{simulator};
  FaultTolerantHarness harness;

  ChannelRig() : harness(net, make_config()) {}

  static FaultTolerantHarness::Config make_config() {
    AppTimingSpec timing;
    timing.producer = rtc::PJD::from_ms(10, 1, 10);
    timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                              rtc::PJD::from_ms(10, 6, 10)};
    timing.consumer = rtc::PJD::from_ms(10, 1, 10);
    return FaultTolerantHarness::Config{.timing = timing};
  }
};

TEST(ChannelScrub, WordCountsMatchTheDocumentedLayout) {
  ChannelRig rig;
  // Replicator: one virtual-fill word per side. Selector: six words per side
  // plus the enqueue frontier and the divergence threshold.
  EXPECT_EQ(rig.harness.replicator().control_word_count(), 2);
  EXPECT_EQ(rig.harness.selector().control_word_count(), 14);
  EXPECT_FALSE(rig.harness.replicator().scrub_name().empty());
  EXPECT_FALSE(rig.harness.selector().scrub_name().empty());
}

TEST(ChannelScrub, CorruptedControlWordIsMajorityRepaired) {
  ChannelRig rig;
  for (int word = 0; word < rig.harness.selector().control_word_count(); ++word) {
    rig.harness.selector().corrupt_control_word(word, 1, 0x20);
  }
  const ScrubReport report = rig.harness.selector().scrub_control_state();
  EXPECT_EQ(report.words, 14);
  EXPECT_EQ(report.repairs, 14);
  EXPECT_EQ(report.unrepairable, 0);
  // A second scrub finds a fully consistent channel.
  const ScrubReport second = rig.harness.selector().scrub_control_state();
  EXPECT_EQ(second.repairs, 0);
}

// --- the periodic Scrubber -------------------------------------------------

struct ScrubEventLog : trace::Sink {
  std::vector<trace::Event> events;
  void on_event(const trace::Event& event) override { events.push_back(event); }
};

TEST(Scrubber, PeriodicallyRepairsRegisteredTargetsAndCounts) {
  ChannelRig rig;
  ScrubEventLog log;
  rig.simulator.trace().subscribe(&log, trace::bit(trace::EventKind::kScrubRepair));
  Scrubber scrubber(rig.simulator, {.period = rtc::from_ms(5.0)});
  scrubber.add_target(&rig.harness.replicator());
  scrubber.add_target(&rig.harness.selector());
  scrubber.start();

  rig.simulator.schedule_at(rtc::from_ms(12.0), [&] {
    rig.harness.selector().corrupt_control_word(3, 2, 0x40);
  });
  rig.simulator.run_until(rtc::from_ms(30.0));

  // Repaired on the first tick after the flip (15 ms), and never again.
  EXPECT_EQ(scrubber.total_repairs(), 1u);
  EXPECT_EQ(rig.simulator.trace().metrics().counter("scrub.repairs"), 1u);
  EXPECT_EQ(rig.simulator.trace().metrics().counter("scrub.unrepairable"), 0u);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].time, rtc::from_ms(15.0));
  EXPECT_EQ(log.events[0].a, 1);  // target index 1 = the selector
  EXPECT_EQ(log.events[0].b, 1);  // one copy rewritten
  rig.simulator.trace().unsubscribe(&log);
}

TEST(Scrubber, ResyncsAWedgedFlightRing) {
  sim::Simulator simulator;
  trace::RingBufferSink ring(64);
  const std::uint32_t mask = trace::bit(trace::EventKind::kHeartbeat);
  simulator.trace().subscribe(&ring, mask);
  // The independent tally the audit cross-checks: count the same events.
  std::uint64_t tally = 0;
  struct Tally : trace::Sink {
    std::uint64_t* count;
    void on_event(const trace::Event&) override { ++*count; }
  } counter;
  counter.count = &tally;
  simulator.trace().subscribe(&counter, mask);

  Scrubber scrubber(simulator, {.period = rtc::from_ms(5.0)});
  scrubber.watch_flight_ring(&ring, [&] { return tally; });
  scrubber.start();

  const trace::SubjectId subject = simulator.trace().intern("beacon");
  for (int i = 1; i <= 20; ++i) {
    simulator.schedule_at(i * rtc::from_ms(2.0), [&, subject] {
      simulator.trace().emit(trace::EventKind::kHeartbeat, subject,
                             simulator.now());
    });
  }
  simulator.schedule_at(rtc::from_ms(7.0), [&] { ring.set_wedged(true); });
  simulator.run_until(rtc::from_ms(50.0));

  // The wedge lost at most one 5 ms window of events before the audit
  // force-resynced the ring; by the end the totals agree again.
  EXPECT_FALSE(ring.wedged());
  EXPECT_GE(scrubber.ring_resyncs(), 1u);
  EXPECT_EQ(ring.total_events(), tally);
  EXPECT_EQ(simulator.trace().metrics().counter("scrub.flight_ring_resyncs"),
            scrubber.ring_resyncs());

  simulator.trace().unsubscribe(&ring);
  simulator.trace().unsubscribe(&counter);
}

}  // namespace
}  // namespace sccft::ft
