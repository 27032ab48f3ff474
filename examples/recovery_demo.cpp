// Example: replica recovery and reintegration (extension beyond the paper).
//
// Timeline: replica 1 is killed at 400 ms and detected by the framework; at
// 1000 ms it is repaired (processes restarted, channels reintegrated, pair
// identity re-synchronized from token sequence numbers); at 1600 ms replica
// 2 is killed — and the *repaired* replica 1 carries the stream, proving the
// system regained its fault-tolerance margin.
#include <iostream>
#include <vector>

#include "ft/framework.hpp"
#include "ft/recovery.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"

using namespace sccft;

int main() {
  sim::Simulator simulator;
  kpn::Network net(simulator);

  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                            rtc::PJD::from_ms(10, 6, 10)};
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);
  ft::FaultTolerantHarness harness(net, {.timing = timing, .name_prefix = "rec"});

  net.add_process("producer", scc::CoreId{0}, 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(8, static_cast<std::uint8_t>(k));
                      co_await kpn::write(harness.replicator(),
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  auto replica_body = [&](ft::ReplicaIndex which, rtc::PJD model) {
    return [&, which, model](kpn::ProcessContext& ctx) -> sim::Task {
      // Anchor the shaper at (re)start time: a rejoining replica paces
      // itself from the moment it comes back.
      kpn::TimingShaper emit(model, ctx.now(), ctx.rng());
      while (true) {
        SCCFT_FAULT_GATE(ctx);
        kpn::Token token =
            co_await kpn::read(harness.replicator().read_interface(which));
        SCCFT_FAULT_GATE(ctx);
        const rtc::TimeNs t = emit.next_emission(ctx.now());
        if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
        SCCFT_FAULT_GATE(ctx);
        co_await kpn::write(harness.selector().write_interface(which), token);
        emit.commit(ctx.now());
      }
    };
  };
  std::vector<kpn::Process*> replicas{
      &net.add_process("replica1", scc::CoreId{2}, 2,
                       replica_body(ft::ReplicaIndex::kReplica1, timing.replica_out[0])),
      &net.add_process("replica2", scc::CoreId{4}, 3,
                       replica_body(ft::ReplicaIndex::kReplica2, timing.replica_out[1]))};

  std::uint64_t received = 0;
  bool intact = true;
  std::uint64_t expected = 0;
  net.add_process("consumer", scc::CoreId{6}, 4,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      kpn::Token token = co_await kpn::read(harness.selector());
                      shaper.commit(ctx.now());
                      if (token.seq() != expected) intact = false;
                      expected = token.seq() + 1;
                      ++received;
                    }
                  });

  auto kill = [&](ft::ReplicaIndex r, rtc::TimeNs at) {
    simulator.schedule_at(at, [&, r, at] {
      replicas[static_cast<std::size_t>(index_of(r))]->context().fault().silenced = true;
      harness.replicator().freeze_reader(r);
      harness.selector().freeze_writer(r);
      std::cout << rtc::to_ms(at) << " ms: " << ft::to_string(r) << " killed\n";
    });
  };
  auto repair = [&](ft::ReplicaIndex r, rtc::TimeNs at) {
    simulator.schedule_at(at, [&, r, at] {
      ft::ReplicaAssets assets{
          r, {replicas[static_cast<std::size_t>(index_of(r))]}, {}};
      ft::recover_replica(harness.replicator(), harness.selector(), assets);
      std::cout << rtc::to_ms(at) << " ms: " << ft::to_string(r)
                << " repaired and reintegrated\n";
    });
  };

  kill(ft::ReplicaIndex::kReplica1, rtc::from_ms(400.0));
  repair(ft::ReplicaIndex::kReplica1, rtc::from_ms(1000.0));
  kill(ft::ReplicaIndex::kReplica2, rtc::from_ms(1600.0));

  net.run_until(rtc::from_sec(2.5));

  for (const auto& d : harness.detections().records) {
    std::cout << "detected " << ft::to_string(d.replica) << " via "
              << ft::to_string(d.rule) << " at " << rtc::to_ms(d.detected_at)
              << " ms\n";
  }
  std::cout << "Consumer received " << received << " tokens, stream "
            << (intact ? "intact" : "CORRUPTED") << ".\n";

  const bool r2_detected = harness.selector().fault(ft::ReplicaIndex::kReplica2) ||
                           harness.replicator().fault(ft::ReplicaIndex::kReplica2);
  const bool ok = intact && received > 230 && r2_detected &&
                  !harness.selector().fault(ft::ReplicaIndex::kReplica1);
  std::cout << (ok ? "SUCCESS" : "FAILURE")
            << ": fault -> repair -> second fault, all tolerated.\n";
  return ok ? 0 : 1;
}
