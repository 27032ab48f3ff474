// Quickstart: make a tiny stream-processing application fault-tolerant in
// ~80 lines.
//
//   1. describe the interface timing (<period, jitter, delay> per interface),
//   2. build a FaultTolerantHarness — it sizes the replicator/selector
//      channels from the Real-Time Calculus analysis (paper Eq. 3-5) and
//      computes worst-case detection latency bounds (Eq. 6-8),
//   3. attach a producer, two replicas, and a consumer as coroutines,
//   4. inject a silence fault into replica 1 and watch it get detected —
//      with zero runtime timekeeping — while the consumer's output stream
//      continues unharmed.
#include <iostream>

#include "ft/fault_injector.hpp"
#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"

using namespace sccft;

int main() {
  sim::Simulator simulator;
  kpn::Network net(simulator);

  // 1. Timing models: producer at 10 ms period with 1 ms jitter; replica 1
  //    tight (2 ms jitter), replica 2 sloppier (10 ms jitter) — the "design
  //    diversity" between replicas.
  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.replica_in = timing.replica_out = {rtc::PJD::from_ms(10, 2, 10),
                                            rtc::PJD::from_ms(10, 10, 10)};
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);

  // 2. The harness runs the design-time analysis and builds the channels.
  ft::FaultTolerantHarness harness(net, {.timing = timing, .name_prefix = "demo"});
  const auto& sizing = harness.sizing();
  std::cout << "Sizing: |R1|=" << sizing.replicator_capacity[0]
            << " |R2|=" << sizing.replicator_capacity[1]
            << " |S1|=" << sizing.selector_capacity[0]
            << " |S2|=" << sizing.selector_capacity[1] << " D=" << sizing.selector_threshold
            << "\nWorst-case detection: replicator "
            << rtc::to_ms(sizing.replicator_overflow_bound) << " ms, selector "
            << rtc::to_ms(sizing.selector_latency_bound) << " ms\n\n";

  // 3. Processes. The "application" doubles every byte of an 8-byte counter
  //    token; each replica is one coroutine process.
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

  auto replica_body = [&](ft::ReplicaIndex which, const rtc::PJD& model) {
    return [&, which, model](kpn::ProcessContext& ctx) -> sim::Task {
      kpn::TimingShaper emit(model, 0, ctx.rng());
      auto& input = harness.replicator().read_interface(which);
      auto& output = harness.selector().write_interface(which);
      while (true) {
        SCCFT_FAULT_GATE(ctx);
        kpn::Token token = co_await kpn::read(input);
        SCCFT_FAULT_GATE(ctx);
        std::vector<std::uint8_t> doubled(token.payload().begin(), token.payload().end());
        for (auto& b : doubled) b = static_cast<std::uint8_t>(b * 2);
        const rtc::TimeNs t = emit.next_emission(ctx.now());
        if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
        co_await kpn::write(output, kpn::Token(std::move(doubled), token.seq(), ctx.now()));
        emit.commit(ctx.now());
      }
    };
  };
  auto& r1 = net.add_process("replica1", scc::CoreId{2}, 2,
                             replica_body(ft::ReplicaIndex::kReplica1, timing.replica_out[0]));
  net.add_process("replica2", scc::CoreId{4}, 3,
                  replica_body(ft::ReplicaIndex::kReplica2, timing.replica_out[1]));

  std::uint64_t received = 0;
  net.add_process("consumer", scc::CoreId{6}, 4,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      kpn::Token token = co_await kpn::read(harness.selector());
                      shaper.commit(ctx.now());
                      ++received;
                      (void)token;
                    }
                  });

  // 4. Kill replica 1 at t = 500 ms; run for 2 simulated seconds.
  ft::FaultInjector injector(simulator);
  injector.schedule({&r1}, rtc::from_ms(500.0), ft::FaultMode::kSilence);
  simulator.schedule_at(rtc::from_ms(500.0), [&] {
    harness.replicator().freeze_reader(ft::ReplicaIndex::kReplica1);
    harness.selector().freeze_writer(ft::ReplicaIndex::kReplica1);
  });
  net.run_until(rtc::from_sec(2.0));

  std::cout << "Fault injected into replica 1 at 500 ms.\n";
  for (const auto& record : harness.detections().records) {
    std::cout << "Detected: " << ft::to_string(record.replica) << " via "
              << ft::to_string(record.rule) << " at " << rtc::to_ms(record.detected_at)
              << " ms (latency "
              << rtc::to_ms(record.detected_at - rtc::from_ms(500.0)) << " ms)\n";
  }
  std::cout << "Consumer received " << received
            << " tokens across the fault — the stream never stopped.\n";
  return harness.detections().records.empty() ? 1 : 0;
}
