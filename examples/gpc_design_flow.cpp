// Example: the complete interface-based design flow (the paper's reference
// [1] workflow) — starting from only the producer's timing model and the
// replicas' SERVICE curves, derive everything the fault-tolerance framework
// needs, then run the dimensioned system and verify it holds.
//
//   producer PJD --+--> GPC(replica-1 service) --> derived output curves
//                  +--> GPC(replica-2 service) --> derived output curves
//   derived curves --> Eq. (3)-(5) sizing --> harness --> simulated run
#include <iostream>

#include "ft/framework.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "rtc/calibration.hpp"
#include "rtc/gpc.hpp"

using namespace sccft;

int main() {
  // 1. What the designer knows: the input stream and each replica's service.
  const rtc::PJD producer_model = rtc::PJD::from_ms(10, 1, 10);
  // Replica 1: fast stage (one token per 4 ms after 2 ms latency);
  // replica 2: slower, burstier stage (one per 7 ms after 5 ms latency).
  const rtc::RateLatencyCurve service1(rtc::from_ms(4.0), rtc::from_ms(2.0));
  const rtc::RateLatencyCurve service2(rtc::from_ms(7.0), rtc::from_ms(5.0));

  const rtc::PJDUpperCurve in_upper(producer_model);
  const rtc::PJDLowerCurve in_lower(producer_model);
  const rtc::TimeNs horizon = rtc::from_sec(3.0);

  // 2. Propagate through each replica (GPC analysis).
  const auto out1 = rtc::gpc_analyze(in_upper, in_lower, service1, horizon);
  const auto out2 = rtc::gpc_analyze(in_upper, in_lower, service2, horizon);
  std::cout << "Replica 1: delay bound " << rtc::to_ms(out1.delay_bound)
            << " ms, backlog bound " << out1.backlog_bound << " tokens\n";
  std::cout << "Replica 2: delay bound " << rtc::to_ms(out2.delay_bound)
            << " ms, backlog bound " << out2.backlog_bound << " tokens\n";

  // 3. Express the derived output bounds as conservative PJD models (period
  //    = producer period, jitter >= the stage's delay bound — the standard
  //    jitter-propagation rule J' = J + delay).
  auto derived_model = [&](const rtc::GpcResult& result) {
    rtc::PJD model = producer_model;
    model.jitter = producer_model.jitter + result.delay_bound;
    return model;
  };
  ft::AppTimingSpec timing;
  timing.producer = producer_model;
  timing.consumer = producer_model;
  // Consumption tracks service: each replica consumes as it produces.
  timing.replica_in = timing.replica_out = {derived_model(out1), derived_model(out2)};

  // 4. Size and build the fault-tolerant system from the derived models.
  sim::Simulator simulator;
  kpn::Network net(simulator);
  ft::FaultTolerantHarness harness(net, {.timing = timing, .name_prefix = "gpc"});
  const auto& sizing = harness.sizing();
  std::cout << "Derived sizing: |R1|=" << sizing.replicator_capacity[0]
            << " |R2|=" << sizing.replicator_capacity[1]
            << " |S1|=" << sizing.selector_capacity[0]
            << " |S2|=" << sizing.selector_capacity[1]
            << " D=" << sizing.selector_threshold << "\n";

  // 5. Run the actual system: replicas whose *real* behaviour is governed by
  //    the service curves (ready after service latency + one quantum),
  //    producer at the specified model. Verify: no false positives and no
  //    overflow — the derived design is sound for the real behaviour.
  net.add_process("producer", scc::CoreId{0}, 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(producer_model, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(32, static_cast<std::uint8_t>(k));
                      co_await kpn::write(harness.replicator(),
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });
  auto replica_body = [&](ft::ReplicaIndex which, rtc::TimeNs quantum,
                          rtc::TimeNs latency) {
    return [&, which, quantum, latency](kpn::ProcessContext& ctx) -> sim::Task {
      bool first = true;
      while (true) {
        kpn::Token token =
            co_await kpn::read(harness.replicator().read_interface(which));
        // Rate-latency service: initial latency once, then one quantum/token.
        co_await ctx.compute(first ? latency + quantum : quantum);
        first = false;
        co_await kpn::write(harness.selector().write_interface(which), token);
      }
    };
  };
  net.add_process("replica1", scc::CoreId{2}, 2,
                  replica_body(ft::ReplicaIndex::kReplica1, rtc::from_ms(4.0),
                               rtc::from_ms(2.0)));
  net.add_process("replica2", scc::CoreId{4}, 3,
                  replica_body(ft::ReplicaIndex::kReplica2, rtc::from_ms(7.0),
                               rtc::from_ms(5.0)));
  std::uint64_t received = 0;
  net.add_process("consumer", scc::CoreId{6}, 4,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(producer_model, 0, ctx.rng());
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      (void)co_await kpn::read(harness.selector());
                      shaper.commit(ctx.now());
                      ++received;
                    }
                  });

  net.run_until(rtc::from_sec(3.0));

  const bool clean = harness.detections().records.empty();
  std::cout << "Run: " << received << " tokens delivered, "
            << (clean ? "no false positives" : "FALSE POSITIVE") << ".\n";
  std::cout << (clean && received > 280 ? "SUCCESS" : "FAILURE")
            << ": design derived entirely from service curves is sound.\n";
  return clean && received > 280 ? 0 : 1;
}
