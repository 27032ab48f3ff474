// Ablation D: replica count N = 2..4 — the paper's n-fault generalization.
//
// For each N, runs a synthetic pipeline campaign: kills replicas one by one
// (N-1 sequential silence faults) and reports detection latency of each
// fault, stream integrity, and the memory cost of the extra queues.
#include <algorithm>
#include <iostream>
#include <vector>

#include "ft/framework.hpp"
#include "ft/nreplica.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sccft;

struct NRunResult {
  int detections = 0;
  bool stream_intact = true;
  std::uint64_t received = 0;
  util::SampleSet latencies_ms;
  ft::ReplicationCost cost;
};

NRunResult run_campaign(int n, std::uint64_t seed) {
  sim::Simulator simulator;
  kpn::Network net(simulator);

  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);
  for (int r = 0; r < n; ++r) {
    timing.replica_in.push_back(rtc::PJD::from_ms(10, 2.0 + 3.0 * r, 10));
  }
  timing.replica_out = timing.replica_in;
  const auto sizing = rtc::analyze_duplicated_network(timing.to_model(), rtc::from_sec(3.0));

  auto& replicator = net.adopt_channel(std::make_unique<ft::ReplicatorChannel>(
      simulator, "replicator",
      ft::ReplicatorChannel::Config{.capacities = sizing.replicator_capacity}));
  auto& selector = net.adopt_channel(std::make_unique<ft::SelectorChannel>(
      simulator, "selector",
      ft::SelectorChannel::Config{.capacities = sizing.selector_capacity,
                                  .initials = sizing.selector_initial,
                                  .divergence_threshold = sizing.selector_threshold}));

  NRunResult result;
  // Shared cost model (cores, MPB bytes, NoC links); the token payload here
  // is 8 bytes.
  result.cost = ft::replication_cost(sizing, /*payload_vote=*/false, /*token_bytes=*/8);

  std::vector<rtc::TimeNs> fault_times;
  const ft::DetectionLogSink detections(
      simulator.trace(), {replicator.trace_subject(), selector.trace_subject()});

  net.add_process("producer", scc::CoreId{0}, seed + 1,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.producer, 0, ctx.rng());
                    for (std::uint64_t k = 0;; ++k) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      std::vector<std::uint8_t> payload(8, static_cast<std::uint8_t>(k));
                      co_await kpn::write(replicator,
                                          kpn::Token(std::move(payload), k, ctx.now()));
                      shaper.commit(ctx.now());
                    }
                  });

  std::vector<kpn::Process*> replicas;
  for (int r = 0; r < n; ++r) {
    replicas.push_back(&net.add_process(
        "replica" + std::to_string(r), scc::CoreId{2 * (r + 1)}, seed + 10 + r,
        [&, r, pjd = timing.replica_out[static_cast<std::size_t>(r)]](
            kpn::ProcessContext& ctx) -> sim::Task {
          kpn::TimingShaper emit(pjd, 0, ctx.rng());
          while (true) {
            SCCFT_FAULT_GATE(ctx);
            const auto which = static_cast<ft::ReplicaIndex>(r);
            kpn::Token token = co_await kpn::read(replicator.read_interface(which));
            SCCFT_FAULT_GATE(ctx);
            const rtc::TimeNs t = emit.next_emission(ctx.now());
            if (t > ctx.now()) co_await ctx.compute(t - ctx.now());
            SCCFT_FAULT_GATE(ctx);
            co_await kpn::write(selector.write_interface(which), token);
            emit.commit(ctx.now());
          }
        }));
  }

  std::uint64_t next_expected = 0;
  net.add_process("consumer", scc::CoreId{20}, seed + 99,
                  [&](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(timing.consumer, 0, ctx.rng());
                    while (true) {
                      const rtc::TimeNs t = shaper.next_emission(ctx.now());
                      if (t > ctx.now()) co_await ctx.delay(t - ctx.now());
                      kpn::Token token = co_await kpn::read(selector);
                      shaper.commit(ctx.now());
                      if (token.seq() != next_expected) result.stream_intact = false;
                      next_expected = token.seq() + 1;
                      ++result.received;
                    }
                  });

  // Kill replicas 0..n-2, 500 ms apart.
  for (int r = 0; r + 1 < n; ++r) {
    const rtc::TimeNs at = rtc::from_ms(400.0 + 500.0 * r);
    fault_times.push_back(at);
    simulator.schedule_at(at, [&, r] {
      replicas[static_cast<std::size_t>(r)]->context().fault().silenced = true;
      replicator.freeze_reader(static_cast<ft::ReplicaIndex>(r));
      selector.freeze_writer(static_cast<ft::ReplicaIndex>(r));
    });
  }

  net.run_until(rtc::from_ms(400.0 + 500.0 * n));
  net.rethrow_failures();

  const auto& records = detections.log().records;
  for (int r = 0; r + 1 < n; ++r) {
    const auto first = std::find_if(records.begin(), records.end(), [r](const auto& d) {
      return ft::index_of(d.replica) == r;
    });
    if (first != records.end()) {
      ++result.detections;
      result.latencies_ms.add(
          rtc::to_ms(first->detected_at - fault_times[static_cast<std::size_t>(r)]));
    }
  }
  return result;
}

}  // namespace

int main() {
  using namespace sccft;
  util::Table table("Ablation D: replica count N (tolerating N-1 sequential faults; 10 seeds)");
  table.set_header({"N", "Faults injected", "Detected", "Latency (min/mean/max)",
                    "Streams intact", "Cores", "MPB bytes", "NoC links"});

  for (int n = 2; n <= 4; ++n) {
    int injected = 0, detected = 0, intact = 0;
    util::SampleSet latencies;
    ft::ReplicationCost cost;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const auto result = run_campaign(n, seed * 1000);
      injected += n - 1;
      detected += result.detections;
      intact += result.stream_intact ? 1 : 0;
      for (double v : result.latencies_ms.samples()) latencies.add(v);
      cost = result.cost;
    }
    table.add_row({std::to_string(n), std::to_string(injected), std::to_string(detected),
                   latencies.empty()
                       ? "-"
                       : util::format_double(latencies.min(), 1) + " / " +
                             util::format_double(latencies.mean(), 1) + " / " +
                             util::format_double(latencies.max(), 1) + " ms",
                   std::to_string(intact) + "/10", std::to_string(cost.cores),
                   std::to_string(cost.mpb_bytes), std::to_string(cost.noc_links)});
  }
  std::cout << table << "\n";
  std::cout << "Tolerating more faults costs one replica core (plus its Eq. (3)/(4)\n"
               "queues and two mesh hops) per additional fault; detection latency\n"
               "per fault is unchanged — the arbitration stays O(1) counters per\n"
               "token.\n";
  return 0;
}
