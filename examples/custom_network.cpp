// Example: bringing your own application to the framework.
//
// Defines a brand-new streaming application (a rolling-XOR "cipher" stage)
// via ApplicationSpec — no changes to the library — and runs the full
// experiment protocol against it: sizing, fault-free validation, and a
// fault-injection campaign for both replicas, on the simulated SCC with
// low-contention mapping.
#include <iostream>

#include "apps/common/experiment.hpp"

using namespace sccft;

namespace {

apps::ApplicationSpec make_cipher_app() {
  apps::ApplicationSpec app;
  app.name = "cipher";
  app.topology = apps::ReplicaTopology::kSingleStage;
  app.input_token_bytes = 4 * 1024;
  app.output_token_bytes = 4 * 1024;
  app.stage_compute_time = rtc::from_ms(0.5);
  // 8 ms period, modest producer jitter, diverse replicas.
  app.timing.producer = rtc::PJD::from_ms(8, 0.5, 8);
  app.timing.replica_in = app.timing.replica_out = {rtc::PJD::from_ms(8, 2, 8),
                                                    rtc::PJD::from_ms(8, 12, 8)};
  app.timing.consumer = rtc::PJD::from_ms(8, 0.5, 8);

  app.make_input = [](std::uint64_t index) {
    apps::Bytes data(4 * 1024);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>((index * 131 + i * 7) & 0xFF);
    }
    return data;
  };
  app.transform = [](apps::BytesView input) {
    apps::Bytes out(input.begin(), input.end());
    std::uint8_t rolling = 0x5A;
    for (auto& byte : out) {
      byte ^= rolling;
      rolling = static_cast<std::uint8_t>(rolling * 31 + byte);
    }
    return out;
  };
  return app;
}

}  // namespace

int main() {
  apps::ExperimentRunner runner(make_cipher_app());

  std::cout << "Custom application topology (duplicated):\n"
            << runner.render_topology(true) << "\n";

  apps::ExperimentOptions options;
  options.run_periods = 300;
  options.fault_after_periods = 150;

  // Fault-free validation first: fills within capacity, no false positives.
  options.inject_fault = false;
  const auto clean = runner.run(options);
  std::cout << "Sizing: |R1|=" << clean.sizing.replicator_capacity[0]
            << " |R2|=" << clean.sizing.replicator_capacity[1]
            << " D=" << clean.sizing.selector_threshold << "\n";
  std::cout << "Fault-free: fills R1=" << clean.fill_r1 << "/"
            << clean.sizing.replicator_capacity[0] << ", R2=" << clean.fill_r2 << "/"
            << clean.sizing.replicator_capacity[1]
            << ", false positives: " << (clean.any_detection ? "YES" : "none") << "\n";

  bool all_ok = !clean.any_detection;
  for (const auto faulty : {ft::ReplicaIndex::kReplica1, ft::ReplicaIndex::kReplica2}) {
    options.inject_fault = true;
    options.faulty_replica = faulty;
    options.seed = 5 + static_cast<std::uint64_t>(ft::index_of(faulty));
    const auto result = runner.run(options);
    std::cout << "Fault in " << ft::to_string(faulty) << ": ";
    if (result.first_record) {
      std::cout << "detected via " << ft::to_string(result.first_record->rule)
                << " after " << rtc::to_ms(*result.first_latency) << " ms (bound "
                << rtc::to_ms(std::max(result.sizing.replicator_overflow_bound,
                                       result.sizing.selector_latency_bound))
                << " ms), correct replica: " << (result.correct_replica ? "yes" : "NO")
                << "\n";
      all_ok = all_ok && result.correct_replica;
    } else {
      std::cout << "NOT DETECTED\n";
      all_ok = false;
    }
  }
  std::cout << (all_ok ? "SUCCESS" : "FAILURE") << "\n";
  return all_ok ? 0 : 1;
}
