// Example: the paper's headline scenario end-to-end — a fault-tolerant MJPEG
// decoder on the simulated SCC.
//
// Runs the duplicated MJPEG network (splitstream -> 2x decode -> mergeframe
// per replica, real JPEG-style decoding of synthesized video), kills replica
// 2 mid-stream, and reports what the framework detected, how fast, and that
// the decoded-frame stream kept flowing with identical content.
#include <iostream>

#include "apps/common/experiment.hpp"
#include "apps/mjpeg/app.hpp"

using namespace sccft;

int main() {
  apps::ExperimentRunner runner(apps::mjpeg::make_application());

  std::cout << "Duplicated MJPEG decoder topology:\n"
            << runner.render_topology(true) << "\n";

  apps::ExperimentOptions options;
  options.seed = 2014;
  options.run_periods = 300;       // 9 s of 30 fps video
  options.fault_after_periods = 150;
  options.inject_fault = true;
  options.faulty_replica = ft::ReplicaIndex::kReplica2;

  const auto faulted = runner.run(options);
  options.inject_fault = false;
  const auto clean = runner.run(options);

  std::cout << "Channel sizing (Eq. 3/4): |R1|=" << faulted.sizing.replicator_capacity[0]
            << " |R2|=" << faulted.sizing.replicator_capacity[1]
            << " |S1|=" << faulted.sizing.selector_capacity[0]
            << " |S2|=" << faulted.sizing.selector_capacity[1] << "\n";
  std::cout << "Fault injected into replica 2 at "
            << rtc::to_ms(faulted.fault_injected_at) << " ms.\n";
  if (faulted.first_record) {
    std::cout << "First detection: " << ft::to_string(faulted.first_record->replica)
              << " via " << ft::to_string(faulted.first_record->rule) << ", latency "
              << rtc::to_ms(*faulted.first_latency) << " ms (bounds: replicator "
              << rtc::to_ms(faulted.sizing.replicator_overflow_bound) << " ms, selector "
              << rtc::to_ms(faulted.sizing.selector_latency_bound) << " ms)\n";
  }

  // Functional equivalence across the fault (Theorem 2 in action).
  const std::size_t n =
      std::min(faulted.output_checksums.size(), clean.output_checksums.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (faulted.output_checksums[i] != clean.output_checksums[i]) ++mismatches;
  }
  std::cout << "Decoded frames delivered: " << faulted.output_checksums.size()
            << " (fault run) vs " << clean.output_checksums.size()
            << " (clean run); " << mismatches << " content mismatches in the common "
            << n << "-frame prefix.\n";
  std::cout << "Decoded inter-frame timing (fault run): mean "
            << util::format_double(faulted.consumer_interarrival_ms.mean(), 2)
            << " ms, max "
            << util::format_double(faulted.consumer_interarrival_ms.max(), 2) << " ms\n";

  const bool ok = faulted.first_record.has_value() && mismatches == 0 &&
                  faulted.correct_replica;
  std::cout << (ok ? "SUCCESS" : "FAILURE")
            << ": single timing fault tolerated transparently.\n";
  return ok ? 0 : 1;
}
