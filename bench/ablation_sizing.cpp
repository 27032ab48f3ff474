// Ablation C: replicator FIFO capacity sweep (DESIGN.md Section 5, item 3).
//
// Eq. (3) gives the smallest capacity with no fault-free overflow. This
// bench overrides |R_1| = |R_2| across a sweep: undersized queues convert
// legal jitter into false positives; oversized queues slow the overflow
// detector down linearly (every extra slot is one more producer period to
// fill).
#include <iostream>

#include "apps/mjpeg/app.hpp"
#include "bench/campaign.hpp"

int main() {
  using namespace sccft;
  apps::ExperimentRunner runner(apps::mjpeg::make_application());

  apps::ExperimentOptions base;
  base.run_periods = 240;
  base.fault_after_periods = 150;

  const auto analyzed = rtc::analyze_duplicated_network(
      runner.app().timing.to_model(), runner.app().timing.default_horizon());
  std::cout << "Analyzed Eq. (3) capacities: |R1| = " << analyzed.replicator_capacity[0]
            << ", |R2| = " << analyzed.replicator_capacity[1] << "\n\n";

  util::Table table("Ablation C: replicator capacity override (MJPEG, 20+20 runs)");
  table.set_header({"|R| override", "Replicator latency (min/mean/max)", "Detections",
                    "False positives"});

  for (rtc::Tokens cap = 1; cap <= analyzed.replicator_capacity[1] + 3; ++cap) {
    auto options = base;
    options.replicator_capacity_override = cap;
    const auto faults =
        bench::run_fault_campaign(runner, options, ft::ReplicaIndex::kReplica2);
    const auto clean = bench::run_fault_free_campaign(runner, options);
    const bool is_analyzed = cap == analyzed.replicator_capacity[1];
    table.add_row({std::to_string(cap) + (is_analyzed ? " *" : ""),
                   bench::stat_row(faults.replicator_latency_ms),
                   std::to_string(faults.detected) + "/" + std::to_string(bench::kRuns),
                   std::to_string(clean.false_positives + faults.false_positives)});
  }
  std::cout << table << "\n";
  std::cout
      << "* = Eq. (3)'s |R2| — the smallest capacity that provably never\n"
         "overflows for ANY pair of conforming producer/consumption streams.\n"
         "Smaller capacities risk misflagging worst-case-aligned legal jitter\n"
         "(this generator's streams are milder than the curve-level worst case,\n"
         "so the risk does not materialize in 20 finite runs); every slot above\n"
         "|R2| slows the overflow detector by one producer period.\n";
  return 0;
}
