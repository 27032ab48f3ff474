// Figure 4 (extension figure): detection latency vs. rate-fault severity.
//
// Sweeps the slowdown factor of a rate-degradation fault on the ADPCM
// application and compares the measured detection latency (20 runs) against
// the Eq. (6) bound with the residual post-fault upper curve (the faulty
// replica's PJD stretched by the factor). The shape this demonstrates: as
// the fault gets milder (factor -> 1), both the bound and the measured
// latency grow — the paper's Eq. (6) detectability limit in action; silence
// (factor -> infinity) is the fastest-detected fault.
#include <iostream>

#include "apps/adpcm/app.hpp"
#include "bench/campaign.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace sccft;
  const int jobs = util::parse_jobs_or_exit(
      argc, argv, "figure4_rate_fault_sweep",
      "Detection latency vs. rate-fault severity (20-run campaigns per point)");
  apps::ExperimentRunner runner(apps::adpcm::make_application());

  const auto& timing = runner.app().timing;
  const auto horizon = timing.default_horizon() * 4;
  const auto sizing =
      rtc::analyze_duplicated_network(timing.to_model(), timing.default_horizon());
  const rtc::PJDLowerCurve healthy_lower(timing.replica_out[1]);  // R2 stays healthy

  util::Table table(
      "Figure 4: detection latency vs. rate-fault severity (ADPCM, R1 degraded, 20 runs)");
  table.set_header({"Slowdown", "Eq. (6) bound", "Measured mean", "Measured max",
                    "Detected"});
  util::CsvWriter csv({"slowdown", "bound_ms", "measured_mean_ms", "measured_max_ms",
                       "detected"});

  for (double factor : {1.5, 2.0, 3.0, 4.0, 6.0, 10.0}) {
    const auto bound = rtc::detection_latency_bound_rate_fault(
        healthy_lower, timing.replica_out[0], factor, sizing.selector_threshold, horizon);

    apps::ExperimentOptions options;
    options.run_periods = 700;
    options.fault_after_periods = 150;
    options.fault_mode = ft::FaultMode::kRateDegradation;
    options.rate_factor = factor;
    const auto campaign = bench::run_fault_campaign(
        runner, options, ft::ReplicaIndex::kReplica1, bench::kRuns, jobs);

    const bool have = !campaign.first_latency_ms.empty();
    table.add_row(
        {util::format_double(factor, 1) + "x",
         bound ? util::format_double(rtc::to_ms(*bound), 1) + " ms" : "unbounded",
         have ? util::format_double(campaign.first_latency_ms.mean(), 1) + " ms" : "-",
         have ? util::format_double(campaign.first_latency_ms.max(), 1) + " ms" : "-",
         std::to_string(campaign.detected) + "/" + std::to_string(bench::kRuns)});
    csv.add_row({util::format_double(factor, 2),
                 bound ? util::format_double(rtc::to_ms(*bound), 3) : "-1",
                 have ? util::format_double(campaign.first_latency_ms.mean(), 3) : "-1",
                 have ? util::format_double(campaign.first_latency_ms.max(), 3) : "-1",
                 std::to_string(campaign.detected)});
  }
  std::cout << table << "\n";
  if (csv.write_file("/tmp/sccft_figure4.csv")) {
    std::cout << "Series written to /tmp/sccft_figure4.csv\n";
  }
  std::cout << "Milder faults take longer to convict (Eq. 6: the healthy lower\n"
               "curve must out-run the residual faulty upper curve by 2D-1 tokens);\n"
               "silence is the easy case the paper evaluates.\n";
  return 0;
}
