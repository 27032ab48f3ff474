// Figure 3 (this repo's extension figure): detection latency and design-time
// quantities as a function of the slow replica's jitter.
//
// Sweeps replica 2's jitter from 0.5 to 3 periods on an ADPCM-rate synthetic
// stream and reports, per point: Eq. (5)'s D, the Eq. (3) capacity |R2|, the
// computed latency bounds, and the measured detection latency (20 runs).
// Shows the framework's central trade-off: tolerating more legal timing
// diversity (design diversity between replicas) costs detection speed,
// linearly and predictably. Emits both an ASCII table and CSV for plotting.
#include <iostream>

#include "apps/adpcm/app.hpp"
#include "bench/campaign.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace sccft;
  const int jobs = util::parse_jobs_or_exit(
      argc, argv, "figure3_jitter_sweep",
      "Detection latency vs. replica-2 jitter (20-run campaigns per point)");
  util::Table table(
      "Figure 3: detection latency vs. replica-2 jitter (ADPCM rate, 20 runs/point)");
  table.set_header({"J2 (ms)", "D", "|R2|", "Replicator bound", "Selector bound",
                    "Measured mean", "Measured max"});
  util::CsvWriter csv({"jitter_ms", "D", "R2_capacity", "replicator_bound_ms",
                       "selector_bound_ms", "measured_mean_ms", "measured_max_ms"});

  for (double j2 : {3.15, 6.3, 9.45, 12.6, 15.75, 18.9}) {
    auto app = apps::adpcm::make_application();
    app.timing.replica_in[1] = rtc::PJD::from_ms(6.3, j2, 6.3);
    app.timing.replica_out[1] = rtc::PJD::from_ms(6.3, j2, 6.3);
    apps::ExperimentRunner runner(std::move(app));

    apps::ExperimentOptions options;
    options.run_periods = 260;
    options.fault_after_periods = 160;
    const auto campaign = bench::run_fault_campaign(
        runner, options, ft::ReplicaIndex::kReplica2, bench::kRuns, jobs);

    const auto& sizing = campaign.sizing;
    const double mean =
        campaign.first_latency_ms.empty() ? 0.0 : campaign.first_latency_ms.mean();
    const double max =
        campaign.first_latency_ms.empty() ? 0.0 : campaign.first_latency_ms.max();
    table.add_row({util::format_double(j2, 2), std::to_string(sizing.selector_threshold),
                   std::to_string(sizing.replicator_capacity[1]),
                   util::format_double(rtc::to_ms(sizing.replicator_overflow_bound), 1) + " ms",
                   util::format_double(rtc::to_ms(sizing.selector_latency_bound), 1) + " ms",
                   util::format_double(mean, 1) + " ms",
                   util::format_double(max, 1) + " ms"});
    csv.add_row({util::format_double(j2, 2), std::to_string(sizing.selector_threshold),
                 std::to_string(sizing.replicator_capacity[1]),
                 util::format_double(rtc::to_ms(sizing.replicator_overflow_bound), 3),
                 util::format_double(rtc::to_ms(sizing.selector_latency_bound), 3),
                 util::format_double(mean, 3), util::format_double(max, 3)});
  }
  std::cout << table << "\n";
  const std::string csv_path = "/tmp/sccft_figure3.csv";
  if (csv.write_file(csv_path)) {
    std::cout << "Series written to " << csv_path << " for plotting.\n";
  }
  std::cout << "More jitter tolerance (design diversity) => larger D and |R2| =>\n"
               "proportionally slower worst-case detection; measured latencies track\n"
               "the bounds with consistent slack.\n";
  return 0;
}
