// sccft_cli — run fault-tolerance experiment campaigns from the command line.
//
//   ./sccft_cli --app adpcm --runs 20 --fault r2 --csv out.csv
//   ./sccft_cli --app mjpeg --fault r1 --mode rate --rate-factor 4
//   ./sccft_cli --app h264 --fault none --vcd clean.vcd
//
// Prints the sizing report and per-run results; optionally writes a CSV of
// the campaign and a VCD waveform of the last run.
#include <iostream>

#include "apps/adpcm/app.hpp"
#include "apps/common/experiment.hpp"
#include "apps/h264/app.hpp"
#include "apps/mjpeg/app.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

using namespace sccft;

int main(int argc, char** argv) {
  util::CliParser cli("sccft_cli",
                      "fault-tolerance experiment campaigns on the simulated SCC");
  cli.add_flag("app", "adpcm", "application: mjpeg | adpcm | h264");
  cli.add_int_flag("runs", 5, "number of runs (seeds 1..N)", /*min=*/1);
  cli.add_flag("fault", "r1", "faulty replica: r1 | r2 | none");
  cli.add_flag("mode", "silence", "fault mode: silence | rate");
  cli.add_double_flag("rate-factor", 4.0, "slowdown factor for --mode rate",
                      /*min=*/1.0);
  cli.add_int_flag("periods", 200, "simulated length in producer periods",
                   /*min=*/1);
  cli.add_int_flag("fault-after", 120, "fault injection time in periods",
                   /*min=*/0);
  cli.add_flag("minimize-jitter", "false", "use the Table-3 minimized-jitter variant");
  cli.add_int_flag("divergence", 0, "override Eq. (5)'s D (0 = analyzed value)",
                   /*min=*/0);
  cli.add_int_flag("capacity", 0, "override Eq. (3)'s |R_i| (0 = analyzed values)",
                   /*min=*/0);
  cli.add_flag("baselines", "false", "attach distance-function + watchdog monitors");
  cli.add_flag("csv", "", "write per-run results to this CSV file");
  cli.add_flag("vcd", "", "write the last run's channel waveform to this VCD file");
  cli.add_flag("no-noc", "false", "disable the SCC NoC latency model");

  if (!cli.parse(argc, argv)) {
    std::cerr << "error: " << cli.error() << "\n\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  apps::ApplicationSpec spec;
  const std::string app_name = cli.get("app");
  if (app_name == "mjpeg") {
    spec = apps::mjpeg::make_application();
  } else if (app_name == "adpcm") {
    spec = apps::adpcm::make_application();
  } else if (app_name == "h264") {
    spec = apps::h264::make_application();
  } else {
    std::cerr << "error: unknown --app " << app_name << "\n";
    return 2;
  }
  if (cli.get_bool("minimize-jitter")) spec = apps::minimize_replica_jitter(spec);

  apps::ExperimentRunner runner(std::move(spec));
  apps::ExperimentOptions options;
  options.run_periods = static_cast<std::uint64_t>(cli.get_int("periods"));
  options.fault_after_periods = static_cast<std::uint64_t>(cli.get_int("fault-after"));
  options.use_platform = !cli.get_bool("no-noc");
  options.divergence_override = cli.get_int("divergence");
  options.replicator_capacity_override = cli.get_int("capacity");
  options.attach_baseline_monitors = cli.get_bool("baselines");

  const std::string fault = cli.get("fault");
  options.inject_fault = fault != "none";
  if (fault == "r1") {
    options.faulty_replica = ft::ReplicaIndex::kReplica1;
  } else if (fault == "r2") {
    options.faulty_replica = ft::ReplicaIndex::kReplica2;
  } else if (fault != "none") {
    std::cerr << "error: unknown --fault " << fault << "\n";
    return 2;
  }
  options.fault_mode =
      cli.get("mode") == "rate" ? ft::FaultMode::kRateDegradation : ft::FaultMode::kSilence;
  options.rate_factor = cli.get_double("rate-factor");

  const int runs = static_cast<int>(cli.get_int("runs"));
  util::CsvWriter csv({"seed", "detected", "rule", "replica", "latency_ms",
                       "replicator_latency_ms", "selector_latency_ms", "tokens",
                       "false_positive"});

  std::cout << "Campaign: app=" << app_name << " runs=" << runs << " fault=" << fault
            << " mode=" << cli.get("mode") << "\n";
  bool sizing_printed = false;
  int detected = 0, false_positives = 0;
  for (int run = 1; run <= runs; ++run) {
    options.seed = static_cast<std::uint64_t>(run);
    options.vcd_path = (run == runs) ? cli.get("vcd") : "";
    const auto result = runner.run(options);
    if (!sizing_printed) {
      sizing_printed = true;
      const auto& s = result.sizing;
      std::cout << "Sizing: |R1|=" << s.replicator_capacity[0]
                << " |R2|=" << s.replicator_capacity[1] << " |S1|=" << s.selector_capacity[0]
                << " |S2|=" << s.selector_capacity[1] << " D=" << s.selector_threshold
                << " bounds: replicator " << rtc::to_ms(s.replicator_overflow_bound)
                << " ms / selector " << rtc::to_ms(s.selector_latency_bound) << " ms\n";
    }
    auto fmt = [](const std::optional<rtc::TimeNs>& v) {
      return v ? util::format_double(rtc::to_ms(*v), 3) : std::string("-");
    };
    std::cout << "  seed " << run << ": ";
    if (result.first_record) {
      std::cout << "detected " << ft::to_string(result.first_record->replica) << " via "
                << ft::to_string(result.first_record->rule) << " after "
                << fmt(result.first_latency) << " ms";
      ++detected;
    } else {
      std::cout << (options.inject_fault ? "NOT DETECTED" : "no detection (clean)");
    }
    if (result.false_positive) {
      std::cout << " [FALSE POSITIVE]";
      ++false_positives;
    }
    std::cout << " (" << result.output_checksums.size() << " tokens delivered)\n";
    csv.add_row({std::to_string(run), result.first_record ? "1" : "0",
                 result.first_record ? ft::to_string(result.first_record->rule) : "-",
                 result.first_record ? ft::to_string(result.first_record->replica) : "-",
                 fmt(result.first_latency), fmt(result.replicator_latency),
                 fmt(result.selector_latency),
                 std::to_string(result.output_checksums.size()),
                 result.false_positive ? "1" : "0"});
  }
  std::cout << "Summary: " << detected << "/" << runs << " detected, "
            << false_positives << " false positives.\n";
  if (!cli.get("csv").empty()) {
    if (csv.write_file(cli.get("csv"))) {
      std::cout << "CSV written to " << cli.get("csv") << "\n";
    } else {
      std::cerr << "error: could not write " << cli.get("csv") << "\n";
      return 1;
    }
  }
  return 0;
}
