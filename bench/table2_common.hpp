// Shared Table-2 harness: runs the full paper evaluation protocol for one
// application and prints the Table 2 block (theoretical capacities vs.
// observed fills, fault-detection latency vs. bounds, overheads, decoded
// inter-frame timings reference vs. duplicated). Every number is read from
// the campaigns' merged metrics registries; the fault-free campaign's full
// registry is also exported as CSV so the table can be re-derived offline.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench/campaign.hpp"
#include "util/cli.hpp"

namespace sccft::bench {

/// Shared argv handling for the table2_* mains: `--jobs N` plus the
/// `--online-monitor` switch that attaches the rtc/online conformance
/// monitor to every run.
struct Table2Cli {
  int jobs = 1;
  bool online_monitor = false;
};

[[nodiscard]] inline Table2Cli parse_table2_cli(int argc, const char* const* argv,
                                                const std::string& program,
                                                const std::string& description) {
  util::CliParser cli(program, description);
  util::add_jobs_flag(cli);
  cli.add_flag("online-monitor", "false",
               "attach the online-RTC monitor (rtc/online): estimate empirical "
               "arrival curves per run and report Eq. (2) conformance");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.usage().c_str());
    std::exit(2);
  }
  if (cli.help_requested()) {
    std::fprintf(stdout, "%s", cli.usage().c_str());
    std::exit(0);
  }
  return Table2Cli{util::get_jobs(cli), cli.get_bool("online-monitor")};
}

/// Writes a merged campaign registry as "metric,kind,value" CSV rows.
inline bool write_metrics_csv(const trace::MetricsRegistry& registry,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << registry.render_csv();
  return static_cast<bool>(out);
}

inline void run_table2(apps::ApplicationSpec app, int jobs = 1,
                       bool online_monitor = false) {
  apps::ExperimentRunner runner(std::move(app));
  const auto& name = runner.app().name;

  apps::ExperimentOptions options;
  options.run_periods = 240;
  options.fault_after_periods = 150;
  options.online_monitor = online_monitor;

  const auto wall_start = std::chrono::steady_clock::now();

  // --- fault-free campaign: fills + duplicated inter-arrival timings -------
  auto dup_free = run_fault_free_campaign(runner, options, kRuns, jobs);

  // --- reference network: inter-arrival timings -----------------------------
  auto ref_options = options;
  ref_options.duplicated = false;
  auto ref_free = run_fault_free_campaign(runner, ref_options, kRuns, jobs);

  // --- fault campaigns: each replica faulty, 20 runs each -------------------
  auto fault1 = run_fault_campaign(runner, options, ft::ReplicaIndex::kReplica1, kRuns, jobs);
  auto fault2 = run_fault_campaign(runner, options, ft::ReplicaIndex::kReplica2, kRuns, jobs);

  // Wall clock goes to stderr: stdout (tables + CSV paths) must stay
  // byte-identical across --jobs values for the determinism diff lane.
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::cerr << "table2 " << name << ": 4 campaigns x " << kRuns << " runs in "
            << static_cast<long long>(wall.count() * 1000.0) << " ms with --jobs "
            << jobs << "\n";
  util::SampleSet rep_lat = fault1.replicator_latency_ms;
  for (double v : fault2.replicator_latency_ms.samples()) rep_lat.add(v);
  util::SampleSet sel_lat = fault1.selector_latency_ms;
  for (double v : fault2.selector_latency_ms.samples()) sel_lat.add(v);

  const auto& sizing = dup_free.sizing;

  util::Table fifo("Table 2 (" + name + "): FIFO dimensioning (Eq. 3/4) vs. observation");
  fifo.set_header({"FIFO", "|R1|", "|R2|", "|S1|", "|S2|", "|S1|_0", "|S2|_0"});
  fifo.add_row({"Theoretical capacity (tokens)", std::to_string(sizing.replicator_capacity[0]),
                std::to_string(sizing.replicator_capacity[1]),
                std::to_string(sizing.selector_capacity[0]),
                std::to_string(sizing.selector_capacity[1]),
                std::to_string(sizing.selector_initial[0]),
                std::to_string(sizing.selector_initial[1])});
  fifo.add_row({"Max observed fill (no faults, 20 runs, " + seed_list(dup_free.seeds) + ")",
                std::to_string(dup_free.max_fill_r1), std::to_string(dup_free.max_fill_r2),
                std::to_string(dup_free.max_fill_s1), std::to_string(dup_free.max_fill_s2),
                "-", "-"});
  std::cout << fifo << "\n";

  util::Table latency("Table 2 (" + name + "): fault-detection latency (20 runs per faulty replica, " +
                      seed_list(fault1.seeds) + ")");
  latency.set_header({"Channel", "Min", "Mean", "Max", "Computed upper bound"});
  auto lat_row = [&](const std::string& channel, const util::SampleSet& set,
                     rtc::TimeNs bound) {
    latency.add_row({channel, set.empty() ? "-" : ms(set.min()),
                     set.empty() ? "-" : ms(set.mean()),
                     set.empty() ? "-" : ms(set.max()), ms(rtc::to_ms(bound))});
  };
  lat_row("Replicator (overflow rule)", rep_lat, sizing.replicator_overflow_bound);
  lat_row("Selector (stall/divergence)", sel_lat, sizing.selector_latency_bound);
  std::cout << latency << "\n";

  util::Table overhead("Table 2 (" + name + "): framework overhead");
  overhead.set_header({"Component", "Control memory", "Notes"});
  overhead.add_row({"Replicator", std::to_string(dup_free.replicator_memory) + " B",
                    "+ " + std::to_string(sizing.replicator_capacity[0] +
                                          sizing.replicator_capacity[1]) +
                        " token slots"});
  overhead.add_row({"Selector", std::to_string(dup_free.selector_memory) + " B",
                    "+ " + std::to_string(std::max(sizing.selector_capacity[0],
                                                   sizing.selector_capacity[1])) +
                        " token slots"});
  overhead.add_row({"Runtime per op", "(see bench/micro_overhead)",
                    "arbitration is O(1) counter updates"});
  std::cout << overhead << "\n";

  util::Table timings("Table 2 (" + name + "): consumer inter-arrival timings (ms)");
  timings.set_header({"Network", "Min", "Mean", "Max", "Samples"});
  auto tim_row = [&](const std::string& label, const util::SampleSet& set) {
    timings.add_row({label, util::format_double(set.min(), 2),
                     util::format_double(set.mean(), 2),
                     util::format_double(set.max(), 2), std::to_string(set.count())});
  };
  tim_row("Reference", ref_free.interarrival_ms);
  tim_row("Duplicated", dup_free.interarrival_ms);
  std::cout << timings << "\n";

  std::cout << "Detection campaigns: " << (fault1.detected + fault2.detected) << "/"
            << 2 * kRuns << " faults detected, "
            << (fault1.correct_replica + fault2.correct_replica)
            << " blamed the correct replica, "
            << (fault1.false_positives + fault2.false_positives +
                dup_free.false_positives)
            << " false positives (" << seed_list(fault1.seeds)
            << " per campaign).\n\n";

  if (online_monitor) {
    // Empirical-curve conformance (Eq. 2) from the merged registries. A
    // conformant deployment shows zero violations in the fault-free campaign;
    // the fault campaigns show the monitor flagging the injected misbehaviour
    // as curve-level drift. With SCCFT_TRACE_COMPILED_OUT the monitor sees no
    // kEmission events and every cell reads 0.
    util::Table online("Table 2 (" + name +
                       "): online RTC conformance (events / upper viol. / lower viol.)");
    online.set_header({"Stream", "Fault-free", "R1 fault", "R2 fault"});
    auto cell = [](const trace::MetricsRegistry& merged, const std::string& stream) {
      const std::string prefix = "online." + stream;
      return std::to_string(merged.counter(prefix + ".events")) + " / " +
             std::to_string(merged.counter(prefix + ".upper_violations")) + " / " +
             std::to_string(merged.counter(prefix + ".lower_violations"));
    };
    for (const char* stream : {"producer", "r1.out", "r2.out"}) {
      online.add_row({stream, cell(dup_free.merged, stream), cell(fault1.merged, stream),
                      cell(fault2.merged, stream)});
    }
    std::cout << online << "\n";
  }

  // Machine-readable record of the fault-free campaign: the merged metrics
  // registry every cell of the fills/overhead/timings rows was read from.
  const std::string csv_path = "/tmp/sccft_table2_" + name + ".csv";
  if (write_metrics_csv(dup_free.merged, csv_path)) {
    std::cout << "Merged metrics registry (" << seed_list(dup_free.seeds)
              << ") written to " << csv_path << "\n\n";
  }
}

}  // namespace sccft::bench
