// sccft_bench: the campaign benchmark. Runs one named workload
// (workloads.hpp) per process, single-threaded, and prints every end-to-end
// metric by name with its unit; with --trace it adds one traced repetition
// and the layer probes, and prints every per-layer metric. The last line of
// stdout is one JSON object with the keys correct, attempted, failed and
// metrics (end-to-end metrics, or per-layer metrics with --trace).
//
//   sccft_bench --workload chaos_soak --seed 1 --reps 5
//   sccft_bench --workload fleet_sweep --seconds 10 --trace fleet.json
//   sccft_bench --workload paper_tables --quick --expect-digest 0  # must fail
//
// Exit status: 0 when every operation passed its oracle and the digest
// check, 3 when some did not (the report is still printed), 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "digests.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace sccft::perf {
namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics of the JSON line (BENCHMARK.json's per_layer): the
/// ones every workload measures, plus the host-side counts an optimisation
/// moves. A count a workload's public results do not expose reads 0
/// (README.md lists which).
const std::vector<std::pair<std::string, std::string>>& json_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"trace.overhead_frac", "share"}, {"trace.span_coverage", "share"},
      {"rtc.sizing_ms_per_call", "ms"}, {"scc.place_ms_per_call", "ms"},
      {"apps.codec_ms", "ms"},          {"sim.events", "count"},
      {"kpn.enqueue", "count"},         {"kpn.dequeue", "count"},
      {"kpn.reader_block", "count"},    {"kpn.writer_block", "count"},
  };
  return metrics;
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".share") || ends_with("_frac") || ends_with("coverage")) return "share";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (ends_with("_ns")) return "ns";
  if (ends_with("_per_s")) return "1/s";
  return "count";
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "") {
  std::printf("  %-34s %16.6g %-6s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

std::string json_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                      const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

std::string format(double v) {
  char text[32];
  std::snprintf(text, sizeof text, "%.6g", v);
  return text;
}

/// "[wall-clock median] min .., MAD .. over N": the spread of a per-rep
/// metric whose median is printed, and the same metric by the wall clock.
std::string spread_note(const std::vector<double>& values, const std::vector<double>& wall) {
  return "[" + format(median(wall)) + "] min " +
         format(*std::min_element(values.begin(), values.end())) + ", MAD " +
         format(mad(values)) + " over " + std::to_string(values.size());
}

/// Peak resident set of this program image, in MiB. Read from VmHWM first:
/// getrusage's ru_maxrss survives execve, so under a launcher with a larger
/// footprint (a Python wrapper, say) it reports the launcher's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // both in KiB on Linux
}

/// Marks a repetition whose digest differs from `expected` as failed in full.
bool check_digest(RepResult& rep, std::uint64_t expected) {
  if (rep.digest == expected) return true;
  rep.failed = rep.attempted;
  return false;
}

int run(const util::CliParser& cli) {
  const std::string name = cli.get("workload");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool quick = cli.get_bool("quick");
  const std::string trace_path = cli.get("trace");
  std::unique_ptr<Workload> workload = make_workload(name, seed, quick);
  if (!workload) {
    std::fprintf(stderr, "sccft_bench: unknown --workload '%s'\n%s", name.c_str(),
                 cli.usage().c_str());
    return 2;
  }
  std::optional<std::uint64_t> expected;
  if (!cli.get("expect-digest").empty()) {
    expected = std::strtoull(cli.get("expect-digest").c_str(), nullptr, 16);
  } else if (seed == 1) {
    expected = pinned_digest(name, quick);
  }

  // --- set-up: fresh ones, at least 3 and 0.3 s of them (a millisecond
  // set-up timed once is noise), each followed by a host-speed sample -------
  std::vector<double> setup_s, setup_ref_s;
  double setup_total_s = 0.0;
  do {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
    setup_ref_s.push_back(setup_s.back() / host_slowness());
    setup_total_s += setup_s.back();
  } while (!quick && (setup_s.size() < 3 || setup_total_s < 0.3));

  // --- timed repetitions: no instrumentation, host speed sampled ------------
  const double budget_s = cli.get_double("seconds");
  const std::size_t min_reps =
      quick ? 1 : static_cast<std::size_t>(budget_s > 0 ? 3 : cli.get_int("reps"));
  std::vector<RepResult> reps;
  const auto measure_start = Clock::now();
  while (reps.size() < min_reps || (!quick && seconds_since(measure_start) < budget_s)) {
    RepResult& rep = reps.emplace_back(/*paced=*/true);
    workload->run(rep, nullptr, nullptr);
    rep.finish();
  }
  const double rss_mib = peak_rss_mib();
  if (!expected) expected = reps.front().digest;
  bool digest_ok = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> op_ms, op_ref_ms;
  for (RepResult& rep : reps) {
    digest_ok = check_digest(rep, *expected) && digest_ok;
    attempted += rep.attempted;
    failed += rep.failed;
    op_ms.insert(op_ms.end(), rep.op_ms.begin(), rep.op_ms.end());
    op_ref_ms.insert(op_ref_ms.end(), rep.op_ref_ms.begin(), rep.op_ref_ms.end());
  }
  const auto per_rep = [&reps](double (*f)(const RepResult&)) {
    std::vector<double> values;
    for (const RepResult& rep : reps) values.push_back(f(rep));
    return values;
  };
  const std::vector<double> ops_ref = per_rep(
      [](const RepResult& r) { return static_cast<double>(r.attempted) / r.ref_s; });
  const std::vector<double> ops_wall = per_rep(
      [](const RepResult& r) { return static_cast<double>(r.attempted) / r.wall_s; });
  const std::vector<double> sim_ref =
      per_rep([](const RepResult& r) { return r.simulated_s / r.ref_s; });
  const std::vector<double> sim_wall =
      per_rep([](const RepResult& r) { return r.simulated_s / r.wall_s; });
  const std::vector<double> wall_s = per_rep([](const RepResult& r) { return r.wall_s; });
  const std::vector<double> ref_s = per_rep([](const RepResult& r) { return r.ref_s; });
  const std::vector<double> slowness =
      per_rep([](const RepResult& r) { return r.wall_s / r.ref_s; });
  const double tail_p = tail_percentile(op_ref_ms.size());

  std::printf("sccft_bench: workload %s, seed %" PRIu64 ", %zu reps x %" PRIu64
              " ops, digest 0x%016" PRIx64 " (%s)\n",
              name.c_str(), seed, reps.size(), reps.front().attempted, reps.front().digest,
              digest_ok ? "matches" : "MISMATCH");
  std::printf("end-to-end, untraced, host time at reference host speed "
              "(host_speed.hpp); wall clock in brackets:\n");
  const std::vector<Metric> end_to_end{
      {"ops_per_s", median(ops_ref), "ops/s"},
      {"sim_s_per_wall_s", median(sim_ref), "s/s"},
      {"op_ms_p50", median(op_ref_ms), "ms"},
      {"setup_s", median(setup_ref_s), "s"},
      {"peak_rss_mb", rss_mib, "MiB"},
  };
  print_metric("ops_per_s", end_to_end[0].value, "ops/s", spread_note(ops_ref, ops_wall));
  print_metric("sim_s_per_wall_s", end_to_end[1].value, "s/s", spread_note(sim_ref, sim_wall));
  print_metric("op_ms_p50", end_to_end[2].value, "ms",
               "[" + format(median(op_ms)) + "] pooled, " + std::to_string(op_ms.size()) +
                   " samples");
  print_metric("op_ms_tail", percentile(op_ref_ms, tail_p), "ms",
               "[" + format(percentile(op_ms, tail_p)) + "] p" + format(tail_p) + ", " +
                   std::to_string(op_ms.size()) + " samples; not gated");
  print_metric("setup_s", end_to_end[3].value, "s", spread_note(setup_ref_s, setup_s));
  print_metric("peak_rss_mb", rss_mib, "MiB", "VmHWM after the untraced reps");
  print_metric("rep_wall_s", median(wall_s), "s", spread_note(wall_s, wall_s));
  print_metric("host_slowness", median(slowness), "share",
               "wall over reference-speed time, median over reps");

  // --- traced repetition ----------------------------------------------------
  Tracer tracer;
  Counts counts;
  RepResult traced(/*paced=*/true);
  if (!trace_path.empty()) {
    workload->run(traced, &tracer, &counts);
    traced.finish();
    check_digest(traced, *expected);
    attempted += traced.attempted;
    failed += traced.failed;
  }
  print_metric("fail_frac", static_cast<double>(failed) / static_cast<double>(attempted),
               "share", std::to_string(failed) + " of " + std::to_string(attempted));
  if (trace_path.empty()) {
    std::printf("%s\n", json_line(failed == 0, attempted, failed, end_to_end).c_str());
    return failed == 0 ? 0 : 3;
  }

  // --- per-layer report and layer probes ------------------------------------
  const double traced_wall_ms = traced.wall_s * 1e3;
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  workload->derive(totals, counts);
  workload->probe(counts);
  Counts probes;
  probe_layers(seed, probes);
  {
    std::ofstream out(trace_path, std::ios::binary);
    if (!(out << tracer.chrome_json())) {
      std::fprintf(stderr, "sccft_bench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }

  std::printf("per-layer, traced rep (wall clock): %.1f ms, %zu spans written to %s\n"
              "(span S reads as metric S_ms = its self time, and S_ms.share)\n",
              traced_wall_ms, tracer.spans().size(), trace_path.c_str());
  std::printf("  %-34s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms",
              "share");
  for (const auto& [span, t] : totals) {
    std::printf("  %-34s %8" PRId64 " %12.3f %12.3f %8.4f\n", span.c_str(), t.count,
                t.total_ms, t.self_ms, t.self_ms / traced_wall_ms);
  }
  counts["trace.overhead_frac"] = traced.ref_s / median(ref_s) - 1.0;
  counts["trace.span_coverage"] = tracer.top_level_ms() / traced_wall_ms;
  counts["sim.events_per_s"] = counts["sim.events"] / traced.wall_s;
  for (const auto& [metric, value] : counts) {
    const std::string unit = unit_of(metric);
    print_metric(metric, value, unit);
    if (unit == "ms") print_metric(metric + ".share", value / traced_wall_ms, "share");
  }
  for (const auto& [metric, value] : probes) print_metric(metric, value, unit_of(metric));

  std::vector<Metric> per_layer;
  for (const auto& [metric, unit] : json_layer_metrics()) {
    const auto in_counts = counts.find(metric);
    const auto in_probes = probes.find(metric);
    const double value = in_counts != counts.end()   ? in_counts->second
                         : in_probes != probes.end() ? in_probes->second
                                                     : 0.0;
    per_layer.push_back({metric, value, unit});
  }
  std::printf("%s\n", json_line(failed == 0, attempted, failed, per_layer).c_str());
  return failed == 0 ? 0 : 3;
}

}  // namespace
}  // namespace sccft::perf

int main(int argc, char** argv) {
  sccft::util::CliParser cli(
      "sccft_bench",
      "Campaign benchmark: one workload end to end (untraced) and layer by "
      "layer (--trace)");
  cli.add_flag("workload", "", "paper_tables | chaos_soak | fleet_sweep | vuln_profile");
  cli.add_int_flag("seed", 1, "workload seed: every input derives from it", /*min=*/0);
  cli.add_int_flag("reps", 5, "timed repetitions (when --seconds is 0)", /*min=*/1,
                   /*max=*/1000);
  cli.add_double_flag("seconds", 0,
                      "repeat until this much wall time is measured (at least 3 "
                      "reps); 0 = exactly --reps",
                      /*min=*/0, /*max=*/3600);
  cli.add_flag("trace", "",
               "add one traced repetition and the layer probes; write Chrome "
               "trace-event JSON to this file");
  cli.add_flag("quick", "false", "smoke-test size: few operations, one set-up, one rep");
  cli.add_flag("expect-digest", "",
               "expected digest in hex (default: the pinned one at seed 1, "
               "else the first repetition's)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::fprintf(stdout, "%s", cli.usage().c_str());
    return 0;
  }
  return sccft::perf::run(cli);
}
