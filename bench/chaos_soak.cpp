// Chaos soak driver: randomized multi-fault storms under invariant oracles,
// with automatic shrinking of the first failure to a minimal reproducer.
//
//   chaos_soak --runs 200 --jobs 8            # the soak itself
//   chaos_soak --replay /tmp/artifact.txt     # re-execute a failure bundle
//   chaos_soak --plant-bug drop-after-second-restart --runs 64
//                                             # end-to-end pipeline check
//   chaos_soak --control-plane --runs 200     # extended taxonomy: storms also
//                                             # attack the supervisor/counters/
//                                             # trace sink, with the watchdog +
//                                             # scrubber defenses armed
//   chaos_soak --control-demo                 # ablation: each control-plane
//                                             # storm clean with defenses on,
//                                             # violating with one defense off
//   chaos_soak --reconfigure --runs 50        # periodic live-resize windows
//                                             # (adapt/) under storm fire, with
//                                             # an extra template landing faults
//                                             # inside the quiesce->resume gap
//   chaos_soak --nreplica 3 --runs 100        # unsupervised N-replica rig:
//                                             # majority-vote selector, storms
//                                             # drawn over all N victims incl.
//                                             # the double-outage template
//
// Every run is a pure function of its seed (seed0 + index), so stdout and
// the CSV are byte-identical for any --jobs value. Wall-clock time, file
// paths, and progress chatter go to stderr, which is allowed to vary.
// --minutes caps wall time by stopping BETWEEN blocks of runs: the runs that
// did execute are still deterministic, but how many fit the budget is not —
// only --runs-bound soaks are byte-diffable end to end.
//
// On the first (lowest-index) violating run the driver writes a failure
// artifact (seed, fault plan, oracle verdicts, flight-recorder dump,
// registry snapshot), ddmin-shrinks the plan to a 1-minimal reproducer,
// appends it to the artifact, and re-validates the artifact by replaying it
// through the same parse -> run -> oracle path `--replay` uses.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/artifact.hpp"
#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"
#include "chaos/storm.hpp"
#include "ft/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace sccft::bench {
namespace {

int restarts_of(const chaos::RunObservation& obs) {
  return static_cast<int>(
      std::count_if(obs.transitions.begin(), obs.transitions.end(),
                    [](const ft::HealthTransition& t) {
                      return t.to == ft::ReplicaHealth::kRestarting;
                    }));
}

struct SoakCell {
  chaos::StormPlan plan;
  chaos::RunObservation obs;
  std::vector<chaos::Violation> violations;
  /// The fault-free reference, kept only for violating cells (the shrinker
  /// checks its probes against it).
  std::optional<chaos::RunObservation> golden;
  std::string log;
  bool executed = false;
};

/// Re-runs an artifact's plan (the shrunk one when present) and reports
/// whether any of the recorded violation codes come back.
int replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "chaos_soak: cannot open artifact " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  chaos::FailureArtifact artifact;
  try {
    artifact = chaos::parse_artifact(text.str());
  } catch (const util::ContractViolation& violation) {
    std::cerr << "chaos_soak: malformed artifact: " << violation.what() << "\n";
    return 2;
  }

  chaos::StormPlan plan;
  plan.seed = artifact.seed;
  plan.run_length = artifact.run_length;
  plan.faults = artifact.shrunk ? *artifact.shrunk : artifact.plan;
  chaos::RunOptions options;
  options.planted = artifact.planted;
  options.control_plane = artifact.control_plane;
  options.reconfig = artifact.reconfig;
  options.nreplica = artifact.nreplica;

  std::cout << "replaying seed " << plan.seed << " with " << plan.faults.size()
            << " fault(s) (" << (artifact.shrunk ? "shrunk" : "full")
            << " plan, planted bug: " << chaos::to_string(artifact.planted)
            << ", defenses: "
            << (options.control_plane.enabled
                    ? std::string(options.control_plane.watchdog ? "watchdog" : "no-watchdog") +
                          "/" + (options.control_plane.scrubber ? "scrubber" : "no-scrubber")
                    : std::string("off"))
            << ", reconfigure: " << (options.reconfig.enabled ? "on" : "off")
            << ")\n";
  const chaos::RunObservation golden = chaos::run_golden(
      plan.seed, plan.run_length, options.reconfig, options.nreplica);
  const chaos::RunObservation obs = chaos::run_storm(plan, options);
  const std::vector<chaos::Violation> found =
      chaos::check_invariants(plan, obs, golden);

  bool reproduced = false;
  for (const chaos::Violation& violation : found) {
    const bool recorded =
        std::any_of(artifact.violations.begin(), artifact.violations.end(),
                    [&](const chaos::Violation& original) {
                      return original.code == violation.code;
                    });
    std::cout << "  " << chaos::to_string(violation.code) << ": "
              << violation.detail << (recorded ? "" : "  [new]") << "\n";
    reproduced = reproduced || recorded;
  }
  std::cout << (reproduced ? "REPRODUCED\n" : "did NOT reproduce\n");
  return reproduced ? 0 : 1;
}

int soak(int runs, int jobs, double minutes, std::uint64_t seed0,
         chaos::PlantedBug planted, const chaos::ControlPlaneOptions& cp,
         const chaos::ReconfigOptions& rc, int nreplica, bool shrink,
         const std::string& csv_path, const std::string& artifact_path) {
  SCCFT_EXPECTS(runs >= 1);
  chaos::StormConfig storm_config;
  storm_config.control_plane = cp.enabled;
  storm_config.reconfigure = rc.enabled;
  storm_config.nreplica = nreplica;
  if (nreplica > 2) storm_config.allow_noc = false;
  const chaos::StormGenerator generator{storm_config};
  chaos::RunOptions options;
  options.planted = planted;
  options.control_plane = cp;
  options.reconfig = rc;
  options.nreplica = nreplica;

  std::vector<SoakCell> cells(static_cast<std::size_t>(runs));
  const auto wall_start = std::chrono::steady_clock::now();
  // Blocks keep --minutes honest without a mid-run abort: the budget is
  // checked only at block boundaries, so every executed run is complete.
  const int block = std::max(4 * jobs, 16);
  int scheduled = 0;
  while (scheduled < runs) {
    if (minutes > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - wall_start;
      if (elapsed.count() >= minutes * 60.0) break;
    }
    const int n = std::min(block, runs - scheduled);
    util::parallel_for_ordered(n, jobs, [&, scheduled](int i) {
      util::ScopedLogCapture capture;
      SoakCell& cell = cells[static_cast<std::size_t>(scheduled + i)];
      cell.plan = generator.generate(seed0 + static_cast<std::uint64_t>(scheduled + i));
      chaos::RunObservation golden =
          chaos::run_golden(cell.plan.seed, cell.plan.run_length, rc, nreplica);
      cell.obs = chaos::run_storm(cell.plan, options);
      cell.violations = chaos::check_invariants(cell.plan, cell.obs, golden);
      if (!cell.violations.empty()) cell.golden = std::move(golden);
      cell.executed = true;
      cell.log = capture.take();
    });
    scheduled += n;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  std::cerr << "chaos soak: " << scheduled << "/" << runs << " runs in "
            << static_cast<long long>(wall.count() * 1000.0)
            << " ms with --jobs " << jobs << "\n";
  for (int i = 0; i < scheduled; ++i) {
    util::flush_captured(cells[static_cast<std::size_t>(i)].log);
  }

  // Fold in index order: everything below is a pure function of the cells.
  int clean = 0, lossless = 0;
  std::uint64_t watchdog_resets = 0, scrub_repairs = 0;
  std::uint64_t reconfig_windows = 0, reconfig_clamped = 0;
  std::uint64_t vote_conflicts = 0, votes_outvoted = 0, n_detections = 0;
  std::map<std::string, int> code_histogram;
  std::optional<int> first_violating;
  util::CsvWriter csv({"run", "seed", "faults", "lossless", "consumed",
                       "restarts", "heartbeats", "wd_resets", "scrub_repairs",
                       "violations", "first_code"});
  csv.add_comment("chaos soak, seed0 " + std::to_string(seed0) +
                  ", planted bug " + chaos::to_string(planted) +
                  ", control plane " + (cp.enabled ? "on" : "off") +
                  // Appended only off the default so 2-replica soak CSVs stay
                  // byte-identical to the pre-selective-protection format.
                  (nreplica != 2 ? ", protection " + std::to_string(nreplica)
                                 : ""));
  for (int i = 0; i < scheduled; ++i) {
    const SoakCell& cell = cells[static_cast<std::size_t>(i)];
    const bool is_lossless = chaos::plan_is_lossless(cell.plan.faults, nreplica);
    if (is_lossless) ++lossless;
    vote_conflicts += cell.obs.vote_conflicts;
    votes_outvoted += cell.obs.votes_outvoted;
    n_detections += cell.obs.n_detections.size();
    watchdog_resets += cell.obs.watchdog_resets;
    scrub_repairs += cell.obs.scrub_repairs;
    reconfig_windows += cell.obs.reconfig_windows;
    reconfig_clamped += cell.obs.reconfig_clamped;
    if (cell.violations.empty()) {
      ++clean;
    } else {
      if (!first_violating) first_violating = i;
      for (const chaos::Violation& violation : cell.violations) {
        ++code_histogram[chaos::to_string(violation.code)];
      }
    }
    csv.add_row({std::to_string(i), std::to_string(cell.plan.seed),
                 std::to_string(cell.plan.faults.size()),
                 is_lossless ? "1" : "0",
                 std::to_string(cell.obs.consumed_seqs.size()),
                 std::to_string(restarts_of(cell.obs)),
                 std::to_string(cell.obs.heartbeats),
                 std::to_string(cell.obs.watchdog_resets),
                 std::to_string(cell.obs.scrub_repairs),
                 std::to_string(cell.violations.size()),
                 cell.violations.empty()
                     ? ""
                     : chaos::to_string(cell.violations.front().code)});
  }

  util::Table table("Chaos soak: " + std::to_string(scheduled) +
                    " randomized multi-fault storms (seed0 " +
                    std::to_string(seed0) + ", planted bug " +
                    chaos::to_string(planted) + ")");
  table.set_header({"Metric", "Value"});
  table.add_row({"runs executed", std::to_string(scheduled)});
  table.add_row({"clean runs", std::to_string(clean)});
  table.add_row({"violating runs", std::to_string(scheduled - clean)});
  table.add_row({"lossless plans", std::to_string(lossless)});
  if (cp.enabled) {
    table.add_row({"watchdog resets", std::to_string(watchdog_resets)});
    table.add_row({"scrub repairs", std::to_string(scrub_repairs)});
  }
  if (rc.enabled) {
    table.add_row({"reconfig windows", std::to_string(reconfig_windows)});
    table.add_row({"reconfig clamped", std::to_string(reconfig_clamped)});
  }
  if (nreplica > 2) {
    table.add_row({"replica count", std::to_string(nreplica)});
    table.add_row({"channel convictions", std::to_string(n_detections)});
    table.add_row({"vote conflicts", std::to_string(vote_conflicts)});
    table.add_row({"votes outvoted", std::to_string(votes_outvoted)});
  }
  for (const auto& [code, count] : code_histogram) {
    table.add_row({"  " + code, std::to_string(count)});
  }
  std::cout << table << "\n";

  if (csv.write_file(csv_path)) {
    std::cerr << "Series written to " << csv_path << "\n";
  }

  if (!first_violating) {
    std::cout << "all runs clean: no artifact produced\n";
    return 0;
  }

  // --- failure artifact + shrink + self-replay ------------------------------
  const SoakCell& failing = cells[static_cast<std::size_t>(*first_violating)];
  chaos::FailureArtifact artifact = chaos::make_artifact(
      failing.plan, options, failing.obs, failing.violations);
  std::cout << "first violation at run " << *first_violating << " (seed "
            << failing.plan.seed << ", " << failing.plan.faults.size()
            << " faults):\n";
  for (const chaos::Violation& violation : failing.violations) {
    std::cout << "  " << chaos::to_string(violation.code) << ": "
              << violation.detail << "\n";
  }

  if (shrink) {
    const chaos::ShrinkResult minimal = chaos::shrink_plan(
        failing.plan, options, failing.violations, *failing.golden);
    artifact.shrunk = minimal.faults;
    std::cout << "shrunk " << failing.plan.faults.size() << " -> "
              << minimal.faults.size() << " fault(s) in " << minimal.probes
              << " probes\n";
    for (const ft::FaultSpec& spec : minimal.faults) {
      std::cout << "  " << ft::serialize(spec) << "\n";
    }
  }

  std::ofstream out(artifact_path);
  if (out) {
    out << chaos::serialize(artifact);
    std::cerr << "Artifact written to " << artifact_path << "\n";
  } else {
    std::cerr << "chaos_soak: cannot write artifact " << artifact_path << "\n";
  }

  // Round-trip the artifact through the replay path to prove the bundle is
  // self-contained. Deterministic, so it belongs on stdout.
  const chaos::FailureArtifact parsed =
      chaos::parse_artifact(chaos::serialize(artifact));
  chaos::StormPlan replay_plan;
  replay_plan.seed = parsed.seed;
  replay_plan.run_length = parsed.run_length;
  replay_plan.faults = parsed.shrunk ? *parsed.shrunk : parsed.plan;
  const chaos::RunObservation golden =
      chaos::run_golden(replay_plan.seed, replay_plan.run_length, parsed.reconfig,
                        parsed.nreplica);
  chaos::RunOptions replay_options;
  replay_options.planted = parsed.planted;
  replay_options.control_plane = parsed.control_plane;
  replay_options.reconfig = parsed.reconfig;
  replay_options.nreplica = parsed.nreplica;
  const chaos::RunObservation obs = chaos::run_storm(replay_plan, replay_options);
  const std::vector<chaos::Violation> found =
      chaos::check_invariants(replay_plan, obs, golden);
  const bool reproduced =
      std::any_of(found.begin(), found.end(), [&](const chaos::Violation& v) {
        return std::any_of(parsed.violations.begin(), parsed.violations.end(),
                           [&](const chaos::Violation& original) {
                             return original.code == v.code;
                           });
      });
  std::cout << "artifact replay: " << (reproduced ? "REPRODUCED" : "LOST") << "\n";
  return reproduced ? 1 : 3;  // violations found: nonzero either way
}

// ---------------------------------------------------------------------------
// --control-demo: the last-line-defense ablation study
// ---------------------------------------------------------------------------

/// Runs one single-fault control-plane plan under the given defense config
/// and returns the oracle verdicts.
std::vector<chaos::Violation> demo_run(const ft::FaultSpec& spec,
                                       const chaos::ControlPlaneOptions& cp) {
  chaos::StormPlan plan;
  plan.seed = 7;  // rig seed (timing jitter); the fault's own rng uses spec.seed
  plan.run_length = rtc::from_ms(2000.0);
  plan.faults = {spec};
  chaos::RunOptions options;
  options.control_plane = cp;
  const chaos::RunObservation golden =
      chaos::run_golden(plan.seed, plan.run_length);
  const chaos::RunObservation obs = chaos::run_storm(plan, options);
  return chaos::check_invariants(plan, obs, golden);
}

/// Three planted control-plane storms, each run twice: with the full defense
/// stack (must pass every oracle) and with exactly the defense that guards it
/// disabled (must fail the named oracle). Exit 0 only if all six runs behave
/// as designed.
int control_demo() {
  chaos::ControlPlaneOptions defended;
  defended.enabled = true;

  struct DemoCase {
    const char* name;
    ft::FaultSpec spec;
    chaos::ControlPlaneOptions ablated;
    chaos::ViolationCode expected;
  };
  std::vector<DemoCase> cases;

  {  // 1. Permanent supervisor hang; only the watchdog can clear it.
    DemoCase c;
    c.name = "supervisor-hang (permanent)";
    c.spec.kind = ft::FaultKind::kSupervisorHang;
    c.spec.at = rtc::from_ms(600.0);
    c.spec.duration = 0;  // nothing in software ever clears it
    c.spec.tile = 3;
    c.ablated = defended;
    c.ablated.watchdog = false;
    c.expected = chaos::ViolationCode::kSilentSupervisor;
    cases.push_back(c);
  }
  {  // 2. Wedged flight recorder; only the scrubber resyncs the ring.
    DemoCase c;
    c.name = "trace-sink-stuck (600 ms)";
    c.spec.kind = ft::FaultKind::kTraceSinkStuck;
    c.spec.at = rtc::from_ms(500.0);
    c.spec.duration = rtc::from_ms(600.0);
    c.spec.tile = 0;
    c.ablated = defended;
    c.ablated.scrubber = false;
    c.expected = chaos::ViolationCode::kSpineInconsistent;
    cases.push_back(c);
  }
  {  // 3. Repeated TMR flips pinned to the selector S1 capacity word (a
     // quiescent word: never rewritten, so without the scrubber the
     // corruption accumulates until the vote collapses to the corrupt copy
     // and the stall rule convicts an innocent replica). The spec seed is
     // chosen empirically so the accumulated copy-0 XOR undershoots the live
     // space watermark within the fault window.
    DemoCase c;
    c.name = "counter-corruption (S1 capacity)";
    c.spec.kind = ft::FaultKind::kCounterCorruption;
    c.spec.at = rtc::from_ms(500.0);
    c.spec.duration = rtc::from_ms(1200.0);
    c.spec.burst_on_mean = rtc::from_ms(20.0);
    c.spec.burst_off_mean = 3;  // pin to global scrub word 2 (selector S1 capacity)
    c.spec.seed = 4;
    c.ablated = defended;
    c.ablated.scrubber = false;
    c.expected = chaos::ViolationCode::kUnjustifiedConviction;
    cases.push_back(c);
  }

  util::Table table("Control-plane ablation: defenses on vs. one defense off");
  table.set_header({"Storm", "Defenses on", "Ablated defense", "Ablated verdict"});
  bool ok = true;
  for (const DemoCase& c : cases) {
    const std::vector<chaos::Violation> with_defense = demo_run(c.spec, defended);
    const std::vector<chaos::Violation> without = demo_run(c.spec, c.ablated);
    const bool clean_on = with_defense.empty();
    const bool failed_as_designed =
        std::any_of(without.begin(), without.end(),
                    [&](const chaos::Violation& v) { return v.code == c.expected; });
    ok = ok && clean_on && failed_as_designed;
    std::string verdict;
    for (const chaos::Violation& v : without) {
      if (!verdict.empty()) verdict += ", ";
      verdict += chaos::to_string(v.code);
    }
    if (verdict.empty()) verdict = "(clean)";
    table.add_row({c.name, clean_on ? "PASS" : "VIOLATED",
                   !c.ablated.watchdog ? "watchdog" : "scrubber", verdict});
    if (!clean_on) {
      for (const chaos::Violation& v : with_defense) {
        std::cout << "  [defended run violated] " << c.name << ": "
                  << chaos::to_string(v.code) << ": " << v.detail << "\n";
      }
    }
  }
  std::cout << table << "\n";
  std::cout << (ok ? "ablation study behaved as designed\n"
                   : "ablation study FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sccft::bench

int main(int argc, char** argv) {
  sccft::util::CliParser cli("chaos_soak",
                             "Randomized multi-fault storms under invariant "
                             "oracles, with ddmin shrinking");
  sccft::util::add_jobs_flag(cli);
  cli.add_int_flag("runs", 200, "number of storms to run", /*min=*/1);
  cli.add_double_flag("minutes", 0,
                      "wall-clock budget (0 = unlimited; see header)", /*min=*/0);
  cli.add_int_flag("seed0", 1, "seed of the first run (run i uses seed0 + i)",
                   /*min=*/0);
  cli.add_flag("plant-bug", "none",
               "test-only defect: none | drop-after-second-restart | "
               "corrupt-after-restart");
  cli.add_flag("shrink", "true", "ddmin-shrink the first failure");
  cli.add_flag("control-plane", "false",
               "extend storms with control-plane faults and arm the "
               "watchdog + scrubber defenses");
  cli.add_flag("disable-watchdog", "false",
               "ablation: keep --control-plane but leave the watchdog unarmed");
  cli.add_flag("disable-scrubber", "false",
               "ablation: keep --control-plane but stop the scrubber");
  cli.add_flag("control-demo", "false",
               "run the three planted control-plane ablation storms and exit");
  cli.add_flag("reconfigure", "false",
               "open periodic live-resize windows (adapt/) in every run and "
               "add the fault-inside-window adversarial template");
  cli.add_int_flag("nreplica", 2,
                   "replica count of the rig; 3+ switches to the unsupervised "
                   "N-replica majority-vote rig (data-path storms only)",
                   /*min=*/2);
  cli.add_flag("csv", "/tmp/sccft_chaos_soak.csv", "output CSV path");
  cli.add_flag("artifact", "/tmp/sccft_chaos_artifact.txt",
               "failure artifact output path");
  cli.add_flag("replay", "", "replay a failure artifact instead of soaking");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }
  if (!cli.get("replay").empty()) {
    return sccft::bench::replay(cli.get("replay"));
  }
  if (cli.get_bool("control-demo")) {
    return sccft::bench::control_demo();
  }
  sccft::chaos::ControlPlaneOptions cp;
  cp.enabled = cli.get_bool("control-plane");
  cp.watchdog = !cli.get_bool("disable-watchdog");
  cp.scrubber = !cli.get_bool("disable-scrubber");
  sccft::chaos::ReconfigOptions rc;
  rc.enabled = cli.get_bool("reconfigure");
  sccft::chaos::PlantedBug planted = sccft::chaos::PlantedBug::kNone;
  try {
    planted = sccft::chaos::planted_bug_from_text(cli.get("plant-bug"));
  } catch (const sccft::util::ContractViolation&) {
    std::cerr << "chaos_soak: unknown --plant-bug tag '" << cli.get("plant-bug")
              << "'\n" << cli.usage();
    return 2;
  }
  const int nreplica = static_cast<int>(cli.get_int("nreplica"));
  if (nreplica > 2 &&
      (cp.enabled || rc.enabled || planted != sccft::chaos::PlantedBug::kNone)) {
    std::cerr << "chaos_soak: --nreplica > 2 is the unsupervised data-path rig; "
                 "it cannot be combined with --control-plane, --reconfigure, "
                 "or --plant-bug\n";
    return 2;
  }
  return sccft::bench::soak(static_cast<int>(cli.get_int("runs")),
                            sccft::util::get_jobs(cli), cli.get_double("minutes"),
                            static_cast<std::uint64_t>(cli.get_int("seed0")),
                            planted, cp, rc, nreplica, cli.get_bool("shrink"),
                            cli.get("csv"), cli.get("artifact"));
}
