#include "chaos/artifact.hpp"

#include <string_view>

#include "ft/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/record.hpp"

namespace sccft::chaos {

FailureArtifact make_artifact(const StormPlan& plan, const RunOptions& options,
                              const RunObservation& obs,
                              std::vector<Violation> violations) {
  SCCFT_EXPECTS(!violations.empty());
  FailureArtifact artifact;
  artifact.seed = plan.seed;
  artifact.run_length = plan.run_length;
  artifact.planted = options.planted;
  artifact.control_plane = options.control_plane;
  artifact.reconfig = options.reconfig;
  artifact.nreplica = options.nreplica;
  artifact.violations = std::move(violations);
  artifact.plan = plan.faults;
  artifact.flight_csv = obs.render_flight_csv();
  artifact.registry_csv = obs.metrics.render_csv();
  return artifact;
}

std::string serialize(const FailureArtifact& artifact) {
  const ControlPlaneOptions& control = artifact.control_plane;
  const ReconfigOptions& reconfig = artifact.reconfig;
  util::RecordWriter out;
  out.line("sccft-chaos-artifact v1")
      .line("seed", artifact.seed)
      .line("run-length-ns", artifact.run_length)
      .line("planted", to_string(artifact.planted))
      .line("control-plane", control.enabled ? 1 : 0, control.watchdog ? 1 : 0,
            control.scrubber ? 1 : 0, control.heartbeat_period,
            control.watchdog_deadline, control.scrub_period)
      .line("reconfigure", reconfig.enabled ? 1 : 0, reconfig.period,
            reconfig.quiesce_window, reconfig.grow);
  // Emitted only for N-replica rigs: 2-replica artifacts stay byte-identical
  // to the pre-selective-protection format.
  if (artifact.nreplica != 2) out.line("protection", artifact.nreplica);
  for (const Violation& violation : artifact.violations) {
    out.line("violation", to_string(violation.code), violation.detail);
  }
  out.line("plan-begin").block(ft::serialize(artifact.plan), "plan-end");
  if (artifact.shrunk) {
    out.line("shrunk-begin").block(ft::serialize(*artifact.shrunk), "shrunk-end");
  }
  out.line("flight-begin").block(artifact.flight_csv, "flight-end");
  out.line("registry-begin").block(artifact.registry_csv, "registry-end");
  return std::move(out).str();
}

FailureArtifact parse_artifact(const std::string& text) {
  util::RecordReader in(text, "chaos artifact");
  in.header("sccft-chaos-artifact v1");
  FailureArtifact artifact;
  bool seen_seed = false;
  bool seen_plan = false;
  while (in.next()) {
    const std::string_view tag = in.tag();
    if (tag.empty()) continue;  // blank separator lines between sections
    if (tag == "seed") {
      artifact.seed = in.u64("seed");
      seen_seed = true;
    } else if (tag == "run-length-ns") {
      artifact.run_length = in.i64("run_length_ns", 1);
    } else if (tag == "planted") {
      artifact.planted = in.enumeration("planted", planted_bug_from_text);
    } else if (tag == "control-plane") {
      ControlPlaneOptions& control = artifact.control_plane;
      control.enabled = in.i64("enabled", 0, 1) == 1;
      control.watchdog = in.i64("watchdog", 0, 1) == 1;
      control.scrubber = in.i64("scrubber", 0, 1) == 1;
      control.heartbeat_period = in.i64("heartbeat_ns", 0);
      control.watchdog_deadline = in.i64("deadline_ns", 0);
      in.check(!(control.enabled && control.watchdog) || control.watchdog_deadline > 0,
               "must be positive when the watchdog is armed");
      control.scrub_period = in.i64("scrub_ns", 0);
      in.check(!(control.enabled && control.scrubber) || control.scrub_period > 0,
               "must be positive when the scrubber runs");
    } else if (tag == "reconfigure") {
      ReconfigOptions& reconfig = artifact.reconfig;
      reconfig.enabled = in.i64("enabled", 0, 1) == 1;
      reconfig.period = in.i64("period_ns", 0);
      in.check(!reconfig.enabled || reconfig.period > 0,
               "must be positive when resizing is enabled");
      reconfig.quiesce_window = in.i64("quiesce_ns", 0);
      reconfig.grow = in.i64("grow", 0);
    } else if (tag == "protection") {
      artifact.nreplica = in.i32("nreplica", 2);
    } else if (tag == "violation") {
      artifact.violations.push_back(
          {in.enumeration("code", violation_code_from_text), in.rest()});
    } else if (tag == "plan-begin") {
      artifact.plan = ft::read_fault_plan(in, "plan-end");
      seen_plan = true;
    } else if (tag == "shrunk-begin") {
      artifact.shrunk = ft::read_fault_plan(in, "shrunk-end");
    } else if (tag == "flight-begin") {
      artifact.flight_csv = in.block("flight-end");
    } else if (tag == "registry-begin") {
      artifact.registry_csv = in.block("registry-end");
    } else {
      in.fail("unknown directive '" + std::string(tag) + "'");
    }
    in.end();
  }
  if (!seen_seed) in.fail("the artifact has no seed line");
  if (artifact.run_length == 0) in.fail("the artifact has no run-length-ns line");
  if (!seen_plan) in.fail("the artifact has no plan section");
  if (artifact.violations.empty()) in.fail("the artifact records no violations");
  return artifact;
}

}  // namespace sccft::chaos
