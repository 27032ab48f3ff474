// Failure artifact bundle: everything needed to reproduce and diagnose one
// invariant violation, in one line-oriented text file.
//
// When the soak driver hits its first violating run, it serializes the seed,
// the full fault plan, the oracle verdicts, the flight-recorder dump, and the
// metrics-registry snapshot into an artifact. `chaos_soak --replay <file>`
// re-executes the plan byte-for-byte (RepTFD-style deterministic replay), and
// the ddmin shrinker appends the minimal reproducer plan it finds.
//
// Format (version tag first, parse rejects anything else; blank lines
// between records are skipped):
//
//   sccft-chaos-artifact v1
//   seed <u64>
//   run-length-ns <i64>
//   planted <planted-bug-tag>
//   control-plane <enabled:0|1> <watchdog:0|1> <scrubber:0|1>
//                 <heartbeat_ns> <deadline_ns> <scrub_ns>
//                                               (optional; legacy artifacts
//                                                omit it = defenses off)
//   reconfigure <enabled:0|1> <period_ns> <quiesce_ns> <grow>
//                                               (optional; legacy artifacts
//                                                omit it = no resize windows)
//   protection <nreplica>                       (optional; legacy artifacts
//                                                omit it = the uniform
//                                                2-replica rig)
//   violation <code-tag> <free-text detail>     (repeated, >= 1)
//   plan-begin
//   fault ...                                   (ft/fault_plan.hpp lines)
//   plan-end
//   shrunk-begin                                (optional section)
//   fault ...
//   shrunk-end
//   flight-begin
//   <flight-recorder CSV>
//   flight-end
//   registry-begin
//   <metrics-registry CSV>
//   registry-end
//
// The lines are util/record.hpp records. parse_artifact throws
// util::ContractViolation on malformed input (missing header, unknown
// section, truncated section, bad or out-of-range numbers, trailing fields),
// naming the line, the field and the offending text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"

namespace sccft::chaos {

struct FailureArtifact {
  std::uint64_t seed = 0;
  rtc::TimeNs run_length = 0;
  PlantedBug planted = PlantedBug::kNone;
  /// Defense configuration of the failing run, replayed verbatim.
  ControlPlaneOptions control_plane;
  /// Live-resize window cadence of the failing run, replayed verbatim.
  ReconfigOptions reconfig;
  /// Replica count of the failing rig (RunOptions::nreplica); artifacts from
  /// before selective protection carry no line and parse as 2.
  int nreplica = 2;
  std::vector<Violation> violations;
  std::vector<ft::FaultSpec> plan;
  /// Minimal reproducer, present once the shrinker has run.
  std::optional<std::vector<ft::FaultSpec>> shrunk;
  std::string flight_csv;
  std::string registry_csv;
};

/// Bundles a violating run into an artifact (shrunk plan left empty; attach
/// it after running shrink_plan).
[[nodiscard]] FailureArtifact make_artifact(const StormPlan& plan,
                                            const RunOptions& options,
                                            const RunObservation& obs,
                                            std::vector<Violation> violations);

[[nodiscard]] std::string serialize(const FailureArtifact& artifact);
/// Parses a serialize() artifact; throws util::ContractViolation on
/// malformed input.
[[nodiscard]] FailureArtifact parse_artifact(const std::string& text);

}  // namespace sccft::chaos
