// Vulnerability profiles and protection plans, with text serialization.
//
// A VulnerabilityProfile is the measured outcome of fault-injection
// campaigns: for every (process, fault kind, protection level) cell it
// records how many injected faults escaped into user-visible corruption,
// golden-stream divergence, or deadline misses — and how many were caught by
// the detection machinery, how fast. A ProtectionPlan is the planner's
// answer: one replica count per process, its aggregate platform cost, and
// the residual vulnerability the budget could not buy away.
//
// Both carry a line-oriented text form (util/record.hpp) so profiles can
// be computed once, stored next to the code, diffed in review, and replayed
// into the planner without re-running the campaigns:
//
//   vuln-profile v1
//   seed <u64>
//   run-length <ns>
//   trials <per cell>
//   process <index> <name>
//   cell <kind> <protection> <trials> <injections> <delivered> <corruptions>
//        <divergences> <deadline-misses> <detections> <latency-sum-ns>
//        <latency-count>
//   end
//
//   vuln-plan v1
//   budget <extra cores>
//   cost <cores> <mpb-bytes> <noc-links>
//   residual <escapes per trial>
//   protection <n0> <n1> ...
//   end
//
// Round-trip guarantee: parse(serialize(x)) == x field-by-field. Malformed
// input throws util::ContractViolation naming the line, the field and its
// text — never undefined behaviour.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ft/fault_plan.hpp"
#include "ft/nreplica.hpp"
#include "rtc/time.hpp"

namespace sccft::vuln {

/// The per-process data-path fault kinds the profiler storms with. Transient
/// kinds only: a vulnerability score mixes escape *rates*, and a permanent
/// outage saturates every counter of every level.
[[nodiscard]] const std::vector<ft::FaultKind>& profiled_kinds();

/// Measured outcome of one (process, kind, protection) campaign cell.
struct CampaignCell {
  ft::FaultKind kind = ft::FaultKind::kTransientSilence;
  int protection = 1;  ///< replica count N the cell ran with
  int trials = 0;      ///< storms run
  int injections = 0;  ///< faults injected across all trials
  std::uint64_t tokens_delivered = 0;
  std::uint64_t corruption_escapes = 0;    ///< user-visible wrong values
  std::uint64_t sequence_divergences = 0;  ///< golden-stream gaps/duplicates
  std::uint64_t deadline_misses = 0;       ///< late past the process slack
  std::uint64_t detections = 0;            ///< convictions by any rule
  rtc::TimeNs detection_latency_sum = 0;   ///< over per-trial first detections
  int detection_latency_count = 0;

  /// Escapes of every category — what the user actually suffers.
  [[nodiscard]] std::uint64_t escapes() const {
    return corruption_escapes + sequence_divergences + deadline_misses;
  }

  [[nodiscard]] bool operator==(const CampaignCell&) const = default;
};

/// All campaign cells of one process.
struct ProcessProfile {
  std::string name;
  int index = 0;
  std::vector<CampaignCell> cells;

  /// Escapes per trial at protection level N, summed over all profiled
  /// kinds. 0 when no cell at that level was measured.
  [[nodiscard]] double vulnerability(int protection) const;

  /// The cell for (kind, protection), or nullptr when not measured.
  [[nodiscard]] const CampaignCell* cell(ft::FaultKind kind,
                                         int protection) const;

  [[nodiscard]] bool operator==(const ProcessProfile&) const = default;
};

/// A full application profile: campaign parameters + per-process cells.
struct VulnerabilityProfile {
  std::uint64_t seed = 0;
  rtc::TimeNs run_length = 0;
  int trials_per_cell = 0;
  std::vector<ProcessProfile> processes;

  /// Process indices ranked most-vulnerable-first by unprotected (N = 1)
  /// vulnerability; ties break toward the lower index.
  [[nodiscard]] std::vector<int> ranking() const;

  [[nodiscard]] bool operator==(const VulnerabilityProfile&) const = default;
};

/// One protection assignment: protection[i] is the replica count of process
/// i (1 = unprotected pipeline, 2 = supervised pair, 3+ = voting rig).
struct ProtectionPlan {
  int budget_extra_cores = 0;
  std::vector<int> protection;
  ft::ReplicationCost total_cost;  ///< aggregate over every process
  double residual_vulnerability = 0.0;  ///< sum of v(i, protection[i])

  [[nodiscard]] bool operator==(const ProtectionPlan&) const = default;
};

/// Serializes a profile. Throws util::ContractViolation when a process name
/// contains whitespace (the format is token-delimited).
[[nodiscard]] std::string to_text(const VulnerabilityProfile& profile);

/// Parses a profile. Throws util::ContractViolation on malformed input.
[[nodiscard]] VulnerabilityProfile profile_from_text(const std::string& text);

[[nodiscard]] std::string to_text(const ProtectionPlan& plan);

/// Parses a plan. Throws util::ContractViolation on malformed input.
[[nodiscard]] ProtectionPlan plan_from_text(const std::string& text);

}  // namespace sccft::vuln
