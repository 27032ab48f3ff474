// Fault-injection vulnerability profiler.
//
// For every (process, fault kind, protection level) cell, the profiler runs
// `trials_per_cell` storm campaigns — chaos::StormGenerator restricted to a
// single fault kind against a single victim (only_kind + pin_victim) — on a
// private simulation of that one process at that protection level:
//
//   N = 1  plain producer -> stage -> consumer pipeline. No detection
//          machinery exists; faults are applied directly to the stage
//          process (silence/rate) or its emitted tokens (corruption).
//   N = 2  the paper's supervised duplicated pair (ft/framework +
//          ft/supervisor), faults injected through ft::FaultCampaign.
//   N = 3+ the unsupervised N-replica payload-vote rig (selector vote mode).
//
// Each trial scores what the *user* sees: wrong output values (after the
// process's sensitivity mask), golden-stream divergence, and deliveries past
// the process's deadline slack — plus what the detection machinery caught
// and how fast. The aggregated cells form the VulnerabilityProfile the
// selective-replication planner (src/vuln/planner.hpp) consumes.
//
// Determinism: every cell's storm seeds derive only from (profile seed,
// process index, kind, protection), and cells write into index-addressed
// slots folded in order (util/parallel.hpp) — the profile is byte-identical
// at any --jobs setting.
#pragma once

#include <cstdint>
#include <vector>

#include "rtc/time.hpp"
#include "vuln/profile.hpp"
#include "vuln/rig.hpp"

namespace sccft::vuln {

struct ProfilerOptions {
  /// Storms per (process, kind, protection) cell.
  int trials_per_cell = 4;
  /// Simulated length of each trial.
  rtc::TimeNs run_length = rtc::from_sec(2.0);
  /// Faults per storm (inclusive range, all of the cell's kind).
  int min_faults = 1;
  int max_faults = 2;
  /// Protection levels to measure. Must be within [1, 4].
  std::vector<int> protections = {1, 2, 3};
  std::uint64_t seed = 1;
  /// Host worker threads (<= 1 = serial). Output is identical either way.
  int jobs = 1;
};

/// Profiles every process of `app` across profiled_kinds() x protections.
[[nodiscard]] VulnerabilityProfile profile_application(
    const Application& app, const ProfilerOptions& options);

}  // namespace sccft::vuln
