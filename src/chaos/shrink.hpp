// Automatic fault-plan shrinking: ddmin over the storm's fault set.
//
// Given a plan whose run violated an invariant, the shrinker searches for a
// minimal sub-plan (same seed, same run length, same planted bug) that still
// reproduces at least one of the ORIGINAL violation codes. It is the classic
// delta-debugging minimization loop (Zeller & Hildebrandt's ddmin): try ever
// finer subsets and complements of the fault list, restart the granularity
// whenever a smaller reproducer is found, and stop at 1-minimality — no
// single remaining fault can be removed without losing the failure.
//
// Every probe is a full deterministic re-execution via run_storm, so the
// result is a true reproducer, not a heuristic guess. Every probe is checked
// against the caller's golden run: the reference does not depend on the
// fault subset, and the caller already simulated it (with the plan's seed,
// run length, reconfiguration options and replica count) to find the
// failure in the first place.
#pragma once

#include <vector>

#include "chaos/oracle.hpp"
#include "chaos/runner.hpp"
#include "chaos/storm.hpp"

namespace sccft::chaos {

struct ShrinkResult {
  /// Minimal reproducing fault list (possibly empty if the violation does
  /// not depend on the faults at all).
  std::vector<ft::FaultSpec> faults;
  /// Violations the minimal plan produces (all drawn from the original codes).
  std::vector<Violation> violations;
  int probes = 0;  ///< number of full re-executions the search spent
};

/// Shrinks `plan.faults` to a 1-minimal reproducer of any violation code in
/// `original` (the verdicts of the full plan's run against `golden`, the
/// run_golden reference for the plan's seed and run length under `options`).
/// Precondition: `original` is non-empty — there must be a failure to
/// preserve.
[[nodiscard]] ShrinkResult shrink_plan(const StormPlan& plan,
                                       const RunOptions& options,
                                       const std::vector<Violation>& original,
                                       const RunObservation& golden);

}  // namespace sccft::chaos
