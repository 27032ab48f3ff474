// The campaign benchmark's workloads: the runs people actually make with
// this framework, driven only through its public API.
//
//   paper_tables  Table 2 protocol (duplicated, reference, fault R1, fault R2)
//                 for ADPCM, MJPEG and H.264 through apps::ExperimentRunner.
//   chaos_soak    generate + run_golden + run_storm + check_invariants in the
//                 default, control-plane and reconfigure soak modes.
//   fleet_sweep   ft::run_fleet over the bench/fleet stream-count grid; an
//                 infeasible placement is an outcome, not a failure.
//   vuln_profile  vuln::profile_application + plan_protection at budgets 0..8.
//
// One repetition runs a fixed list of operations derived from the seed, so
// every repetition of a run does the same work and folds the same digest of
// its simulated statistics. An operation is everything a workload does for
// one seed (12 runs, 3 storms, 11 fleets, or 1 profile and its plans): the
// operations of a workload are then alike, and their median latency is not
// read off the gap between two kinds of run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace sccft::perf {

using Clock = std::chrono::steady_clock;

/// Deterministic per-layer counts a traced repetition reads from public
/// results and registries, keyed by metric name.
using Counts = std::map<std::string, double>;

/// One repetition's record. The workload reports each finished operation
/// through op_done(). A paced repetition also samples host speed
/// (host_speed.hpp) after every slice of about 0.2 s of operations, keeps
/// that sampling out of its times, and records every time twice: as measured
/// and at reference host speed.
struct RepResult {
  explicit RepResult(bool paced = false) : paced_(paced) {}

  void op_done(Clock::time_point start, bool ok);
  /// Closes the repetition: after it, wall_s and ref_s are final.
  void finish();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< threw, rejected by the oracle, or bad digest
  double simulated_s = 0.0;        ///< simulated seconds the operations covered
  std::uint64_t digest = 0;
  std::vector<double> op_ms;       ///< host latency of every operation
  std::vector<double> op_ref_ms;   ///< the same at reference host speed (paced)
  double wall_s = 0.0;             ///< host time of the operations
  double ref_s = 0.0;              ///< the same at reference host speed (paced)

 private:
  void close_slice();

  bool paced_;
  Clock::time_point slice_start_ = Clock::now();
  std::size_t slice_first_op_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's state from scratch, discarding the previous one,
  /// and runs the warm-up a user pays once per process (filling caches).
  virtual void setup() = 0;

  /// One repetition into `rep`. With a tracer, records spans around every
  /// framework call and fills `counts`; without one, adds no instrumentation.
  virtual void run(RepResult& rep, Tracer* tracer, Counts* counts) = 0;

  /// Workload-specific probes run after the traced repetition (timed calls
  /// that would distort the traced wall if made inside it).
  virtual void probe(Counts& /*counts*/) {}

  /// Metrics derived from the traced repetition's span totals.
  virtual void derive(const std::map<std::string, SpanTotals>& /*totals*/,
                      Counts& /*counts*/) const {}
};

/// nullptr for an unknown name. `quick` shrinks the operation list to a
/// smoke-test size.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, bool quick);

/// Layer probes shared by every workload: rtc sizing per call, scc placement
/// per call over the fleet grid at `seed`, and the codecs' reference
/// transforms over each paper application's input cycle.
void probe_layers(std::uint64_t seed, Counts& counts);

}  // namespace sccft::perf
