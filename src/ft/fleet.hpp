// Fleet-scale stream simulation (extension beyond the paper).
//
// The paper validates one duplicated stream on a mostly-idle SCC. This module
// asks the production question: how many concurrent streams fit on one shared
// mesh before the Section 3.4 guarantees degrade? A FleetSpec describes N
// streams — every `critical_every`-th one duplicated and supervised exactly
// like the paper's network, the rest plain producer/worker/consumer pipelines
// — or, with FleetSpec::protection set, a mixed-protection fleet where each
// stream independently runs at N = 1 (plain pipeline), N = 2 (supervised
// pair) or N >= 3 (unsupervised payload-vote rig, selector vote mode) —
// with per-stream PJD envelopes materialized deterministically from the
// fleet seed. Placement goes through scc/placement.hpp (multiple processes
// per core, replica anti-affinity, MPB accounting), all streams share one
// NoC, all supervisors may share one restart-budget pool, and per-stream
// online monitors (rtc/online) watch envelope conformance at fleet
// cardinality.
//
// run_fleet() builds the whole rig in one Simulator, runs it, and reports per
// stream: throughput against nominal, detection latency against the Eq.
// (6)-(8) bound, and observed queue fills against the Eq. (3)/(5) designed
// capacities — the saturation signals bench/fleet sweeps over stream count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "rtc/time.hpp"
#include "scc/placement.hpp"

namespace sccft::ft {

/// One materialized stream of the fleet: its PJD envelope (drawn
/// deterministically from the fleet seed), protection level, and payload size.
struct FleetStreamSpec {
  int index = 0;
  bool critical = false;  ///< protection >= 2 (duplicated or vote-replicated)
  /// Replica count N: 1 = plain pipeline, 2 = supervised duplicated pair
  /// (the paper's network), >= 3 = unsupervised N-replica payload-vote rig.
  int protection = 1;
  rtc::PJD producer;      ///< producer emission envelope
  rtc::PJD stage;         ///< replica/worker emission envelope
  rtc::PJD consumer;      ///< consumer consumption envelope
  std::size_t token_bytes = 0;
  std::uint64_t seed = 0;  ///< per-stream RNG stream
};

/// Declarative description of a fleet. materialize() turns it into per-stream
/// specs; run_fleet() simulates them on one shared mesh.
struct FleetSpec {
  int streams = 8;
  /// Every k-th stream (0, k, 2k, ...) is critical (duplicated, supervised,
  /// fault-injected). 1 = all critical, 0 = none. Ignored when `protection`
  /// is non-empty.
  int critical_every = 2;
  /// Mixed protection: per-stream replica count (1 = plain pipeline,
  /// 2 = supervised pair, 3..4 = unsupervised payload-vote rig). Empty =
  /// derive from critical_every (critical -> 2, rest -> 1). When non-empty
  /// its size must equal `streams`. This is the hook the vulnerability-guided
  /// planner (src/vuln) drives: protect only the streams that matter.
  std::vector<int> protection;
  /// Stream periods spread deterministically across
  /// [base_period * (1 - period_spread), base_period * (1 + period_spread)].
  rtc::TimeNs base_period = 4'000'000;  // 4 ms
  double period_spread = 0.5;
  /// Jitter as a fraction of the stream's period.
  double jitter_fraction = 0.125;
  std::size_t token_bytes = 1024;
  /// Fleet-shared restart pool consulted by every stream supervisor in
  /// addition to per-replica budgets; 0 = per-replica budgets only.
  int shared_restart_budget = 0;
  /// Restarts each replica may spend (the paper rig's per-replica budget).
  int restart_budget = 3;
  /// Placement knob: hard cap on processes per core (0 = unlimited).
  int max_processes_per_core = 0;
  std::uint64_t seed = 1;

  /// Protection level of stream `index` under this spec (see `protection`).
  [[nodiscard]] int protection_of(int index) const;

  /// Draws every stream's envelope. Deterministic: same spec, same streams.
  [[nodiscard]] std::vector<FleetStreamSpec> materialize() const;
};

/// Builds the placement request for a materialized fleet: 2 + N processes per
/// protected stream (see add_replicated_stream) and 3 processes per
/// unprotected stream with Eq. (3)-sized FIFO demands.
[[nodiscard]] scc::PlacementRequest build_placement_request(
    const FleetSpec& spec, const std::vector<FleetStreamSpec>& streams);

/// Appends one replicated stream to `request` in the layout the fleet and the
/// vulnerability planner share: "<name>.producer", the replicas
/// "<name>.r1".."<name>.rN" (pairwise anti-affine, group `stream`) and
/// "<name>.consumer", with MPB demands from `sizing` (N = its width). Each
/// replica's tile holds its replicator FIFO |R_i| (the reader-side copy
/// target of the paper's iRCCE put). The pair's selector sides live with the
/// consumer; in `payload_vote` mode each grown side (see
/// ft::selector_capacities) lives with its replica instead, since the voting
/// consumer reads every side remotely and N grown sides no longer fit one
/// consumer tile. `weight` is each hop's traffic in bytes per second.
void add_replicated_stream(scc::PlacementRequest& request, const std::string& name,
                           int stream, const rtc::SizingReport& sizing,
                           bool payload_vote, std::size_t token_bytes,
                           std::uint64_t weight);

struct FleetRunOptions {
  rtc::TimeNs run_length = 600'000'000;  // 600 ms
  /// Inject one transient silence into replica 1 of every critical stream.
  bool inject_faults = true;
  rtc::TimeNs fault_at = 150'000'000;       // 150 ms
  rtc::TimeNs fault_duration = 60'000'000;  // 60 ms outage
  /// Attach per-stream online conformance monitors (rtc/online) to the
  /// producers. Non-escalating at fleet scale (see OnlineMonitor::Options).
  bool online_monitors = true;
  /// Cross-advance quantum for the monitors (0 = every-event advance).
  rtc::TimeNs monitor_quantum = 4'000'000;
};

/// What one stream did during the run.
struct FleetStreamOutcome {
  int index = 0;
  bool critical = false;
  int protection = 1;  ///< replica count the stream ran with
  std::uint64_t tokens_consumed = 0;
  double nominal_rate_hz = 0;   ///< 1e9 / producer period
  double achieved_rate_hz = 0;  ///< consumed / simulated seconds
  /// Detection latency of the injected fault (critical streams with
  /// inject_faults; empty when nothing was detected).
  std::optional<rtc::TimeNs> detection_latency;
  rtc::TimeNs detection_bound = 0;  ///< Eq. (6)-(8) analytic bound
  bool detected = false;
  bool false_conviction = false;  ///< the healthy replica was blamed
  int restarts = 0;
  bool degraded = false;
  /// Observed high-water marks vs the designed Eq. (3)/(5) capacities. For
  /// non-critical streams: the pipeline FIFO vs its Eq. (3) size.
  rtc::Tokens replicator_max_fill = 0;
  rtc::Tokens replicator_capacity = 0;
  rtc::Tokens selector_max_fill = 0;
  rtc::Tokens selector_capacity = 0;
  std::uint64_t writer_blocks = 0;  ///< back-pressure stalls
  bool sequence_gap = false;
  /// Online-monitor conformance counters for the producer stream (0 when
  /// monitors are off).
  std::uint64_t upper_violations = 0;
  std::uint64_t lower_violations = 0;
};

/// Aggregate result of one fleet run.
struct FleetRunResult {
  std::vector<FleetStreamOutcome> streams;
  // Placement shape.
  std::uint64_t placement_cost = 0;
  int tiles_used = 0;
  int max_core_load = 0;
  std::size_t max_tile_mpb_used = 0;
  // Simulation effort + NoC saturation signals.
  std::uint64_t events_processed = 0;
  std::uint64_t noc_contention_stalls = 0;
  rtc::TimeNs max_link_busy_ns = 0;
  rtc::TimeNs total_link_busy_ns = 0;
  rtc::TimeNs simulated_ns = 0;
  // Shared-pool accounting (0/0 when no pool was configured).
  int pool_capacity = 0;
  int pool_used = 0;
};

/// Materializes, places, builds and runs the fleet in a private Simulator.
/// Deterministic: same spec + options, same result (and same trace), at any
/// host parallelism. Throws scc::PlacementError when the fleet does not fit.
[[nodiscard]] FleetRunResult run_fleet(const FleetSpec& spec,
                                       const FleetRunOptions& options = {});

}  // namespace sccft::ft
