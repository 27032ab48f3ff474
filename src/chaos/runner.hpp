// Executes one chaos storm against a fresh duplicated network and records
// everything the invariant oracles (chaos/oracle.hpp) need for their verdict.
//
// The rig is the fault-campaign stream (ft/stream.hpp, shared with
// bench/fault_campaign.cpp): a producer, RunOptions::nreplica replicas, a
// consumer, and a FaultCampaign armed with the storm's fault plan. The pair
// is supervised, and NoC storms additionally route its channels over the SCC
// mesh model. Every run owns an isolated Simulator and
// derives all randomness from the storm seed, so run_storm is a pure
// function of (plan, options) — the property the soak driver's --jobs
// determinism and the shrinker's re-execution both stand on.
//
// The observation deliberately captures REDUNDANT views of the same run —
// the consumed stream, the supervisor's transition log, the flight-recorder
// ring, and the metrics registry — because several oracles work by
// cross-checking one view against another.
//
// PlantedBug is the test-only defect hook the acceptance criteria call for:
// it wires a deliberate invariant violation into the consumer so the whole
// pipeline (oracle -> artifact -> ddmin shrink -> replay) can be exercised
// end to end against a KNOWN bug, without touching production code paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/storm.hpp"
#include "ft/replica.hpp"
#include "ft/supervisor.hpp"
#include "trace/event.hpp"
#include "trace/metrics.hpp"

namespace sccft::chaos {

/// Deliberate, test-only defects injected at the consumer boundary.
enum class PlantedBug {
  kNone,
  /// Silently drop one delivered token once two restarts have happened:
  /// manufactures a sequence gap, which the no-loss oracle must catch on a
  /// lossless plan (and ddmin must shrink to the <= 2 faults that force the
  /// two restarts).
  kDropAfterSecondRestart,
  /// Record a wrong payload fingerprint for one token after the first
  /// restart: manufactures a divergence from the fault-free golden run,
  /// which the output-equivalence oracle catches on ANY plan.
  kCorruptAfterRestart,
};

[[nodiscard]] const char* to_string(PlantedBug bug);
/// Parses a to_string(PlantedBug) tag; throws util::ContractViolation on an
/// unknown tag.
[[nodiscard]] PlantedBug planted_bug_from_text(const std::string& tag);

/// The last-line-defense configuration of a run: per-tile hardware watchdog
/// (scc/watchdog.hpp), control-state scrubber (ft/scrub.hpp), and the
/// supervisor heartbeat they monitor. Disabled by default so existing rigs
/// keep byte-identical schedules; the control-plane soak enables all three,
/// and the ablation demos disable exactly one to show the planted storms
/// fail without it.
struct ControlPlaneOptions {
  bool enabled = false;
  bool watchdog = true;   ///< arm the hardware watchdog (needs enabled)
  bool scrubber = true;   ///< run the periodic scrubber (needs enabled)
  /// Supervisor liveness-beacon period (kHeartbeat cadence).
  rtc::TimeNs heartbeat_period = rtc::from_ms(25.0);
  /// Watchdog deadline: must exceed every benign kick gap of the rig
  /// (rate-degraded emission stretches to ~60 ms, intermittent silence
  /// bursts to ~90 ms), so only genuine hangs trip it. Positive when armed.
  rtc::TimeNs watchdog_deadline = rtc::from_ms(120.0);
  /// Scrub period: far below the storm generator's 40-80 ms flip period, so
  /// a second flip cannot land on a word before the first is repaired.
  /// Positive when the scrubber runs.
  rtc::TimeNs scrub_period = rtc::from_ms(5.0);
};

/// Benign periodic live-resize windows driven by the adaptation layer's
/// ReconfigurationController (src/adapt/reconfig.hpp): every `period` a
/// quiesce -> resize -> resume window opens; odd windows grow both FIFO
/// capacities and the divergence threshold by `grow` tokens, even windows
/// restore the designed sizes — so both the grow path and the shrink clamps
/// run under storm fire. Off by default: existing rigs keep byte-identical
/// schedules (a larger |F| changes when a blocked producer wakes even in
/// fault-free runs, so the golden reference must share these options —
/// run_golden takes them).
struct ReconfigOptions {
  bool enabled = false;
  rtc::TimeNs period = kReconfigPeriodNs;  ///< positive when enabled
  rtc::TimeNs quiesce_window = kReconfigWindowNs;
  rtc::Tokens grow = 8;
};

struct RunOptions {
  PlantedBug planted = PlantedBug::kNone;
  /// Flight-recorder ring capacity (events retained for the artifact).
  std::size_t ring_capacity = 4096;
  ControlPlaneOptions control_plane;
  ReconfigOptions reconfig;
  /// Replica count of the rig, built on one path for every N. 2 = the
  /// supervised duplicated network (harness prefix "ft", replica jitter 2 and
  /// 6 ms). >= 3 = the same stream with the selector in payload-vote mode
  /// (prefix "nft", replica i jittering by 2(i+1) ms) and NO supervisor:
  /// detection and masking are the channels' job alone, which is exactly
  /// what the N-soak is meant to stress. Storm plans must then carry
  /// data-path faults only (no NoC / control-plane), and the control-plane /
  /// reconfig / planted-bug options must stay off; run_storm throws
  /// util::ContractViolation naming N and the offending option or fault.
  int nreplica = 2;
};

/// Everything observed about one run, in the redundant views the oracles
/// cross-check.
struct RunObservation {
  // --- the delivered stream, in consumption order -------------------------
  std::vector<std::uint64_t> consumed_seqs;
  std::vector<rtc::TimeNs> consumed_times;
  /// CRC-32 fingerprint per consumed token (golden-run equivalence).
  std::vector<std::uint32_t> consumed_fingerprints;
  std::uint64_t corrupt_delivered = 0;  ///< tokens failing verify_checksum()

  // --- supervisor ----------------------------------------------------------
  std::vector<ft::HealthTransition> transitions;
  ft::ReplicaHealth final_health[2] = {ft::ReplicaHealth::kHealthy,
                                       ft::ReplicaHealth::kHealthy};
  int restart_budget = 0;  ///< config echoed for the budget oracle

  // --- fault campaign ------------------------------------------------------
  std::vector<ft::FaultInjectionRecord> injections;

  // --- trace spine ---------------------------------------------------------
  std::uint64_t events_processed = 0;     ///< simulator events dispatched
  std::uint64_t flight_total_events = 0;  ///< ring's lifetime count
  std::vector<trace::Event> flight_events;  ///< retained ring contents, oldest first
  std::uint64_t flight_dropped = 0;       ///< events the ring aged out
  /// Subject-name table snapshot (index = SubjectId) so the flight recorder
  /// can be rendered after the run's TraceBus is gone.
  std::vector<std::string> flight_subjects;
  trace::MetricsRegistry metrics;         ///< end-of-run registry snapshot

  /// Renders the retained flight-recorder events as CSV, byte-identical to
  /// RingBufferSink::render_csv. Rendering is deferred to the failure path
  /// (artifact construction): formatting several thousand rows per run was a
  /// measurable fraction of soak wall-clock, and passing runs never read it.
  [[nodiscard]] std::string render_flight_csv() const;

  // --- control plane (last-line defense) -----------------------------------
  ControlPlaneOptions control_plane;      ///< options echoed for the oracles
  std::uint64_t heartbeats = 0;           ///< kHeartbeat events observed
  rtc::TimeNs last_heartbeat = -1;        ///< time of the final heartbeat
  std::uint64_t watchdog_resets = 0;      ///< reset-line firings (all channels)
  std::uint64_t scrub_repairs = 0;        ///< TMR minority copies rewritten
  std::uint64_t flight_ring_resyncs = 0;  ///< wedged-ring force resyncs

  // --- reconfiguration (adapt/ live-resize windows) ------------------------
  ReconfigOptions reconfig;               ///< options echoed
  std::uint64_t reconfig_windows = 0;     ///< completed quiesce->resume windows
  std::uint64_t reconfig_targets = 0;     ///< capacity/threshold applications
  std::uint64_t reconfig_clamped = 0;     ///< requests adjusted by safety clamps

  // --- N-replica rig (RunOptions::nreplica >= 3) ---------------------------
  int nreplica = 2;                       ///< options echoed
  /// Channel convictions (replicator + selector), in conviction order. Filled
  /// only at N >= 3, where no supervisor keeps a transition log.
  std::vector<ft::DetectionRecord> n_detections;
  std::uint64_t vote_conflicts = 0;       ///< majority-less resolved groups
  std::uint64_t votes_outvoted = 0;       ///< dissenting arrivals out-voted

  /// Set when the run died on a SCCFT_EXPECTS/ENSURES/ASSERT failure instead
  /// of completing (the message); itself an unconditional violation.
  std::optional<std::string> contract_violation;
};

/// Runs `plan` to its run_length and returns the observation. Deterministic:
/// identical (plan, options) give identical observations.
[[nodiscard]] RunObservation run_storm(const StormPlan& plan,
                                       const RunOptions& options = {});

/// The fault-free reference for Theorem-2 output equivalence: the same rig
/// and seed with an empty fault plan. Reconfiguration windows perturb even
/// the fault-free schedule, so a reference for a reconfiguring run must open
/// the same windows — pass the run's ReconfigOptions. The N-replica rig has
/// a different fault-free schedule again, so its reference must share the
/// run's replica count.
[[nodiscard]] RunObservation run_golden(std::uint64_t seed, rtc::TimeNs run_length,
                                        const ReconfigOptions& reconfig = {},
                                        int nreplica = 2);

}  // namespace sccft::chaos
