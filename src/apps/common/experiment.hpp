// The experiment engine: builds the reference or duplicated process network
// of an application on the simulated SCC, optionally injects one timing
// fault, and collects everything the paper's Tables 2 and 3 report — FIFO
// high-water marks, detection latencies per channel and rule, consumer
// inter-arrival statistics, output checksums for equivalence checking, and
// baseline-monitor detection latencies.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/common/application.hpp"
#include "ft/fault_injector.hpp"
#include "ft/framework.hpp"
#include "monitor/distance_function.hpp"
#include "monitor/watchdog.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/dimensioner.hpp"
#include "rtc/online/snapshot.hpp"
#include "rtc/online/weakly_hard.hpp"
#include "trace/bus.hpp"
#include "trace/metrics.hpp"
#include "util/stats.hpp"

namespace sccft::apps {

/// Gradual timing drift of one stream — the mis-modeled-deployment scenario
/// the online-RTC monitor exists to catch. Unlike an injected fault (an
/// abrupt failure the ft layer detects), drift keeps the stream alive but
/// slides it out of its design PJD envelope: rate creep stretches the
/// emission spacing, jitter creep adds extra random displacement. No RNG is
/// drawn before the onset, so the pre-drift prefix of a run is identical to
/// the drift-free run with the same seed.
struct DriftSpec {
  enum class Target { kNone, kProducer, kReplica1, kReplica2 };
  Target target = Target::kNone;
  std::uint64_t after_periods = 0;  ///< onset, in producer periods
  double rate_mult = 1.0;   ///< > 1: emissions at least mult * period apart
  rtc::TimeNs extra_jitter = 0;  ///< adds U[0, extra_jitter] per emission
};

struct ExperimentOptions {
  std::uint64_t seed = 1;

  bool duplicated = true;       ///< false = run the reference network
  bool inject_fault = false;
  ft::ReplicaIndex faulty_replica = ft::ReplicaIndex::kReplica1;
  ft::FaultMode fault_mode = ft::FaultMode::kSilence;
  double rate_factor = 4.0;     ///< for kRateDegradation

  /// Fault is injected at fault_after_periods * producer period plus a
  /// seed-dependent phase within one period (the paper injects "after 18,000
  /// frames"; we scale the warm-up down and randomize the phase across runs).
  std::uint64_t fault_after_periods = 120;
  std::uint64_t run_periods = 200;  ///< total simulated length in periods

  bool use_platform = true;     ///< model the SCC NoC (false = ideal channels)
  bool enable_selector_stall_rule = true;
  rtc::Tokens divergence_override = 0;          ///< ablation A
  rtc::Tokens replicator_capacity_override = 0; ///< ablation C (both queues)

  /// Attach the Section 4.3 baseline monitors (distance function + watchdog)
  /// to the faulty replica's consumption stream at the replicator.
  bool attach_baseline_monitors = false;
  rtc::TimeNs monitor_polling_interval = rtc::from_ms(1.0);
  int monitor_history_l = 1;

  /// If non-empty, dump channel fill levels / space counters / fault flags
  /// as a VCD waveform (viewable in GTKWave), change-driven from the trace
  /// bus.
  std::string vcd_path;

  /// Optional external trace sink, subscribed for the duration of the run
  /// with `trace_mask` (e.g. a BinarySink for determinism checks, a CsvSink
  /// for offline analysis, a RingBufferSink flight recorder). Must outlive
  /// run(). Subscribed with deferred/batched delivery: the sink is treated as
  /// a passive recorder and sees the complete event stream in emission order,
  /// but only at flush points — it must not be inspected mid-run.
  trace::Sink* trace_sink = nullptr;
  std::uint32_t trace_mask = trace::kAllEvents;

  /// Online-RTC monitor (rtc/online): estimate empirical arrival curves of
  /// the producer and both replica output streams from their kEmission
  /// events, check Eq. (2) conformance against the design PJD curves
  /// (breaches reach the Supervisor path as kCurveViolation), and
  /// re-dimension Eqs. (3)/(5)/(8) on the measured curves. Duplicated
  /// network only. kEmission is a data-path event: with
  /// SCCFT_TRACE_COMPILED_OUT the monitor observes nothing and reports
  /// zero-event streams (the zero-cost discipline).
  bool online_monitor = false;
  int online_levels = 8;                ///< power-of-two lattice size
  rtc::TimeNs online_base_delta = 0;    ///< Delta_0; 0 = producer period

  /// Timing drift applied to one stream's emissions (see DriftSpec).
  DriftSpec drift;

  /// Adaptation loop (src/adapt, Layer 8). Requires duplicated +
  /// online_monitor. When enabled, the monitor runs the weakly-hard (m,K)
  /// acceptance window from `adaptation.window` (graduated kAcceptanceMiss
  /// pressure instead of first-miss conviction), and an AdaptationPolicy +
  /// ReconfigurationController pair re-dimensions the replicator FIFOs and
  /// the selector divergence threshold live. Disabled (the default) leaves
  /// every run byte-identical to the pre-adaptation build.
  rtc::online::AdaptationConfig adaptation;
};

struct ExperimentResult {
  rtc::SizingReport sizing;

  // High-water marks (Table 2 "Max. Observed fill").
  rtc::Tokens fill_r1 = 0, fill_r2 = 0, fill_s1 = 0, fill_s2 = 0;

  // Detection outcomes.
  std::optional<rtc::TimeNs> replicator_latency;  ///< overflow rule
  std::optional<rtc::TimeNs> selector_latency;    ///< stall or divergence rule
  std::optional<ft::DetectionRecord> first_record;
  std::optional<rtc::TimeNs> first_latency;
  bool any_detection = false;
  bool false_positive = false;    ///< detection with no (or before the) fault
  bool correct_replica = true;    ///< first detection blamed the right replica
  rtc::TimeNs fault_injected_at = -1;

  // Consumer-side stream measurements (Table 2 "Decoded Inter-Frame Timings").
  util::SampleSet consumer_interarrival_ms;
  std::vector<std::uint32_t> output_checksums;  ///< non-preload tokens, in order
  std::uint64_t consumer_tokens = 0;
  std::uint64_t consumer_stalls = 0;  ///< reads that blocked on an empty FIFO

  // Overheads (Table 2 "Overhead / Memory").
  std::size_t replicator_memory_bytes = 0;
  std::size_t selector_memory_bytes = 0;

  // Baseline monitors (Table 3), measured on the same run.
  std::optional<rtc::TimeNs> distance_latency;
  std::optional<rtc::TimeNs> watchdog_latency;

  std::uint64_t noc_contention_stalls = 0;

  /// Simulator events dispatched over the whole run — the determinism
  /// fingerprint (tests/fingerprint_test): any event-count drift means the
  /// schedule changed.
  std::uint64_t events_processed = 0;

  /// Online-RTC results, one entry per monitored stream (producer, r1.out,
  /// r2.out), populated when options.online_monitor was set.
  struct OnlineStream {
    std::string name;
    int replica = -1;
    std::uint64_t events = 0;
    std::uint64_t upper_violations = 0;
    std::uint64_t lower_violations = 0;
    /// Weakly-hard misses recorded (0 unless adaptation was enabled).
    std::uint64_t acceptance_misses = 0;
    std::optional<rtc::online::ConformanceChecker::Violation> first_violation;
    rtc::online::EmpiricalCurveSnapshot snapshot;
  };
  std::vector<OnlineStream> online_streams;
  /// Eqs. (3)/(5)/(8) re-derived on the measured curves (nullopt when the
  /// monitor was off or saw no events).
  std::optional<rtc::online::OnlineMargins> online_margins;

  /// Adaptation-loop outcome (populated when options.adaptation.enabled).
  struct AdaptationOutcome {
    std::uint64_t misses_seen = 0;       ///< kAcceptanceMiss events observed
    std::uint64_t breaches_seen = 0;     ///< kCurveViolation events observed
    std::uint64_t widen_requests = 0;    ///< reactive rung: widen D
    std::uint64_t resize_requests = 0;   ///< reactive rung: grow FIFOs (+D)
    std::uint64_t proactive_requests = 0;
    std::uint64_t windows_completed = 0;
    std::uint64_t targets_applied = 0;
    std::uint64_t clamped = 0;
    // Sizes installed when the run ended (== designed if nothing fired).
    rtc::Tokens final_fifo1 = 0;
    rtc::Tokens final_fifo2 = 0;
    rtc::Tokens final_divergence = 0;
  };
  std::optional<AdaptationOutcome> adaptation;

  /// Snapshot of the run's full metrics registry (channel gauges/counters,
  /// consumer stream series, trace-event counts). Campaign harnesses merge
  /// these across runs instead of re-deriving aggregates by hand.
  std::shared_ptr<trace::MetricsRegistry> metrics;
};

/// Reusable runner: payload/transform caches persist across runs, so 20-run
/// campaigns do each distinct encode/decode once.
///
/// run() is re-entrant: every run owns an isolated single-threaded Simulator,
/// network, and metrics registry, so parallel campaign workers may call run()
/// concurrently on one runner. The only cross-run state is the memoization
/// caches, which are internally synchronized and deterministic (pure
/// functions of the input — see TransformCache). Run-local trace sinks
/// (options.trace_sink, vcd_path) stay run-local; sharing one sink object
/// across concurrent runs is a caller bug (the TraceBus owner-thread
/// contract catches cross-thread subscription).
class ExperimentRunner final {
 public:
  explicit ExperimentRunner(ApplicationSpec app);

  [[nodiscard]] ExperimentResult run(const ExperimentOptions& options);

  [[nodiscard]] const ApplicationSpec& app() const { return app_; }

  /// Renders the (duplicated or reference) topology as ASCII (Figures 1/2).
  [[nodiscard]] std::string render_topology(bool duplicated);

 private:
  const kpn::Token& input_token(std::uint64_t index);

  ApplicationSpec app_;
  // Pre-sized to input_cycle at construction (never reallocates), each slot
  // written once under input_mutex_: returned references stay valid across
  // concurrent runs.
  std::vector<kpn::Token> input_cache_;
  std::mutex input_mutex_;
  TransformCache whole_cache_{"whole"};
  TransformCache stage1_cache_{"stage1"};
  TransformCache stage2_cache_{"stage2"};
  TransformCache part_cache_{"part"};
  TransformCache split_top_cache_{"split-top"};
  TransformCache split_bottom_cache_{"split-bottom"};
  std::mutex merge_mutex_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, SharedBytes> merge_cache_;
};

/// Returns a copy of `app` with all replica jitters shrunk to `jitter_ms`
/// (the paper's Table 3 setup: "timing variations from the replicas were
/// minimized").
[[nodiscard]] ApplicationSpec minimize_replica_jitter(ApplicationSpec app,
                                                      double jitter_ms = 0.0);

}  // namespace sccft::apps
