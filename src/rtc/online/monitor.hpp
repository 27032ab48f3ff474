// The runtime glue of the online-RTC subsystem: a TraceBus sink that feeds
// token-emission events into per-stream CurveEstimators, runs the
// ConformanceChecker after every observation, and escalates the first breach
// per stream as a kCurveViolation verdict event — which the ft::Supervisor
// subscribes to and treats like any other detection.
//
// Data flow (ARCHITECTURE.md "Layer 2.6"):
//
//     TimingShaper --kEmission--> TraceBus --> OnlineMonitor
//         OnlineMonitor --> CurveEstimator (per stream)
//                       --> ConformanceChecker --kCurveViolation--> Supervisor
//         finalize()    --> snapshots + counters --> MetricsRegistry
//                           (snapshots feed the OnlineDimensioner offline)
//
// The monitor is an optional observer: it costs nothing when not constructed,
// and because its only input is the kEmission data-path event (emitted via
// the SCCFT_TRACE macro) it receives *no events at all* when the build
// defines SCCFT_TRACE_COMPILED_OUT — the zero-cost discipline doubles as a
// zero-function guarantee, which OnlineExperiment.ConformantRunHasNoViolations
// pins down.
//
// Every stream's estimator is advanced on *every* tracked emission (not just
// its own): a starving stream's lower-curve minima are witnessed by the
// traffic of its healthy peers, so under-run drift is detected while the
// stream is still (too) quiet, not only at finalize time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rtc/curve.hpp"
#include "rtc/online/conformance.hpp"
#include "rtc/online/estimator.hpp"
#include "rtc/online/snapshot.hpp"
#include "rtc/online/weakly_hard.hpp"
#include "rtc/time.hpp"
#include "trace/bus.hpp"

namespace sccft::rtc::online {

/// One stream to watch: which trace subject carries its emissions, what the
/// design envelope is, and which replica to convict when it drifts.
struct StreamSpec {
  std::string subject;  ///< trace subject of the stream's kEmission events
  std::string name;     ///< short name for metrics/reports ("producer", "r1.out")
  int replica = -1;     ///< ft replica index for escalation (-1: not a replica)
  CurveRef design_lower;
  CurveRef design_upper;
};

class OnlineMonitor final : public trace::Sink {
 public:
  /// Fleet-scale tuning knobs. Defaults reproduce the original behavior
  /// exactly (escalating monitor, cross-advance on every emission).
  struct Options {
    /// Emit kCurveViolation verdicts onto the bus. Fleet rigs monitoring
    /// many independent streams on one bus set this false: every supervisor
    /// on the bus sees every kCurveViolation, so escalation from stream A's
    /// monitor would convict replicas of stream B. The conformance counters
    /// and snapshots still accumulate for finalize().
    bool escalate = true;
    /// Cross-stream advance is O(streams) per tracked emission — quadratic
    /// in fleet cardinality. A non-zero quantum (ns) amortizes it: a peer
    /// emission only advances this stream's clock when it is at least
    /// `cross_advance_quantum` ahead of the stream's estimator instant.
    /// Starvation detection coarsens by at most the quantum; 0 keeps the
    /// every-event advance.
    TimeNs cross_advance_quantum = 0;
    /// Weakly-hard (m,K) acceptance (rtc/online/weakly_hard.hpp). When set,
    /// each stream tolerates m conformance misses per sliding window of K
    /// checks: every miss is reported as a kAcceptanceMiss event (graduated
    /// pressure for the adaptation policy), and kCurveViolation escalates
    /// only once the window breaches — instead of on the first miss. Unset
    /// (the default) keeps first-breach escalation byte-identical.
    std::optional<WeaklyHardParams> weakly_hard;
  };

  OnlineMonitor(trace::TraceBus& bus, const LatticeConfig& lattice,
                std::vector<StreamSpec> specs);
  OnlineMonitor(trace::TraceBus& bus, const LatticeConfig& lattice,
                std::vector<StreamSpec> specs, Options options);
  ~OnlineMonitor() override;
  OnlineMonitor(const OnlineMonitor&) = delete;
  OnlineMonitor& operator=(const OnlineMonitor&) = delete;

  void on_event(const trace::Event& event) override;

  /// Everything the harvest needs about one stream after a run.
  struct StreamReport {
    std::string name;
    int replica = -1;
    std::uint64_t events = 0;
    std::uint64_t upper_violations = 0;
    std::uint64_t lower_violations = 0;
    /// Weakly-hard misses recorded (0 unless Options::weakly_hard was set).
    std::uint64_t acceptance_misses = 0;
    std::optional<ConformanceChecker::Violation> first;
    EmpiricalCurveSnapshot snapshot;
  };

  /// Advance all streams to `at` (witnessing any terminal starvation), run a
  /// final conformance check, publish per-stream counters into the bus's
  /// MetricsRegistry (`online.<name>.*`), and return the reports. Call once,
  /// after the simulation finishes and before the registry is harvested.
  std::vector<StreamReport> finalize(TimeNs at);

  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

  /// Mid-run empirical snapshot of stream `index` — what the adaptation loop
  /// polls periodically to re-run the sizing analyses on live curves. Unlike
  /// finalize() this neither advances conformance checking nor publishes
  /// metrics; `at` is clamped up to the estimator's current instant.
  [[nodiscard]] EmpiricalCurveSnapshot snapshot_stream(std::size_t index, TimeNs at);

  /// Emission events stream `index` has absorbed so far.
  [[nodiscard]] std::uint64_t stream_events(std::size_t index) const;

 private:
  struct Stream {
    std::string name;
    int replica = -1;
    CurveEstimator estimator;
    // Between the estimator's trailing instant_ and the checker's leading
    // advance state: a peer's emission reads only this stretch.
    trace::SubjectId subject = 0;
    ConformanceChecker checker;
    bool escalated = false;
    /// Weakly-hard acceptance state (engaged when Options::weakly_hard set).
    std::optional<WeaklyHardWindow> window;
    std::uint64_t misses = 0;
  };

  /// Routes a check result through the weakly-hard window when one is
  /// configured (miss events, breach-gated escalation), or straight to
  /// escalate() otherwise. `own` distinguishes the stream's own emissions
  /// (which record hits as well) from peer-driven advances (misses only, so
  /// cross-stream chatter cannot dilute the window).
  void observe(Stream& stream, TimeNs at,
               const std::optional<ConformanceChecker::Violation>& violation,
               bool own);

  /// One-shot verdict escalation of a check's result.
  void escalate(Stream& stream, TimeNs at,
                const std::optional<ConformanceChecker::Violation>& violation);

  trace::TraceBus& bus_;
  Options options_;
  std::vector<Stream> streams_;
};

}  // namespace sccft::rtc::online
