// Facade tying the pieces together: design-time sizing + channel
// construction + detection logging.
//
// Typical use (see examples/quickstart.cpp):
//   1. describe the interface timing models (PJD tuples as in Table 1: the
//      producer, the consumer, and each replica's consumption and production),
//   2. construct a FaultTolerantHarness — it runs the Section 3.4 analysis
//      (Eq. 3-8) for that many replicas and builds a correctly-dimensioned
//      replicator and selector,
//   3. attach the producer, the N replicas, and the consumer,
//   4. run; query the DetectionLog for what was detected when.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ft/replica.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "kpn/network.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "scc/platform.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {

/// Interface-level timing models of a to-be-replicated application, one PJD
/// tuple per interface (the paper's Table 1 layout), one entry per replica in
/// `replica_in` and `replica_out`.
struct AppTimingSpec {
  rtc::PJD producer;                  ///< token production of P
  rtc::PJD consumer;                  ///< token consumption of C
  std::vector<rtc::PJD> replica_in{};   ///< R_i's consumption at I_i
  std::vector<rtc::PJD> replica_out{};  ///< R_i's production at O_i

  /// Assembles the curve bundle for rtc::analyze_duplicated_network().
  [[nodiscard]] rtc::NetworkTimingModel to_model() const;

  /// A horizon that safely covers the transient of all sup/inf computations
  /// (100x the largest period plus twice the largest jitter).
  [[nodiscard]] rtc::TimeNs default_horizon() const;
};

/// The selector side capacities a harness builds from `sizing` under
/// divergence threshold `threshold`: the Eq. (3)/(4) sizes as analyzed, and
/// in payload-vote mode each side grown to at least initial + D + 1. Vote
/// mode needs every side's usable space (capacity - initial) to exceed D
/// (see SelectorChannel): while a group is blocked on a silent peer the
/// consumer drains nothing, so a healthy leader must be able to write its way
/// to the rule (b) verdict on space alone. The FIFOs grow; the threshold is
/// never weakened.
[[nodiscard]] std::vector<rtc::Tokens> selector_capacities(const rtc::SizingReport& sizing,
                                                           rtc::Tokens threshold,
                                                           bool payload_vote);

/// Chronological record of all fault detections during one run.
struct DetectionLog {
  std::vector<DetectionRecord> records;

  [[nodiscard]] std::optional<DetectionRecord> first() const;
  [[nodiscard]] std::optional<DetectionRecord> first_replicator() const;
  [[nodiscard]] std::optional<DetectionRecord> first_selector() const;
};

/// Appends every kDetection verdict emitted under the given channel subjects
/// to a DetectionLog, synchronously and in emission order: the harnesses'
/// single bus subscription. Subscribed right after the channels are built,
/// so the log is complete before a later subscriber (a Supervisor) acts on
/// the verdict.
class DetectionLogSink final : public trace::Sink {
 public:
  DetectionLogSink(trace::TraceBus& bus, std::vector<trace::SubjectId> channels);
  ~DetectionLogSink() override;

  DetectionLogSink(const DetectionLogSink&) = delete;
  DetectionLogSink& operator=(const DetectionLogSink&) = delete;

  [[nodiscard]] const DetectionLog& log() const { return log_; }
  void on_event(const trace::Event& event) override;

 private:
  trace::TraceBus& bus_;
  std::vector<trace::SubjectId> channels_;
  DetectionLog log_;
};

/// Builds the dimensioned replicator + selector of width N (the size of the
/// timing spec's replica vectors, N >= 2) inside a network and aggregates
/// their detections.
class FaultTolerantHarness final {
 public:
  struct Config {
    AppTimingSpec timing;
    std::string name_prefix = "ft";
    /// Optional platform for NoC latency modelling of the 2N channel hops.
    /// Not available in payload-vote mode.
    scc::Platform* platform = nullptr;
    scc::CoreId producer_core{};
    /// Per-replica cores of each replica's first and last stage, one entry
    /// per replica. Required with a platform; may stay empty without one.
    std::vector<scc::CoreId> replica_in_cores{};
    std::vector<scc::CoreId> replica_out_cores{};
    scc::CoreId consumer_core{};
    /// Physically preload the Eq. (4) initial tokens into the selector FIFO
    /// (guarantees a stall-free consumer from t=0). Off by default: the
    /// space-counter offsets are applied either way, and without preload the
    /// consumer just blocks through the pipeline-fill transient.
    bool preload_initial_tokens = false;
    /// Payload used for the initial tokens when preloading (empty payload =
    /// marker tokens the experiment harnesses skip during stream comparison).
    kpn::Token initial_token{};
    bool enable_selector_stall_rule = true;
    /// Selector detection rule (c): CRC-verify every arriving token.
    bool verify_selector_checksums = true;
    /// CRC mismatches needed to convict a replica under rule (c).
    int corruption_conviction_threshold = 3;
    /// Majority-vote delivery (see SelectorChannel::Config): N >= 3 masks a
    /// single silently-corrupted replica; N = 2 detects the conflict only.
    /// The selector sides grow to the vote floor (see selector_capacities).
    bool enable_payload_vote = false;
    /// Override Eq. (5)'s D (0 = use the analyzed value). For ablations.
    /// Negative values throw util::ContractViolation from the constructor.
    rtc::Tokens divergence_threshold_override = 0;
    /// Override Eq. (3)'s |R_i| for every replica (0 = use analyzed values).
    /// For the queue-sizing ablation. Negative values throw
    /// util::ContractViolation.
    rtc::Tokens replicator_capacity_override = 0;
  };

  /// Throws util::ContractViolation, naming the offending values, when the
  /// timing spec has fewer than two replicas, the replica timing and core
  /// vectors disagree in size, vote mode is combined with a platform, or an
  /// override is negative.
  FaultTolerantHarness(kpn::Network& network, Config config);

  [[nodiscard]] const rtc::SizingReport& sizing() const { return sizing_; }
  [[nodiscard]] ReplicatorChannel& replicator() { return *replicator_; }
  [[nodiscard]] SelectorChannel& selector() { return *selector_; }
  /// Channel detections (both channels), in conviction order.
  [[nodiscard]] const DetectionLog& detections() const { return detections_->log(); }

 private:
  rtc::SizingReport sizing_;
  ReplicatorChannel* replicator_ = nullptr;
  SelectorChannel* selector_ = nullptr;
  std::optional<DetectionLogSink> detections_;
};

}  // namespace sccft::ft
