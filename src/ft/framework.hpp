// Facade tying the pieces together: design-time sizing + channel
// construction + detection logging.
//
// Typical use (see examples/quickstart.cpp):
//   1. describe the six interface timing models (PJD tuples as in Table 1),
//   2. construct a FaultTolerantHarness — it runs the Section 3.4 analysis
//      (Eq. 3-8) and builds a correctly-dimensioned replicator and selector,
//   3. attach the producer, the two replicas, and the consumer,
//   4. run; query the DetectionLog for what was detected when.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ft/fault_injector.hpp"
#include "ft/nreplica.hpp"
#include "ft/replica.hpp"
#include "ft/replicator.hpp"
#include "ft/selector.hpp"
#include "kpn/network.hpp"
#include "rtc/pjd.hpp"
#include "rtc/sizing.hpp"
#include "scc/platform.hpp"
#include "trace/bus.hpp"

namespace sccft::ft {

/// Interface-level timing models of a to-be-duplicated application, one PJD
/// tuple per interface (the paper's Table 1 layout).
struct AppTimingSpec {
  rtc::PJD producer;      ///< token production of P
  rtc::PJD replica1_in;   ///< R1's consumption at I_1
  rtc::PJD replica2_in;   ///< R2's consumption at I_2
  rtc::PJD replica1_out;  ///< R1's production at O_1
  rtc::PJD replica2_out;  ///< R2's production at O_2
  rtc::PJD consumer;      ///< token consumption of C

  /// Assembles the curve bundle for rtc::analyze_duplicated_network().
  [[nodiscard]] rtc::NetworkTimingModel to_model() const;

  /// A horizon that safely covers the transient of all sup/inf computations
  /// (100x the largest period plus the largest jitter).
  [[nodiscard]] rtc::TimeNs default_horizon() const;
};

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

/// Builds the dimensioned replicator + selector pair inside a network and
/// aggregates their detections.
class FaultTolerantHarness final {
 public:
  struct Config {
    AppTimingSpec timing;
    std::string name_prefix = "ft";
    /// Optional platform for NoC latency modelling of the four channel hops.
    scc::Platform* platform = nullptr;
    scc::CoreId producer_core{};
    scc::CoreId replica1_in_core{};
    scc::CoreId replica1_out_core{};
    scc::CoreId replica2_in_core{};
    scc::CoreId replica2_out_core{};
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
    /// Override Eq. (5)'s D (0 = use the analyzed value). For ablations.
    /// Negative values throw util::ContractViolation from the constructor.
    rtc::Tokens divergence_threshold_override = 0;
    /// Override Eq. (3)'s |R_1| = |R_2| (0 = use analyzed values). For the
    /// queue-sizing ablation. Negative values throw util::ContractViolation.
    rtc::Tokens replicator_capacity_override = 0;
  };

  FaultTolerantHarness(kpn::Network& network, Config config);

  [[nodiscard]] const rtc::SizingReport& sizing() const { return sizing_; }
  [[nodiscard]] ReplicatorChannel& replicator() { return *replicator_; }
  [[nodiscard]] SelectorChannel& selector() { return *selector_; }
  [[nodiscard]] const DetectionLog& detections() const { return detections_->log(); }
  [[nodiscard]] FaultInjector& injector() { return injector_; }

  /// Latency of the first detection relative to the injected fault, if both
  /// happened.
  [[nodiscard]] std::optional<rtc::TimeNs> first_detection_latency() const;
  [[nodiscard]] std::optional<rtc::TimeNs> replicator_detection_latency() const;
  [[nodiscard]] std::optional<rtc::TimeNs> selector_detection_latency() const;

 private:
  rtc::SizingReport sizing_;
  ReplicatorChannel* replicator_ = nullptr;
  SelectorChannel* selector_ = nullptr;
  std::optional<DetectionLogSink> detections_;
  FaultInjector injector_;
};

/// N-replica facade: per-replica timing models in, a correctly-dimensioned
/// replicator + selector pair of width N out (the per-replica Eq. (3)-(5)
/// application of nreplica.hpp), with the channels' detections aggregated
/// chronologically. The N-ary sibling of FaultTolerantHarness; used by the
/// chaos soak's --nreplica rig, the fleet's mixed-protection streams, and the
/// vulnerability profiler's evaluation runs.
class NReplicaHarness final {
 public:
  struct Config {
    rtc::PJD producer;                  ///< token production of P
    rtc::PJD consumer;                  ///< token consumption of C
    std::vector<rtc::PJD> replica_in;   ///< R_i consumption at I_i, size N >= 2
    std::vector<rtc::PJD> replica_out;  ///< R_i production at O_i, size N
    std::string name_prefix = "nft";
    bool enable_stall_rule = true;
    /// Detection rule (c): CRC-verify arrivals at the selector.
    bool verify_checksums = true;
    int corruption_conviction_threshold = 3;
    /// Majority-vote delivery (see SelectorChannel::Config): N >= 3 masks a
    /// single silently-corrupted replica; N = 2 detects the conflict only.
    bool enable_payload_vote = false;

    /// A horizon covering the transient of all sup/inf computations.
    [[nodiscard]] rtc::TimeNs default_horizon() const;
  };

  NReplicaHarness(kpn::Network& network, Config config);

  [[nodiscard]] int replica_count() const { return replicator_->replica_count(); }
  [[nodiscard]] const NSizingReport& sizing() const { return sizing_; }
  [[nodiscard]] ReplicatorChannel& replicator() { return *replicator_; }
  [[nodiscard]] SelectorChannel& selector() { return *selector_; }
  /// Channel detections (both channels), in conviction order.
  [[nodiscard]] const DetectionLog& detections() const { return detections_->log(); }

 private:
  NSizingReport sizing_;
  ReplicatorChannel* replicator_ = nullptr;
  SelectorChannel* selector_ = nullptr;
  std::optional<DetectionLogSink> detections_;
};

}  // namespace sccft::ft
