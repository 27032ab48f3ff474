#include "ft/framework.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"

namespace sccft::ft {

rtc::NetworkTimingModel AppTimingSpec::to_model() const {
  rtc::NetworkTimingModel model;
  model.producer_upper = rtc::make_curve<rtc::PJDUpperCurve>(producer);
  model.producer_lower = rtc::make_curve<rtc::PJDLowerCurve>(producer);
  model.consumer_upper = rtc::make_curve<rtc::PJDUpperCurve>(consumer);
  model.consumer_lower = rtc::make_curve<rtc::PJDLowerCurve>(consumer);
  for (const rtc::PJD& pjd : replica_in) {
    model.replica_in_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.replica_in_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
  }
  for (const rtc::PJD& pjd : replica_out) {
    model.replica_out_upper.push_back(rtc::make_curve<rtc::PJDUpperCurve>(pjd));
    model.replica_out_lower.push_back(rtc::make_curve<rtc::PJDLowerCurve>(pjd));
  }
  return model;
}

rtc::TimeNs AppTimingSpec::default_horizon() const {
  rtc::TimeNs max_period = std::max(producer.period, consumer.period);
  rtc::TimeNs max_jitter = std::max(producer.jitter, consumer.jitter);
  for (const std::vector<rtc::PJD>* models : {&replica_in, &replica_out}) {
    for (const rtc::PJD& pjd : *models) {
      max_period = std::max(max_period, pjd.period);
      max_jitter = std::max(max_jitter, pjd.jitter);
    }
  }
  return 100 * max_period + 2 * max_jitter;
}

std::vector<rtc::Tokens> selector_capacities(const rtc::SizingReport& sizing,
                                             rtc::Tokens threshold, bool payload_vote) {
  std::vector<rtc::Tokens> capacities = sizing.selector_capacity;
  if (payload_vote) {
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      capacities[i] =
          std::max(capacities[i], sizing.selector_initial[i] + threshold + 1);
    }
  }
  return capacities;
}

std::optional<DetectionRecord> DetectionLog::first() const {
  if (records.empty()) return std::nullopt;
  return records.front();
}

std::optional<DetectionRecord> DetectionLog::first_replicator() const {
  for (const auto& record : records) {
    if (record.rule == DetectionRule::kReplicatorOverflow) return record;
  }
  return std::nullopt;
}

std::optional<DetectionRecord> DetectionLog::first_selector() const {
  for (const auto& record : records) {
    if (record.rule == DetectionRule::kSelectorStall ||
        record.rule == DetectionRule::kSelectorDivergence ||
        record.rule == DetectionRule::kSelectorCorruption) {
      return record;
    }
  }
  return std::nullopt;
}

DetectionLogSink::DetectionLogSink(trace::TraceBus& bus,
                                   std::vector<trace::SubjectId> channels)
    : bus_(bus), channels_(std::move(channels)) {
  bus_.subscribe(this, trace::bit(trace::EventKind::kDetection));
}

DetectionLogSink::~DetectionLogSink() { bus_.unsubscribe(this); }

void DetectionLogSink::on_event(const trace::Event& event) {
  if (std::find(channels_.begin(), channels_.end(), event.subject) == channels_.end()) {
    return;
  }
  log_.records.push_back(DetectionRecord{static_cast<ReplicaIndex>(event.a),
                                         static_cast<DetectionRule>(event.b),
                                         event.time});
}

FaultTolerantHarness::FaultTolerantHarness(kpn::Network& network, Config config) {
  auto reject = [](const std::string& what) {
    util::contract_failure_msg("precondition", what, __FILE__, __LINE__);
  };
  const std::size_t n = config.timing.replica_in.size();
  if (n < 2) {
    reject("a harness needs at least 2 replicas, timing.replica_in has " +
           std::to_string(n));
  }
  auto check_width = [&](const char* field, std::size_t size) {
    if (size != n) {
      reject(std::string(field) + " has " + std::to_string(size) +
             " entries, timing.replica_in has " + std::to_string(n));
    }
  };
  check_width("timing.replica_out", config.timing.replica_out.size());
  if (config.platform != nullptr || !config.replica_in_cores.empty() ||
      !config.replica_out_cores.empty()) {
    check_width("replica_in_cores", config.replica_in_cores.size());
    check_width("replica_out_cores", config.replica_out_cores.size());
  }
  if (config.enable_payload_vote && config.platform != nullptr) {
    reject("enable_payload_vote models no NoC links, but a platform was given for " +
           std::to_string(n) + " replicas");
  }
  // The overrides use 0 as "unset"; a negative value is neither unset nor a
  // legal size, and the `override > 0 ? override : analyzed` selection below
  // would silently discard it. Diagnose with the offending value instead.
  if (config.divergence_threshold_override < 0) {
    reject("divergence_threshold_override must be >= 0 (0 = use Eq. (5)), got " +
           std::to_string(config.divergence_threshold_override));
  }
  if (config.replicator_capacity_override < 0) {
    reject("replicator_capacity_override must be >= 0 (0 = use Eq. (3)), got " +
           std::to_string(config.replicator_capacity_override));
  }
  sizing_ = rtc::analyze_duplicated_network(config.timing.to_model(),
                                            config.timing.default_horizon());

  ReplicatorChannel::Config replicator_config{.capacities = sizing_.replicator_capacity};
  if (config.replicator_capacity_override > 0) {
    replicator_config.capacities.assign(n, config.replicator_capacity_override);
  }
  const rtc::Tokens threshold = config.divergence_threshold_override > 0
                                    ? config.divergence_threshold_override
                                    : sizing_.selector_threshold;
  SelectorChannel::Config selector_config{
      .capacities = selector_capacities(sizing_, threshold, config.enable_payload_vote),
      .initials = sizing_.selector_initial,
      .divergence_threshold = threshold,
      .enable_stall_rule = config.enable_selector_stall_rule,
      .verify_checksums = config.verify_selector_checksums,
      .corruption_conviction_threshold = config.corruption_conviction_threshold,
      .enable_payload_vote = config.enable_payload_vote};
  if (config.platform != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      replicator_config.links.push_back(kpn::FifoChannel::LinkModel{
          &config.platform->noc(), config.producer_core, config.replica_in_cores[i]});
      selector_config.links.push_back(kpn::FifoChannel::LinkModel{
          &config.platform->noc(), config.replica_out_cores[i], config.consumer_core});
    }
  }

  replicator_ = &network.adopt_channel(std::make_unique<ReplicatorChannel>(
      network.simulator(), config.name_prefix + ".replicator",
      std::move(replicator_config)));
  selector_ = &network.adopt_channel(std::make_unique<SelectorChannel>(
      network.simulator(), config.name_prefix + ".selector", std::move(selector_config)));
  if (config.preload_initial_tokens) {
    selector_->preload_initial_tokens(config.initial_token);
  }

  detections_.emplace(network.simulator().trace(),
                      std::vector{replicator_->trace_subject(), selector_->trace_subject()});
}

}  // namespace sccft::ft
