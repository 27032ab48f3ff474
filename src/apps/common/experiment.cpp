#include "apps/common/experiment.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "adapt/policy.hpp"
#include "adapt/reconfig.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "monitor/driver.hpp"
#include "rtc/online/monitor.hpp"
#include "scc/mapping.hpp"
#include "scc/platform.hpp"
#include "trace/sinks.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"

namespace sccft::apps {

namespace {

/// Names of the processes inside one replica, by topology.
std::vector<std::string> replica_stage_names(ReplicaTopology topology) {
  switch (topology) {
    case ReplicaTopology::kSingleStage: return {"stage"};
    case ReplicaTopology::kTwoStage: return {"enc", "dec"};
    case ReplicaTopology::kSplitMerge: return {"split", "dec_a", "dec_b", "merge"};
  }
  return {"stage"};
}

constexpr rtc::Tokens kInternalFifoCapacity = 4;

/// Per-stream drift, resolved from DriftSpec for capture into one process
/// lambda. `apply` adjusts an emission target in place; no RNG is drawn
/// before the onset instant (pre-drift behaviour is bit-identical to the
/// drift-free run).
struct DriftParams {
  bool active = false;
  rtc::TimeNs onset = 0;
  double rate_mult = 1.0;
  rtc::TimeNs extra_jitter = 0;

  void apply(rtc::TimeNs& target, rtc::TimeNs last_emit, rtc::TimeNs period,
             util::Xoshiro256& rng) const {
    if (!active || target < onset) return;
    if (rate_mult > 1.0 && last_emit >= 0) {
      target = std::max(target, last_emit + static_cast<rtc::TimeNs>(
                                                rate_mult * static_cast<double>(period)));
    }
    if (extra_jitter > 0) target += rng.uniform_int(0, extra_jitter);
  }
};

}  // namespace

ExperimentRunner::ExperimentRunner(ApplicationSpec app) : app_(std::move(app)) {
  SCCFT_EXPECTS(app_.make_input != nullptr);
  SCCFT_EXPECTS(app_.input_cycle > 0);
  // Size the payload cache up front: the vector never reallocates, so slot
  // references handed to concurrent runs stay valid.
  input_cache_.resize(app_.input_cycle);
}

const kpn::Token& ExperimentRunner::input_token(std::uint64_t index) {
  const std::uint64_t slot = index % app_.input_cycle;
  std::unique_lock<std::mutex> lock(input_mutex_);
  if (!input_cache_[slot].valid()) {
    // Generate outside the lock (make_input is pure and deterministic, so a
    // racing worker computes the identical token; first write wins).
    lock.unlock();
    kpn::Token token(app_.make_input(slot), slot, 0);
    lock.lock();
    if (!input_cache_[slot].valid()) input_cache_[slot] = std::move(token);
  }
  return input_cache_[slot];
}

ExperimentResult ExperimentRunner::run(const ExperimentOptions& options) {
  SCCFT_EXPECTS(options.run_periods > 0);
  SCCFT_EXPECTS(!options.inject_fault || options.duplicated);

  ExperimentResult result;

  sim::Simulator simulator;
  trace::MetricsRegistry& registry = simulator.trace().metrics();
  if (options.trace_sink != nullptr) {
    simulator.trace().subscribe(options.trace_sink, options.trace_mask,
                                trace::DeliveryMode::kDeferred);
  }
  std::optional<scc::Platform> platform;
  if (options.use_platform) platform.emplace(simulator);
  kpn::Network net(simulator);

  const rtc::TimeNs period = app_.timing.producer.period;
  const rtc::TimeNs run_until =
      static_cast<rtc::TimeNs>(options.run_periods) * period;

  // ----- process-to-core mapping -----------------------------------------
  const auto stage_names = replica_stage_names(app_.topology);
  std::vector<std::string> process_names{"producer"};
  const int replica_count = options.duplicated ? 2 : 1;
  for (int r = 0; r < replica_count; ++r) {
    const std::string prefix = options.duplicated ? ("r" + std::to_string(r + 1)) : "ref";
    for (const auto& stage : stage_names) process_names.push_back(prefix + "." + stage);
  }
  process_names.emplace_back("consumer");

  std::vector<scc::TrafficEdge> traffic;
  auto name_index = [&](const std::string& name) {
    const auto it = std::find(process_names.begin(), process_names.end(), name);
    SCCFT_ASSERT(it != process_names.end());
    return static_cast<int>(it - process_names.begin());
  };
  for (int r = 0; r < replica_count; ++r) {
    const std::string prefix = options.duplicated ? ("r" + std::to_string(r + 1)) : "ref";
    const std::string head = prefix + "." + stage_names.front();
    const std::string tail = prefix + "." + stage_names.back();
    traffic.push_back({name_index("producer"), name_index(head),
                       static_cast<std::uint64_t>(app_.input_token_bytes)});
    traffic.push_back({name_index(tail), name_index("consumer"),
                       static_cast<std::uint64_t>(app_.output_token_bytes)});
    if (app_.topology == ReplicaTopology::kTwoStage) {
      traffic.push_back({name_index(prefix + ".enc"), name_index(prefix + ".dec"),
                         static_cast<std::uint64_t>(app_.input_token_bytes)});
    } else if (app_.topology == ReplicaTopology::kSplitMerge) {
      for (const char* part : {"dec_a", "dec_b"}) {
        traffic.push_back({name_index(prefix + ".split"), name_index(prefix + "." + part),
                           static_cast<std::uint64_t>(app_.input_token_bytes / 2)});
        traffic.push_back({name_index(prefix + "." + part), name_index(prefix + ".merge"),
                           static_cast<std::uint64_t>(app_.output_token_bytes / 2)});
      }
    }
  }
  const scc::Mapping mapping =
      scc::map_low_contention(static_cast<int>(process_names.size()), traffic);
  auto core_of = [&](const std::string& name) {
    return mapping.process_to_core[static_cast<std::size_t>(name_index(name))];
  };

  auto link = [&](const std::string& from, const std::string& to)
      -> std::optional<kpn::FifoChannel::LinkModel> {
    if (!platform) return std::nullopt;
    return kpn::FifoChannel::LinkModel{&platform->noc(), core_of(from), core_of(to)};
  };

  // ----- channels ----------------------------------------------------------
  std::optional<ft::FaultTolerantHarness> harness;
  kpn::TokenSink* producer_sink = nullptr;
  kpn::TokenSource* consumer_source = nullptr;
  kpn::TokenSource* replica_inputs[2] = {nullptr, nullptr};
  kpn::TokenSink* replica_outputs[2] = {nullptr, nullptr};
  kpn::FifoChannel* ref_in = nullptr;
  kpn::FifoChannel* ref_out = nullptr;

  if (options.duplicated) {
    ft::FaultTolerantHarness::Config config;
    config.timing = app_.timing;
    config.name_prefix = app_.name;
    config.platform = platform ? &*platform : nullptr;
    config.producer_core = core_of("producer");
    config.replica_in_cores = {core_of("r1." + stage_names.front()),
                               core_of("r2." + stage_names.front())};
    config.replica_out_cores = {core_of("r1." + stage_names.back()),
                                core_of("r2." + stage_names.back())};
    config.consumer_core = core_of("consumer");
    config.enable_selector_stall_rule = options.enable_selector_stall_rule;
    config.divergence_threshold_override = options.divergence_override;
    config.replicator_capacity_override = options.replicator_capacity_override;
    harness.emplace(net, config);

    result.sizing = harness->sizing();
    producer_sink = &harness->replicator();
    consumer_source = &harness->selector();
    replica_inputs[0] = &harness->replicator().read_interface(ft::ReplicaIndex::kReplica1);
    replica_inputs[1] = &harness->replicator().read_interface(ft::ReplicaIndex::kReplica2);
    replica_outputs[0] = &harness->selector().write_interface(ft::ReplicaIndex::kReplica1);
    replica_outputs[1] = &harness->selector().write_interface(ft::ReplicaIndex::kReplica2);
  } else {
    // Reference network: same analysis, FIFOs F_P and F_C dimensioned per
    // Eq. (3)/(4) with the replica-1 timing (the reference's own timing).
    result.sizing =
        rtc::analyze_duplicated_network(app_.timing.to_model(), app_.timing.default_horizon());
    ref_in = &net.add_fifo(app_.name + ".F_P", result.sizing.replicator_capacity[0],
                           link("producer", "ref." + stage_names.front()));
    ref_out = &net.add_fifo(app_.name + ".F_C", result.sizing.selector_capacity[0],
                            link("ref." + stage_names.back(), "consumer"));
    producer_sink = ref_in;
    consumer_source = ref_out;
    replica_inputs[0] = ref_in;
    replica_outputs[0] = ref_out;
  }

  // ----- baseline monitors (Table 3) --------------------------------------
  std::optional<monitor::DistanceFunctionMonitor> distance_monitor;
  std::optional<monitor::WatchdogMonitor> watchdog_monitor;
  std::optional<monitor::ActivationBridge> distance_bridge;
  std::optional<monitor::ActivationBridge> watchdog_bridge;
  std::optional<rtc::TimeNs> distance_detect;
  std::optional<rtc::TimeNs> watchdog_detect;
  if (options.attach_baseline_monitors && options.duplicated) {
    const rtc::PJD model =
        app_.timing.replica_in[static_cast<std::size_t>(ft::index_of(options.faulty_replica))];
    distance_monitor.emplace(monitor::DistanceFunctionMonitor::Config{
        .model = model,
        .l = options.monitor_history_l,
        .polling_interval = options.monitor_polling_interval,
        .fail_silent_only = true});
    watchdog_monitor.emplace(monitor::WatchdogMonitor::Config{
        .timeout = monitor::WatchdogMonitor::sound_timeout(model),
        .polling_interval = options.monitor_polling_interval});
    // Observe the faulty replica's consumption stream through its queue's
    // dequeue events — no tap in the data path. Bridge order = subscription
    // order, so the distance monitor still sees each activation first.
    const trace::SubjectId watched =
        harness->replicator().queue_subject(options.faulty_replica);
    distance_bridge.emplace(simulator.trace(), watched, *distance_monitor);
    watchdog_bridge.emplace(simulator.trace(), watched, *watchdog_monitor);
  }

  // ----- online-RTC monitor (rtc/online) -----------------------------------
  // Taps the producer's and both replicas' emission streams off the trace
  // bus, estimates their empirical arrival curves, and escalates Eq. (2)
  // breaches to the Supervisor path as kCurveViolation.
  std::optional<rtc::online::OnlineMonitor> online_monitor;
  if (options.online_monitor && options.duplicated) {
    SCCFT_EXPECTS(options.online_levels >= 1);
    const rtc::online::LatticeConfig lattice{
        .base_delta =
            options.online_base_delta > 0 ? options.online_base_delta : period,
        .levels = options.online_levels};
    auto stream = [](std::string subject, int replica, const rtc::PJD& model) {
      auto curves = rtc::ArrivalCurvePair::from_pjd(model);
      rtc::online::StreamSpec spec;
      spec.name = subject;
      spec.subject = std::move(subject);
      spec.replica = replica;
      spec.design_lower = std::move(curves.lower);
      spec.design_upper = std::move(curves.upper);
      return spec;
    };
    std::vector<rtc::online::StreamSpec> specs;
    specs.push_back(stream("producer", -1, app_.timing.producer));
    specs.push_back(stream("r1.out", 0, app_.timing.replica_out[0]));
    specs.push_back(stream("r2.out", 1, app_.timing.replica_out[1]));
    rtc::online::OnlineMonitor::Options monitor_options;
    if (options.adaptation.enabled) {
      monitor_options.weakly_hard = options.adaptation.window;
    }
    online_monitor.emplace(simulator.trace(), lattice, std::move(specs),
                           monitor_options);
  }

  // ----- adaptation loop (Layer 8) -----------------------------------------
  // Policy listens for the monitor's kAcceptanceMiss/kCurveViolation events
  // and polls its empirical snapshots through the MeasureFn; the controller
  // runs quiesce -> resize -> resume windows over the harness channels.
  std::optional<adapt::ReconfigurationController> reconfigurator;
  std::optional<adapt::AdaptationPolicy> adaptation_policy;
  if (options.adaptation.enabled) {
    SCCFT_EXPECTS(options.duplicated && options.online_monitor);
    reconfigurator.emplace(
        simulator, simulator.trace(), harness->replicator(), harness->selector(),
        adapt::ReconfigurationController::Config{
            .quiesce_window = options.adaptation.quiesce_window});
    const rtc::NetworkTimingModel design_curves = app_.timing.to_model();
    const rtc::SizingReport designed = result.sizing;
    adapt::MeasureFn measure =
        [&monitor = *online_monitor, design_curves, designed](rtc::TimeNs now)
        -> std::optional<rtc::online::OnlineMargins> {
      // No bound is certifiable until every stream has been witnessed.
      for (std::size_t s = 0; s < 3; ++s) {
        if (monitor.stream_events(s) == 0) return std::nullopt;
      }
      return rtc::online::redimension(monitor.snapshot_stream(0, now),
                                      monitor.snapshot_stream(1, now),
                                      monitor.snapshot_stream(2, now),
                                      design_curves, designed);
    };
    adaptation_policy.emplace(simulator, simulator.trace(), *reconfigurator,
                              options.adaptation, std::move(measure));
    adaptation_policy->start();
  }

  // ----- processes ---------------------------------------------------------
  const std::uint64_t seed_base = options.seed * 7919;

  // Resolve the drift spec onto its target stream.
  DriftParams producer_drift;
  DriftParams replica_drift[2];
  if (options.drift.target != DriftSpec::Target::kNone) {
    DriftParams params;
    params.active = options.drift.rate_mult > 1.0 || options.drift.extra_jitter > 0;
    params.onset = static_cast<rtc::TimeNs>(options.drift.after_periods) * period;
    params.rate_mult = options.drift.rate_mult;
    params.extra_jitter = options.drift.extra_jitter;
    switch (options.drift.target) {
      case DriftSpec::Target::kNone: break;
      case DriftSpec::Target::kProducer: producer_drift = params; break;
      case DriftSpec::Target::kReplica1: replica_drift[0] = params; break;
      case DriftSpec::Target::kReplica2: replica_drift[1] = params; break;
    }
  }

  // Producer: emits input tokens shaped by the producer PJD.
  net.add_process("producer", core_of("producer"), seed_base + 1,
                  [this, producer_sink, &simulator,
                   producer_drift](kpn::ProcessContext& ctx) -> sim::Task {
                    kpn::TimingShaper shaper(app_.timing.producer, 0, ctx.rng());
                    shaper.bind_trace(&simulator.trace(),
                                      simulator.trace().intern("producer"));
                    rtc::TimeNs last_emit = -1;
                    for (std::uint64_t k = 0;; ++k) {
                      const kpn::Token& cached = input_token(k);
                      rtc::TimeNs target = shaper.next_emission(ctx.now());
                      producer_drift.apply(target, last_emit, shaper.model().period,
                                           ctx.rng());
                      if (target > ctx.now()) co_await ctx.delay(target - ctx.now());
                      co_await kpn::write(*producer_sink,
                                          cached.restamped(k, ctx.now()));
                      shaper.commit(ctx.now());
                      last_emit = ctx.now();
                    }
                  });

  // Replica builder: constructs the stages of one replica.
  std::vector<kpn::Process*> replica_processes[2];
  auto build_replica = [&](int r_index, const std::string& prefix,
                           const rtc::PJD& in_pjd, const rtc::PJD& out_pjd,
                           kpn::TokenSource* in, kpn::TokenSink* out) {
    std::vector<kpn::Process*>& procs = replica_processes[r_index];
    const std::uint64_t rs = seed_base + 100 * static_cast<std::uint64_t>(r_index + 1);
    const rtc::TimeNs compute = app_.stage_compute_time;
    // The replica's output-emission stream is traced under "<prefix>.out" so
    // the online-RTC monitor (and any offline audit) can tap it.
    const trace::SubjectId out_subject = simulator.trace().intern(prefix + ".out");
    const DriftParams drift = replica_drift[r_index];

    switch (app_.topology) {
      case ReplicaTopology::kSingleStage: {
        procs.push_back(&net.add_process(
            prefix + "." + stage_names[0], core_of(prefix + "." + stage_names[0]), rs + 1,
            [this, in, out, in_pjd, out_pjd, compute, &simulator, out_subject,
             drift](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper consume(in_pjd, 0, ctx.rng());
              kpn::TimingShaper emit(out_pjd, 0, ctx.rng());
              emit.bind_trace(&simulator.trace(), out_subject);
              rtc::TimeNs last_emit = -1;
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                const rtc::TimeNs slot = consume.next_emission(ctx.now());
                if (slot > ctx.now()) co_await ctx.compute(slot - ctx.now());
                kpn::Token token = co_await kpn::read(*in);
                consume.commit(ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await ctx.compute(compute);
                const SharedBytes bytes = whole_cache_.apply(app_.transform, token.payload_ref());
                rtc::TimeNs target = emit.next_emission(ctx.now());
                // A rate-degraded replica's interface slows proportionally
                // (the paper's "does so at a rate lower than expected"):
                // consecutive emissions are at least factor * period apart.
                if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
                  target = std::max(
                      target, last_emit + static_cast<rtc::TimeNs>(
                                              ctx.fault().rate_factor *
                                              static_cast<double>(out_pjd.period)));
                }
                drift.apply(target, last_emit, out_pjd.period, ctx.rng());
                if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await kpn::write(*out, kpn::Token(bytes, token.seq(), ctx.now()));
                emit.commit(ctx.now());
                last_emit = ctx.now();
              }
            }));
        break;
      }
      case ReplicaTopology::kTwoStage: {
        auto& mid = net.add_fifo(prefix + ".mid", kInternalFifoCapacity,
                                 link(prefix + ".enc", prefix + ".dec"));
        procs.push_back(&net.add_process(
            prefix + ".enc", core_of(prefix + ".enc"), rs + 1,
            [this, in, &mid, in_pjd, compute](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper consume(in_pjd, 0, ctx.rng());
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                const rtc::TimeNs slot = consume.next_emission(ctx.now());
                if (slot > ctx.now()) co_await ctx.compute(slot - ctx.now());
                kpn::Token token = co_await kpn::read(*in);
                consume.commit(ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await ctx.compute(compute);
                const SharedBytes bytes = stage1_cache_.apply(app_.stage1, token.payload_ref());
                co_await kpn::write(mid, kpn::Token(bytes, token.seq(), ctx.now()));
              }
            }));
        procs.push_back(&net.add_process(
            prefix + ".dec", core_of(prefix + ".dec"), rs + 2,
            [this, &mid, out, out_pjd, compute, &simulator, out_subject,
             drift](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper emit(out_pjd, 0, ctx.rng());
              emit.bind_trace(&simulator.trace(), out_subject);
              rtc::TimeNs last_emit = -1;
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                kpn::Token token = co_await kpn::read(mid);
                SCCFT_FAULT_GATE(ctx);
                co_await ctx.compute(compute);
                const SharedBytes bytes = stage2_cache_.apply(app_.stage2, token.payload_ref());
                rtc::TimeNs target = emit.next_emission(ctx.now());
                // A rate-degraded replica's interface slows proportionally
                // (the paper's "does so at a rate lower than expected"):
                // consecutive emissions are at least factor * period apart.
                if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
                  target = std::max(
                      target, last_emit + static_cast<rtc::TimeNs>(
                                              ctx.fault().rate_factor *
                                              static_cast<double>(out_pjd.period)));
                }
                drift.apply(target, last_emit, out_pjd.period, ctx.rng());
                if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await kpn::write(*out, kpn::Token(bytes, token.seq(), ctx.now()));
                emit.commit(ctx.now());
                last_emit = ctx.now();
              }
            }));
        break;
      }
      case ReplicaTopology::kSplitMerge: {
        auto& to_a = net.add_fifo(prefix + ".to_a", kInternalFifoCapacity,
                                  link(prefix + ".split", prefix + ".dec_a"));
        auto& to_b = net.add_fifo(prefix + ".to_b", kInternalFifoCapacity,
                                  link(prefix + ".split", prefix + ".dec_b"));
        auto& from_a = net.add_fifo(prefix + ".from_a", kInternalFifoCapacity,
                                    link(prefix + ".dec_a", prefix + ".merge"));
        auto& from_b = net.add_fifo(prefix + ".from_b", kInternalFifoCapacity,
                                    link(prefix + ".dec_b", prefix + ".merge"));
        procs.push_back(&net.add_process(
            prefix + ".split", core_of(prefix + ".split"), rs + 1,
            [this, in, &to_a, &to_b, in_pjd](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper consume(in_pjd, 0, ctx.rng());
              const auto top_fn = [this](BytesView input) { return app_.split(input).first; };
              const auto bottom_fn = [this](BytesView input) {
                return app_.split(input).second;
              };
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                const rtc::TimeNs slot = consume.next_emission(ctx.now());
                if (slot > ctx.now()) co_await ctx.compute(slot - ctx.now());
                kpn::Token token = co_await kpn::read(*in);
                consume.commit(ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await ctx.compute(rtc::from_us(200));
                const SharedBytes top = split_top_cache_.apply(top_fn, token.payload_ref());
                const SharedBytes bottom =
                    split_bottom_cache_.apply(bottom_fn, token.payload_ref());
                co_await kpn::write(to_a, kpn::Token(top, token.seq(), ctx.now()));
                co_await kpn::write(to_b, kpn::Token(bottom, token.seq(), ctx.now()));
              }
            }));
        auto part_body = [this, compute](kpn::FifoChannel& from, kpn::FifoChannel& to) {
          return [this, &from, &to, compute](kpn::ProcessContext& ctx) -> sim::Task {
            while (true) {
              SCCFT_FAULT_GATE(ctx);
              kpn::Token token = co_await kpn::read(from);
              SCCFT_FAULT_GATE(ctx);
              co_await ctx.compute(compute);
              const SharedBytes bytes = part_cache_.apply(app_.part_transform, token.payload_ref());
              co_await kpn::write(to, kpn::Token(bytes, token.seq(), ctx.now()));
            }
          };
        };
        procs.push_back(&net.add_process(prefix + ".dec_a", core_of(prefix + ".dec_a"),
                                         rs + 2, part_body(to_a, from_a)));
        procs.push_back(&net.add_process(prefix + ".dec_b", core_of(prefix + ".dec_b"),
                                         rs + 3, part_body(to_b, from_b)));
        procs.push_back(&net.add_process(
            prefix + ".merge", core_of(prefix + ".merge"), rs + 4,
            [this, &from_a, &from_b, out, out_pjd, &simulator, out_subject,
             drift](kpn::ProcessContext& ctx) -> sim::Task {
              kpn::TimingShaper emit(out_pjd, 0, ctx.rng());
              emit.bind_trace(&simulator.trace(), out_subject);
              rtc::TimeNs last_emit = -1;
              while (true) {
                SCCFT_FAULT_GATE(ctx);
                kpn::Token top = co_await kpn::read(from_a);
                kpn::Token bottom = co_await kpn::read(from_b);
                SCCFT_FAULT_GATE(ctx);
                co_await ctx.compute(rtc::from_us(200));
                const auto key = std::make_pair(top.checksum(), bottom.checksum());
                SharedBytes merged;
                {
                  const std::lock_guard<std::mutex> lock(merge_mutex_);
                  if (const auto it = merge_cache_.find(key); it != merge_cache_.end()) {
                    merged = it->second;
                  }
                }
                if (!merged) {
                  // Merge outside the lock; first insert wins (the merge is a
                  // pure function of the two payloads).
                  merged = SharedBytes::adopt(
                      app_.merge(top.payload(), bottom.payload()));
                  const std::lock_guard<std::mutex> lock(merge_mutex_);
                  merged = merge_cache_.emplace(key, std::move(merged)).first->second;
                }
                rtc::TimeNs target = emit.next_emission(ctx.now());
                if (ctx.fault().rate_factor > 1.0 && last_emit >= 0) {
                  target = std::max(
                      target, last_emit + static_cast<rtc::TimeNs>(
                                              ctx.fault().rate_factor *
                                              static_cast<double>(out_pjd.period)));
                }
                drift.apply(target, last_emit, out_pjd.period, ctx.rng());
                if (target > ctx.now()) co_await ctx.compute(target - ctx.now());
                SCCFT_FAULT_GATE(ctx);
                co_await kpn::write(*out, kpn::Token(merged, top.seq(), ctx.now()));
                emit.commit(ctx.now());
                last_emit = ctx.now();
              }
            }));
        break;
      }
    }
  };

  if (options.duplicated) {
    build_replica(0, "r1", app_.timing.replica_in[0], app_.timing.replica_out[0],
                  replica_inputs[0], replica_outputs[0]);
    build_replica(1, "r2", app_.timing.replica_in[1], app_.timing.replica_out[1],
                  replica_inputs[1], replica_outputs[1]);
  } else {
    build_replica(0, "ref", app_.timing.replica_in[0], app_.timing.replica_out[0],
                  replica_inputs[0], replica_outputs[0]);
  }

  // Consumer: shaped destructive reads; measures the output stream. The
  // stream statistics go to the metrics registry (hoisted references — the
  // registry guarantees their stability); checksums stay on the result, they
  // are data, not metrics.
  rtc::TimeNs last_data_read = -1;
  net.add_process(
      "consumer", core_of("consumer"), seed_base + 2,
      [this, consumer_source, &result, &last_data_read, &simulator, &registry](
          kpn::ProcessContext& ctx) -> sim::Task {
        kpn::TimingShaper shaper(app_.timing.consumer, 0, ctx.rng());
        shaper.bind_trace(&simulator.trace(), simulator.trace().intern("consumer"));
        std::uint64_t& tokens = registry.counter_ref("consumer.tokens");
        std::uint64_t& stalls = registry.counter_ref("consumer.stalls");
        trace::Series& interarrival = registry.series_ref("consumer.interarrival_ns");
        while (true) {
          const rtc::TimeNs slot = shaper.next_emission(ctx.now());
          if (slot > ctx.now()) co_await ctx.delay(slot - ctx.now());
          const rtc::TimeNs before = ctx.now();
          kpn::Token token = co_await kpn::read(*consumer_source);
          if (ctx.now() > before) ++stalls;
          shaper.commit(ctx.now());
          ++tokens;
          if (token.size_bytes() > 0) {
            result.output_checksums.push_back(token.checksum());
            if (last_data_read >= 0) {
              interarrival.add(ctx.now() - last_data_read);
            }
            last_data_read = ctx.now();
          }
        }
      });

  // Polling processes for the baseline monitors.
  if (distance_monitor) {
    net.add_process("monitor.distance", core_of("consumer"), seed_base + 3,
                    monitor::make_polling_body(*distance_monitor,
                                               options.monitor_polling_interval,
                                               &distance_detect));
    net.add_process("monitor.watchdog", core_of("consumer"), seed_base + 4,
                    monitor::make_polling_body(*watchdog_monitor,
                                               options.monitor_polling_interval,
                                               &watchdog_detect));
  }

  // ----- VCD waveform export ----------------------------------------------
  // Change-driven from the trace bus: every enqueue/dequeue/level event lands
  // in the waveform at its exact instant (the old implementation polled the
  // channels 8x per period from a dedicated sampler process).
  std::optional<trace::VcdSink> vcd_sink;
  if (!options.vcd_path.empty() && options.duplicated) {
    vcd_sink.emplace(app_.name);
    vcd_sink->watch_fill(harness->replicator().queue_subject(ft::ReplicaIndex::kReplica1),
                         "replicator_fill_R1");
    vcd_sink->watch_fill(harness->replicator().queue_subject(ft::ReplicaIndex::kReplica2),
                         "replicator_fill_R2");
    vcd_sink->watch_space(harness->selector().side_subject(ft::ReplicaIndex::kReplica1),
                          "selector_space_S1");
    vcd_sink->watch_space(harness->selector().side_subject(ft::ReplicaIndex::kReplica2),
                          "selector_space_S2");
    vcd_sink->watch_fill(harness->selector().trace_subject(), "selector_fill");
    vcd_sink->watch_fault(0, "fault_R1");
    vcd_sink->watch_fault(1, "fault_R2");
    simulator.trace().subscribe(
        &*vcd_sink, trace::bit(trace::EventKind::kEnqueue) |
                        trace::bit(trace::EventKind::kDequeue) |
                        trace::bit(trace::EventKind::kQueueLevel) |
                        trace::bit(trace::EventKind::kDetection) |
                        trace::bit(trace::EventKind::kReintegrate));
  }

  // ----- fault injection ---------------------------------------------------
  ft::FaultInjector injector(simulator);
  if (options.inject_fault) {
    util::Xoshiro256 phase_rng(options.seed ^ 0xFA417BADC0FFEEULL);
    const rtc::TimeNs fault_time =
        static_cast<rtc::TimeNs>(options.fault_after_periods) * period +
        phase_rng.uniform_int(0, period - 1);
    result.fault_injected_at = fault_time;
    injector.schedule(
        replica_processes[ft::index_of(options.faulty_replica)], fault_time,
        options.fault_mode, options.rate_factor);
    if (options.fault_mode == ft::FaultMode::kSilence) {
      // A halted core stops issuing channel operations at the fault instant,
      // including an in-flight blocked read/write — freeze its endpoints so
      // the manifestation is immediate, matching the paper's fault model
      // ("the faulty replica stops producing (or consuming) tokens
      // altogether").
      simulator.schedule_at(fault_time, [&harness, faulty = options.faulty_replica] {
        harness->replicator().freeze_reader(faulty);
        harness->selector().freeze_writer(faulty);
      });
    }
  }

  // ----- run ---------------------------------------------------------------
  net.run_until(run_until);

  // ----- harvest -----------------------------------------------------------
  // Channels publish into the registry; the result reads the registry back.
  // The registry is the single quantitative record of the run — Table 2 and
  // the campaign aggregations all draw from it.
  if (options.duplicated) {
    harness->replicator().publish_metrics(registry);
    harness->selector().publish_metrics(registry);
    const std::string rep = app_.name + ".replicator";
    const std::string sel = app_.name + ".selector";
    result.fill_r1 = static_cast<rtc::Tokens>(registry.gauge(rep + ".R1.max_fill"));
    result.fill_r2 = static_cast<rtc::Tokens>(registry.gauge(rep + ".R2.max_fill"));
    result.fill_s1 = static_cast<rtc::Tokens>(registry.gauge(sel + ".S1.max_observed_fill"));
    result.fill_s2 = static_cast<rtc::Tokens>(registry.gauge(sel + ".S2.max_observed_fill"));
    result.replicator_memory_bytes =
        static_cast<std::size_t>(registry.gauge(rep + ".control_bytes"));
    result.selector_memory_bytes =
        static_cast<std::size_t>(registry.gauge(sel + ".control_bytes"));

    const auto& log = harness->detections();
    result.any_detection = !log.records.empty();
    result.first_record = log.first();
    if (result.first_record) {
      if (result.fault_injected_at < 0 ||
          result.first_record->detected_at < result.fault_injected_at) {
        result.false_positive = true;
      } else {
        result.correct_replica =
            result.first_record->replica == options.faulty_replica;
        result.first_latency =
            result.first_record->detected_at - result.fault_injected_at;
        if (const auto rep = log.first_replicator()) {
          result.replicator_latency = rep->detected_at - result.fault_injected_at;
        }
        if (const auto sel = log.first_selector()) {
          result.selector_latency = sel->detected_at - result.fault_injected_at;
        }
      }
    }
  } else {
    ref_in->publish_metrics(registry);
    ref_out->publish_metrics(registry);
    result.fill_r1 =
        static_cast<rtc::Tokens>(registry.gauge(app_.name + ".F_P.max_fill"));
    result.fill_s1 =
        static_cast<rtc::Tokens>(registry.gauge(app_.name + ".F_C.max_fill"));
  }

  result.consumer_tokens = registry.counter("consumer.tokens");
  result.consumer_stalls = registry.counter("consumer.stalls");
  if (const auto* interarrival = registry.find_series("consumer.interarrival_ns")) {
    for (const std::int64_t sample : interarrival->samples()) {
      result.consumer_interarrival_ms.add(rtc::to_ms(sample));
    }
  }

  if (distance_detect && result.fault_injected_at >= 0 &&
      *distance_detect >= result.fault_injected_at) {
    result.distance_latency = *distance_detect - result.fault_injected_at;
  }
  if (watchdog_detect && result.fault_injected_at >= 0 &&
      *watchdog_detect >= result.fault_injected_at) {
    result.watchdog_latency = *watchdog_detect - result.fault_injected_at;
  }
  if (platform) {
    result.noc_contention_stalls = platform->noc().contention_stalls();
    registry.add("noc.contention_stalls", result.noc_contention_stalls);
  }
  if (online_monitor) {
    // Finalize at the nominal end time (not simulator.now(), which depends on
    // the last dispatched event) so snapshots are pure functions of the seed.
    const auto reports = online_monitor->finalize(run_until);
    result.online_streams.reserve(reports.size());
    for (const auto& report : reports) {
      result.online_streams.push_back({report.name, report.replica, report.events,
                                       report.upper_violations,
                                       report.lower_violations,
                                       report.acceptance_misses, report.first,
                                       report.snapshot});
    }
    if (reports.size() == 3 && reports[0].events > 0) {
      result.online_margins = rtc::online::redimension(
          reports[0].snapshot, reports[1].snapshot, reports[2].snapshot,
          app_.timing.to_model(), result.sizing);
    }
  }
  if (adaptation_policy) {
    ExperimentResult::AdaptationOutcome outcome;
    const auto& policy_stats = adaptation_policy->stats();
    const auto& controller_stats = reconfigurator->stats();
    outcome.misses_seen = policy_stats.misses_seen;
    outcome.breaches_seen = policy_stats.breaches_seen;
    outcome.widen_requests = policy_stats.widen_requests;
    outcome.resize_requests = policy_stats.resize_requests;
    outcome.proactive_requests = policy_stats.proactive_requests;
    outcome.windows_completed = controller_stats.windows_completed;
    outcome.targets_applied = controller_stats.targets_applied;
    outcome.clamped = controller_stats.clamped;
    outcome.final_fifo1 = reconfigurator->fifo1();
    outcome.final_fifo2 = reconfigurator->fifo2();
    outcome.final_divergence = reconfigurator->divergence();
    result.adaptation = outcome;
  }
  if (vcd_sink) {
    simulator.trace().unsubscribe(&*vcd_sink);
    SCCFT_ASSERT(vcd_sink->write_file(options.vcd_path));
  }
  if (options.trace_sink != nullptr) {
    simulator.trace().unsubscribe(options.trace_sink);
  }
  result.metrics = std::make_shared<trace::MetricsRegistry>(registry);
  result.events_processed = simulator.events_processed();

  return result;
}

std::string ExperimentRunner::render_topology(bool duplicated) {
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const auto stage_names = replica_stage_names(app_.topology);
  auto add_edges = [&](const std::string& prefix, const std::string& in_chan,
                       const std::string& out_chan) {
    net.register_edge("P (producer)", prefix + "." + stage_names.front(), in_chan,
                      app_.input_token_bytes);
    if (app_.topology == ReplicaTopology::kTwoStage) {
      net.register_edge(prefix + ".enc", prefix + ".dec", prefix + ".mid");
    } else if (app_.topology == ReplicaTopology::kSplitMerge) {
      net.register_edge(prefix + ".split", prefix + ".dec_a", prefix + ".to_a");
      net.register_edge(prefix + ".split", prefix + ".dec_b", prefix + ".to_b");
      net.register_edge(prefix + ".dec_a", prefix + ".merge", prefix + ".from_a");
      net.register_edge(prefix + ".dec_b", prefix + ".merge", prefix + ".from_b");
    }
    net.register_edge(prefix + "." + stage_names.back(), "C (consumer)", out_chan,
                      app_.output_token_bytes);
  };
  if (duplicated) {
    add_edges("r1", "replicator.R1", "selector.S1");
    add_edges("r2", "replicator.R2", "selector.S2");
  } else {
    add_edges("ref", "F_P", "F_C");
  }
  return net.render_topology();
}

ApplicationSpec minimize_replica_jitter(ApplicationSpec app, double jitter_ms) {
  const rtc::TimeNs jitter = rtc::from_ms(jitter_ms);
  for (std::vector<rtc::PJD>* models : {&app.timing.replica_in, &app.timing.replica_out}) {
    for (rtc::PJD& model : *models) model.jitter = jitter;
  }
  // The producer/consumer jitters and the per-stage compute time must stay
  // well below the replica jitters for the conformance argument of
  // kpn/timing.hpp to hold. (With jitter = 0, all interfaces become strictly
  // periodic; Eq. (3) then gives |R_i| = 1 and detection takes 1-2 periods —
  // the regime of the paper's Table 3.)
  app.timing.producer.jitter = std::min(app.timing.producer.jitter, jitter / 4);
  app.timing.consumer.jitter = std::min(app.timing.consumer.jitter, jitter / 4);
  app.stage_compute_time =
      std::min(app.stage_compute_time, std::max(jitter / 8, rtc::from_us(100)));
  return app;
}

}  // namespace sccft::apps
