#include "ft/fleet.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "ft/fault_plan.hpp"
#include "ft/framework.hpp"
#include "ft/stream.hpp"
#include "ft/supervisor.hpp"
#include "kpn/network.hpp"
#include "kpn/timing.hpp"
#include "rtc/sizing.hpp"
#include "rtc/online/monitor.hpp"
#include "scc/platform.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sccft::ft {

namespace {

std::string stream_tag(int index) { return "s" + std::to_string(index); }

/// Timing of a protected stream: `protection` replicas sharing the stage
/// envelope for consumption and production.
AppTimingSpec timing_of(const FleetStreamSpec& s) {
  const auto n = static_cast<std::size_t>(s.protection);
  return AppTimingSpec{.producer = s.producer,
                       .consumer = s.consumer,
                       .replica_in = std::vector<rtc::PJD>(n, s.stage),
                       .replica_out = std::vector<rtc::PJD>(n, s.stage)};
}

/// Traffic weight of one stream's edges: payload bytes per second.
std::uint64_t bytes_per_second(const FleetStreamSpec& s) {
  return static_cast<std::uint64_t>(s.token_bytes) *
         static_cast<std::uint64_t>(1'000'000'000 /
                                    std::max<rtc::TimeNs>(s.producer.period, 1));
}

}  // namespace

int FleetSpec::protection_of(int index) const {
  SCCFT_EXPECTS(index >= 0 && index < streams);
  if (!protection.empty()) {
    SCCFT_EXPECTS(protection.size() == static_cast<std::size_t>(streams));
    const int n = protection[static_cast<std::size_t>(index)];
    if (n < 1 || n > 4) {
      util::contract_failure_msg("precondition",
                                 "protection of stream " + std::to_string(index) +
                                     " must be in 1..4, got " + std::to_string(n),
                                 __FILE__, __LINE__);
    }
    return n;
  }
  return critical_every > 0 && index % critical_every == 0 ? 2 : 1;
}

std::vector<FleetStreamSpec> FleetSpec::materialize() const {
  SCCFT_EXPECTS(streams > 0);
  SCCFT_EXPECTS(base_period > 0);
  SCCFT_EXPECTS(period_spread >= 0.0 && period_spread < 1.0);
  SCCFT_EXPECTS(jitter_fraction >= 0.0 && jitter_fraction < 0.5);
  SCCFT_EXPECTS(token_bytes > 0);
  SCCFT_EXPECTS(protection.empty() ||
                protection.size() == static_cast<std::size_t>(streams));
  std::vector<FleetStreamSpec> result;
  result.reserve(static_cast<std::size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    // One private RNG stream per fleet member: adding stream N+1 never
    // changes what streams 0..N drew.
    util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL +
                         static_cast<std::uint64_t>(i) + 1);
    FleetStreamSpec s;
    s.index = i;
    s.protection = protection_of(i);
    s.critical = s.protection >= 2;
    const double factor = rng.uniform(1.0 - period_spread, 1.0 + period_spread);
    const auto period = std::max<rtc::TimeNs>(
        static_cast<rtc::TimeNs>(static_cast<double>(base_period) * factor), 1);
    const auto jitter =
        static_cast<rtc::TimeNs>(static_cast<double>(period) * jitter_fraction);
    s.producer = rtc::PJD{period, jitter, period};
    // The middle stage tolerates twice the producer jitter (the paper's
    // Table 1 rigs give replicas looser envelopes than the producer).
    s.stage = rtc::PJD{period, 2 * jitter, period};
    s.consumer = rtc::PJD{period, jitter, period};
    s.token_bytes = token_bytes;
    s.seed = seed * 1'000'003ULL + static_cast<std::uint64_t>(i) * 7919ULL + 1;
    result.push_back(std::move(s));
  }
  return result;
}

void add_replicated_stream(scc::PlacementRequest& request, const std::string& name,
                           int stream, const rtc::SizingReport& sizing,
                           bool payload_vote, std::size_t token_bytes,
                           std::uint64_t weight) {
  const std::vector<rtc::Tokens> sides =
      selector_capacities(sizing, sizing.selector_threshold, payload_vote);
  const int n = static_cast<int>(sides.size());
  const int base = static_cast<int>(request.processes.size());
  const int consumer = base + 1 + n;
  rtc::Tokens consumer_slots = 0;
  request.processes.push_back({name + ".producer", stream, -1, 0});
  for (int r = 0; r < n; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    rtc::Tokens slots = sizing.replicator_capacity[ri];
    if (payload_vote) {
      slots += sides[ri];
    } else {
      consumer_slots += sides[ri];
    }
    request.processes.push_back({name + ".r" + std::to_string(r + 1), stream, stream,
                                 static_cast<std::size_t>(slots) * token_bytes});
  }
  request.processes.push_back({name + ".consumer", stream, -1,
                               static_cast<std::size_t>(consumer_slots) * token_bytes});
  // Edge order feeds the greedy placer: the vote rig lists each replica's
  // in/out hop together, the pair lists both inputs, then both outputs.
  for (int r = 0; r < n; ++r) {
    request.edges.push_back({base, base + 1 + r, weight});
    if (payload_vote) request.edges.push_back({base + 1 + r, consumer, weight});
  }
  if (!payload_vote) {
    for (int r = 0; r < n; ++r) request.edges.push_back({base + 1 + r, consumer, weight});
  }
}

scc::PlacementRequest build_placement_request(
    const FleetSpec& spec, const std::vector<FleetStreamSpec>& streams) {
  scc::PlacementRequest request;
  request.max_processes_per_core = spec.max_processes_per_core;
  for (const FleetStreamSpec& s : streams) {
    const std::uint64_t weight = bytes_per_second(s);
    if (s.critical) {
      const AppTimingSpec timing = timing_of(s);
      add_replicated_stream(
          request, stream_tag(s.index), s.index,
          rtc::analyze_duplicated_network(timing.to_model(), timing.default_horizon()),
          s.protection >= 3, s.token_bytes, weight);
      continue;
    }
    const int base = static_cast<int>(request.processes.size());
    const std::size_t fifo_bytes =
        static_cast<std::size_t>(rtc::pipeline_fifo_capacity(s.producer, s.stage)) *
        s.token_bytes;
    request.processes.push_back({stream_tag(s.index) + ".producer", s.index, -1, 0});
    request.processes.push_back({stream_tag(s.index) + ".worker", s.index, -1, fifo_bytes});
    request.processes.push_back(
        {stream_tag(s.index) + ".consumer", s.index, -1, fifo_bytes});
    request.edges.push_back({base, base + 1, weight});
    request.edges.push_back({base + 1, base + 2, weight});
  }
  return request;
}

FleetRunResult run_fleet(const FleetSpec& spec, const FleetRunOptions& options) {
  SCCFT_EXPECTS(options.run_length > 0);
  const std::vector<FleetStreamSpec> streams = spec.materialize();
  const scc::PlacementRequest request = build_placement_request(spec, streams);
  const scc::Placement placement = scc::place_fleet(request);

  sim::Simulator simulator;
  scc::Platform platform(simulator);
  kpn::Network net(simulator);

  RestartBudgetPool pool{spec.shared_restart_budget, 0};

  // Stable per-stream storage the coroutines write into (never resized once
  // the processes capture pointers into it).
  struct Runtime {
    std::uint64_t consumed = 0;
    std::uint64_t expected_seq = 0;
    bool gap = false;
  };
  std::vector<Runtime> runtime(streams.size());

  std::vector<std::unique_ptr<FaultTolerantHarness>> harnesses(streams.size());
  std::vector<std::unique_ptr<Supervisor>> supervisors(streams.size());
  std::vector<std::unique_ptr<FaultCampaign>> campaigns(streams.size());
  std::vector<kpn::FifoChannel*> fifo_in(streams.size(), nullptr);
  std::vector<kpn::FifoChannel*> fifo_out(streams.size(), nullptr);
  std::vector<rtc::Tokens> fifo_caps(streams.size(), 0);

  std::vector<rtc::online::StreamSpec> monitor_specs;

  std::size_t process_cursor = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const FleetStreamSpec& s = streams[i];
    const std::string tag = stream_tag(s.index);
    Runtime* rt = &runtime[i];
    const TokenAction consume = [rt](const kpn::Token& token, rtc::TimeNs) {
      if (token.seq() > rt->expected_seq) rt->gap = true;
      rt->expected_seq = token.seq() + 1;
      ++rt->consumed;
    };
    const trace::SubjectId producer_subject =
        simulator.trace().intern(tag + ".producer");

    if (options.online_monitors) {
      rtc::online::StreamSpec ms;
      ms.subject = tag + ".producer";
      ms.name = tag;
      const auto pair = rtc::ArrivalCurvePair::from_pjd(s.producer);
      ms.design_upper = pair.upper;
      ms.design_lower = pair.lower;
      monitor_specs.push_back(std::move(ms));
    }

    if (s.critical) {
      // N >= 3 runs the unsupervised payload-vote rig: conviction and masking
      // are the selector's job (vote mode), and its channels model no NoC
      // links — mesh accounting for these streams is placement-only. The
      // supervised pair (N = 2) is the paper's network.
      const bool vote = s.protection >= 3;
      // Producer, replicas, consumer: the placement request's process order.
      const auto first = placement.process_to_core.begin() +
                         static_cast<std::ptrdiff_t>(process_cursor);
      const std::vector<scc::CoreId> cores(first, first + 2 + s.protection);
      FaultTolerantHarness::Config config;
      config.timing = timing_of(s);
      config.name_prefix = tag;
      config.platform = vote ? nullptr : &platform;
      config.producer_core = cores.front();
      config.replica_in_cores = config.replica_out_cores = {cores.begin() + 1,
                                                            cores.end() - 1};
      config.consumer_core = cores.back();
      config.enable_payload_vote = vote;
      harnesses[i] = std::make_unique<FaultTolerantHarness>(net, config);
      FaultTolerantHarness* harness = harnesses[i].get();

      std::vector<std::vector<kpn::Process*>> replica_processes = add_synthetic_stream(
          net, *harness, config.timing,
          {.prefix = tag + ".", .seed = s.seed, .token_bytes = s.token_bytes,
           .cores = cores, .producer_subject = producer_subject, .on_token = consume});

      // The Supervisor is pair-only: the vote rig keeps a convicted replica
      // out and runs on the surviving majority.
      if (!vote) {
        std::array<ReplicaAssets, 2> assets{
            ReplicaAssets{ReplicaIndex::kReplica1, replica_processes[0], {}},
            ReplicaAssets{ReplicaIndex::kReplica2, replica_processes[1], {}}};
        Supervisor::Config supervisor_config;
        supervisor_config.restart_budget = spec.restart_budget;
        supervisor_config.initial_backoff = 20'000'000;
        supervisor_config.detection_latency_bound = harness->sizing().detection_bound();
        supervisor_config.name = tag + ".sup";
        supervisor_config.injection_subject = tag + ".faults";
        if (pool.capacity > 0) supervisor_config.shared_budget = &pool;
        supervisors[i] = std::make_unique<Supervisor>(
            simulator, harness->replicator(), harness->selector(), assets,
            supervisor_config);
      }

      if (options.inject_faults) {
        FaultCampaign::Wiring wiring;
        wiring.replicator = &harness->replicator();
        wiring.selector = &harness->selector();
        wiring.processes = std::move(replica_processes);
        campaigns[i] = std::make_unique<FaultCampaign>(simulator, wiring,
                                                       tag + ".faults");
        FaultSpec fault;
        fault.kind = FaultKind::kTransientSilence;
        fault.replica = ReplicaIndex::kReplica1;
        fault.at = options.fault_at;
        fault.duration = options.fault_duration;
        fault.seed = s.seed;
        campaigns[i]->add(fault);
        campaigns[i]->arm();
      }
    } else {
      const rtc::Tokens capacity = rtc::pipeline_fifo_capacity(s.producer, s.stage);
      fifo_caps[i] = capacity;
      const scc::CoreId producer_core = placement.process_to_core[process_cursor];
      const scc::CoreId worker_core =
          placement.process_to_core[process_cursor + 1];
      const scc::CoreId consumer_core =
          placement.process_to_core[process_cursor + 2];
      fifo_in[i] = &net.add_fifo(
          tag + ".in", capacity,
          kpn::FifoChannel::LinkModel{&platform.noc(), producer_core,
                                      worker_core});
      fifo_out[i] = &net.add_fifo(
          tag + ".out", capacity,
          kpn::FifoChannel::LinkModel{&platform.noc(), worker_core,
                                      consumer_core});
      kpn::FifoChannel* in = fifo_in[i];
      kpn::FifoChannel* out = fifo_out[i];

      net.add_process(tag + ".producer", producer_core, s.seed * 10 + 1,
                      [in, s, bus = &simulator.trace(),
                       producer_subject](kpn::ProcessContext& ctx) {
                        return synthetic_producer(ctx, s.producer, s.token_bytes, *in,
                                                  bus, producer_subject);
                      });
      net.add_process(tag + ".worker", worker_core, s.seed * 10 + 2,
                      [in, out, s](kpn::ProcessContext& ctx) -> sim::Task {
                        kpn::TimingShaper emit(s.stage, ctx.now(), ctx.rng());
                        while (true) {
                          kpn::Token token = co_await kpn::read(*in);
                          const rtc::TimeNs target = emit.next_emission(ctx.now());
                          if (target > ctx.now()) {
                            co_await ctx.compute(target - ctx.now());
                          }
                          co_await kpn::write(*out, token);
                          emit.commit(ctx.now());
                        }
                      });
      net.add_process(tag + ".consumer", consumer_core, s.seed * 10 + 3,
                      [out, s, consume](kpn::ProcessContext& ctx) {
                        return synthetic_consumer(ctx, s.consumer, *out, consume);
                      });
    }
    process_cursor += s.critical ? 2 + static_cast<std::size_t>(s.protection) : 3;
  }

  std::unique_ptr<rtc::online::OnlineMonitor> monitor;
  if (options.online_monitors && !monitor_specs.empty()) {
    rtc::online::OnlineMonitor::Options monitor_options;
    // Non-escalating: every supervisor on the shared bus would see every
    // kCurveViolation, so escalation from stream A's monitor could convict
    // stream B's replicas. Conformance is still counted and reported.
    monitor_options.escalate = false;
    monitor_options.cross_advance_quantum = options.monitor_quantum;
    rtc::online::LatticeConfig lattice;
    lattice.base_delta = spec.base_period;
    monitor = std::make_unique<rtc::online::OnlineMonitor>(
        simulator.trace(), lattice, std::move(monitor_specs), monitor_options);
  }

  net.run_until(options.run_length);

  FleetRunResult result;
  result.placement_cost = placement.cost(request.edges);
  result.tiles_used = placement.tiles_used();
  result.max_core_load = placement.max_core_load();
  result.max_tile_mpb_used = placement.max_tile_mpb_used();
  result.events_processed = simulator.events_processed();
  result.noc_contention_stalls = platform.noc().contention_stalls();
  result.max_link_busy_ns = platform.noc().max_link_busy_ns();
  result.total_link_busy_ns = platform.noc().total_link_busy_ns();
  result.simulated_ns = options.run_length;
  result.pool_capacity = pool.capacity;
  result.pool_used = pool.used;

  std::vector<rtc::online::OnlineMonitor::StreamReport> monitor_reports;
  if (monitor) monitor_reports = monitor->finalize(options.run_length);

  const double simulated_sec =
      static_cast<double>(options.run_length) / 1e9;
  result.streams.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const FleetStreamSpec& s = streams[i];
    FleetStreamOutcome outcome;
    outcome.index = s.index;
    outcome.critical = s.critical;
    outcome.protection = s.protection;
    outcome.tokens_consumed = runtime[i].consumed;
    outcome.nominal_rate_hz =
        1e9 / static_cast<double>(std::max<rtc::TimeNs>(s.producer.period, 1));
    outcome.achieved_rate_hz =
        static_cast<double>(runtime[i].consumed) / simulated_sec;
    outcome.sequence_gap = runtime[i].gap;
    if (s.critical) {
      FaultTolerantHarness* harness = harnesses[i].get();
      const rtc::SizingReport& sizing = harness->sizing();
      outcome.detection_bound = sizing.detection_bound();
      if (const Supervisor* supervisor = supervisors[i].get()) {
        const auto target = supervisor->report(ReplicaIndex::kReplica1);
        const auto peer = supervisor->report(ReplicaIndex::kReplica2);
        outcome.detected = target.faults_seen > 0;
        outcome.false_conviction = peer.faults_seen > 0;
        if (!target.detection_latencies.empty()) {
          outcome.detection_latency = target.detection_latencies.front();
        }
        outcome.restarts = target.restarts + peer.restarts;
        outcome.degraded = target.health == ReplicaHealth::kDegraded ||
                           peer.health == ReplicaHealth::kDegraded;
      } else {
        for (const DetectionRecord& record : harness->detections().records) {
          if (record.replica == ReplicaIndex::kReplica1) {
            outcome.detected = true;
            if (!outcome.detection_latency) {
              outcome.detection_latency = record.detected_at - options.fault_at;
            }
          } else {
            outcome.false_conviction = true;
          }
        }
        // A convicted replica stays out (no supervisor to reintegrate it);
        // the stream keeps running on the surviving majority.
        outcome.degraded = outcome.detected;
      }
      const kpn::ChannelStats replicator_stats = harness->replicator().stats();
      const kpn::ChannelStats selector_stats = harness->selector().stats();
      outcome.replicator_max_fill = replicator_stats.max_fill;
      outcome.replicator_capacity = *std::max_element(
          sizing.replicator_capacity.begin(), sizing.replicator_capacity.end());
      outcome.selector_max_fill = selector_stats.max_fill;
      for (const rtc::Tokens capacity : selector_capacities(
               sizing, sizing.selector_threshold, s.protection >= 3)) {
        outcome.selector_capacity += capacity;
      }
      outcome.writer_blocks =
          replicator_stats.writer_blocks + selector_stats.writer_blocks;
    } else {
      const kpn::ChannelStats in_stats = fifo_in[i]->stats();
      const kpn::ChannelStats out_stats = fifo_out[i]->stats();
      outcome.replicator_max_fill = in_stats.max_fill;
      outcome.replicator_capacity = fifo_caps[i];
      outcome.selector_max_fill = out_stats.max_fill;
      outcome.selector_capacity = fifo_caps[i];
      outcome.writer_blocks = in_stats.writer_blocks + out_stats.writer_blocks;
    }
    for (const auto& report : monitor_reports) {
      if (report.name == stream_tag(s.index)) {
        outcome.upper_violations = report.upper_violations;
        outcome.lower_violations = report.lower_violations;
        break;
      }
    }
    result.streams.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace sccft::ft
