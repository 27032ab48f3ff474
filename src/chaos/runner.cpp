#include "chaos/runner.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "adapt/reconfig.hpp"
#include "ft/framework.hpp"
#include "ft/scrub.hpp"
#include "ft/stream.hpp"
#include "kpn/network.hpp"
#include "scc/platform.hpp"
#include "scc/watchdog.hpp"
#include "trace/sinks.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"

namespace sccft::chaos {
namespace {

/// Counts supervisor restarts as they happen, so the planted bugs can key
/// their misbehaviour off the recovery lifecycle.
struct RestartCounter final : trace::Sink {
  int restarts = 0;
  void on_event(const trace::Event&) override { ++restarts; }
};

/// Observes the supervisor's kHeartbeat beacons for the silent-supervisor
/// oracle: an independent count plus the time the beacon last fired.
struct HeartbeatMonitor final : trace::Sink {
  std::uint64_t count = 0;
  rtc::TimeNs last = -1;
  void on_event(const trace::Event& event) override {
    ++count;
    last = event.time;
  }
};

/// Timestamps every activation of one fault campaign on the supervisor —
/// including while the supervisor is hung, when its own bus subscription
/// swallows the kInjection events.
struct InjectionTimestamper final : trace::Sink {
  ft::Supervisor* supervisor = nullptr;
  trace::SubjectId campaign = 0;
  void on_event(const trace::Event& event) override {
    if (event.subject != campaign) return;
    supervisor->note_fault_injected(static_cast<ft::ReplicaIndex>(event.b), event.time);
  }
};

}  // namespace

const char* to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kNone: return "none";
    case PlantedBug::kDropAfterSecondRestart: return "drop-after-second-restart";
    case PlantedBug::kCorruptAfterRestart: return "corrupt-after-restart";
  }
  return "?";
}

PlantedBug planted_bug_from_text(const std::string& tag) {
  for (const PlantedBug bug :
       {PlantedBug::kNone, PlantedBug::kDropAfterSecondRestart,
        PlantedBug::kCorruptAfterRestart}) {
    if (tag == to_string(bug)) return bug;
  }
  util::contract_failure("precondition", "tag is a known planted bug", __FILE__,
                         __LINE__);
}

std::string RunObservation::render_flight_csv() const {
  util::CsvWriter csv({"time_ns", "kind", "subject", "a", "b", "c"});
  csv.add_comment("flight recorder: last " + std::to_string(flight_events.size()) +
                  " events (" + std::to_string(flight_dropped) + " older dropped)");
  static const std::string kUnknownSubject = "?";
  for (const trace::Event& event : flight_events) {
    const std::string& subject = event.subject < flight_subjects.size()
                                     ? flight_subjects[event.subject]
                                     : kUnknownSubject;
    csv.add_row({std::to_string(event.time), trace::to_string(event.kind), subject,
                 std::to_string(event.a), std::to_string(event.b),
                 std::to_string(event.c)});
  }
  return csv.render();
}

namespace {

/// Rejects a (plan, options) pair the rig cannot run, naming the offending
/// value. N >= 3 is the unsupervised vote rig: it has no supervisor for the
/// control plane, live resize or planted bugs to act on, and no NoC links.
void check_rig(const StormPlan& plan, const RunOptions& options) {
  const int n = options.nreplica;
  const auto reject = [](const std::string& detail) {
    util::contract_failure_msg("precondition", detail, __FILE__, __LINE__);
  };
  const auto rig = [n] { return "the unsupervised nreplica " + std::to_string(n) + " rig"; };
  if (n < 2) reject("nreplica must be >= 2, got " + std::to_string(n));
  // A zero period would re-arm its timer at the same instant forever (resize
  // ticks) or trip the defense's own constructor precondition.
  const ControlPlaneOptions& cp = options.control_plane;
  if (cp.enabled && cp.watchdog && cp.watchdog_deadline <= 0) {
    reject("the armed watchdog needs a positive deadline, got " +
           std::to_string(cp.watchdog_deadline) + " ns");
  }
  if (cp.enabled && cp.scrubber && cp.scrub_period <= 0) {
    reject("the running scrubber needs a positive period, got " +
           std::to_string(cp.scrub_period) + " ns");
  }
  if (options.reconfig.enabled && options.reconfig.period <= 0) {
    reject("reconfiguration windows need a positive period, got " +
           std::to_string(options.reconfig.period) + " ns");
  }
  if (n > 2) {
    if (options.control_plane.enabled) reject(rig() + " has no control plane to arm");
    if (options.reconfig.enabled) reject(rig() + " cannot open reconfiguration windows");
    if (options.planted != PlantedBug::kNone) {
      reject(rig() + " cannot plant bug " + to_string(options.planted));
    }
  }
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const ft::FaultSpec& spec = plan.faults[i];
    const auto fault = [&] {
      return "fault " + std::to_string(i) + " (" + ft::to_string(spec.kind) + ")";
    };
    if (spec.kind == ft::FaultKind::kNocLink || ft::is_control_plane(spec.kind)) {
      if (n > 2) reject(fault() + " is not a data-path fault, which " + rig() + " needs");
    } else if (ft::victim_index(spec) >= n) {
      reject(fault() + " targets replica index " + std::to_string(ft::victim_index(spec)) +
             " of an nreplica " + std::to_string(n) + " rig");
    }
  }
}

}  // namespace

RunObservation run_storm(const StormPlan& plan, const RunOptions& options) {
  SCCFT_EXPECTS(plan.run_length > 0);
  check_rig(plan, options);
  const int n = options.nreplica;
  // The pair is the paper's supervised network; N >= 3 is the unsupervised
  // payload-vote rig, where every verdict the observation carries was reached
  // by the channels' own rules (a)/(b)/(c)/vote — the property the N-oracles
  // check against the injection log.
  const bool supervised = n == 2;
  sim::Simulator simulator;
  kpn::Network net(simulator);
  const bool with_noc =
      std::any_of(plan.faults.begin(), plan.faults.end(), [](const ft::FaultSpec& s) {
        return s.kind == ft::FaultKind::kNocLink;
      });
  std::optional<scc::Platform> platform;
  if (with_noc) platform.emplace(simulator);

  ft::AppTimingSpec timing;
  timing.producer = rtc::PJD::from_ms(10, 1, 10);
  timing.consumer = rtc::PJD::from_ms(10, 1, 10);
  for (int i = 0; i < n; ++i) {
    // Heterogeneous replica timing: the pair jitters by 2 ms and 6 ms,
    // replica i of a wider rig by 2(i+1) ms.
    const int jitter_ms = supervised ? 2 + 4 * i : 2 * (i + 1);
    timing.replica_in.push_back(rtc::PJD::from_ms(10, jitter_ms, 10));
  }
  timing.replica_out = timing.replica_in;

  ft::FaultTolerantHarness::Config config{.timing = timing,
                                          .name_prefix = supervised ? "ft" : "nft",
                                          .enable_payload_vote = !supervised};
  if (with_noc) {
    config.platform = &*platform;
    config.producer_core = scc::CoreId{0};
    config.replica_in_cores = config.replica_out_cores = {scc::CoreId{2}, scc::CoreId{4}};
    config.consumer_core = scc::CoreId{6};
  }
  ft::FaultTolerantHarness harness(net, config);

  RunObservation obs;
  obs.nreplica = n;

  // The redundant observers: the ring keeps the recent event history for the
  // failure artifact, the counter sink keeps lifetime per-kind totals in the
  // registry — the consistency oracle cross-checks the two. Both subscribe
  // the same mask, so their counts must agree exactly. (The global
  // install_flight_recorder hook is deliberately NOT used: it is
  // process-wide state and chaos runs execute many simulators in parallel.)
  // Both are passive recorders, so they take the bus's deferred/batched path;
  // they lag by exactly the same staged events, which keeps the scrubber's
  // ring-vs-tally cross-check consistent at every flush point.
  trace::RingBufferSink ring(options.ring_capacity);
  trace::CounterSink counters(simulator.trace().metrics());
  simulator.trace().subscribe(&ring, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);
  simulator.trace().subscribe(&counters, trace::kFlightRecorderMask,
                              trace::DeliveryMode::kDeferred);
  RestartCounter restart_counter;
  simulator.trace().subscribe(&restart_counter,
                              trace::bit(trace::EventKind::kRestart));
  HeartbeatMonitor heartbeat_monitor;
  simulator.trace().subscribe(&heartbeat_monitor,
                              trace::bit(trace::EventKind::kHeartbeat));

  const ControlPlaneOptions& cp = options.control_plane;
  // The per-tile watchdog and its replica channels, armed below when the
  // control-plane rig asks for it; declared here for the replica kicks.
  std::optional<scc::WatchdogTimer> watchdog;
  std::vector<int> watchdog_channels;

  bool planted_fired = false;
  ft::SyntheticStream stream{.seed = plan.seed};
  stream.on_token = [&](const kpn::Token& token, rtc::TimeNs now) {
    if (!token.verify_checksum()) ++obs.corrupt_delivered;
    std::uint32_t fingerprint = token.checksum();
    // Test-only defect hooks (see PlantedBug).
    if (options.planted == PlantedBug::kDropAfterSecondRestart && !planted_fired &&
        restart_counter.restarts >= 2) {
      planted_fired = true;
      return;  // the token vanishes: a manufactured sequence gap
    }
    if (options.planted == PlantedBug::kCorruptAfterRestart && !planted_fired &&
        restart_counter.restarts >= 1) {
      planted_fired = true;
      fingerprint ^= 1;  // a manufactured golden-run divergence
    }
    obs.consumed_seqs.push_back(token.seq());
    obs.consumed_times.push_back(now);
    obs.consumed_fingerprints.push_back(fingerprint);
  };
  if (cp.enabled && cp.watchdog) {
    // One heartbeat per completed iteration: a frozen or wedged loop stops
    // kicking and the per-tile deadline does the convicting.
    stream.kick = [&](ft::ReplicaIndex r) {
      watchdog->kick(watchdog_channels[static_cast<std::size_t>(ft::index_of(r))]);
    };
  }
  const std::vector<std::vector<kpn::Process*>> replicas =
      ft::add_synthetic_stream(net, harness, timing, std::move(stream));

  std::optional<ft::Supervisor> supervisor;
  if (supervised) {
    ft::Supervisor::Config supervisor_config;
    supervisor_config.restart_budget = 3;
    supervisor_config.initial_backoff = rtc::from_ms(20.0);
    if (cp.enabled) supervisor_config.heartbeat_period = cp.heartbeat_period;
    supervisor.emplace(simulator, harness.replicator(), harness.selector(),
                       std::array<ft::ReplicaAssets, 2>{
                           ft::ReplicaAssets{ft::ReplicaIndex::kReplica1, replicas[0], {}},
                           ft::ReplicaAssets{ft::ReplicaIndex::kReplica2, replicas[1], {}}},
                       supervisor_config);
    obs.restart_budget = supervisor_config.restart_budget;
  }

  // --- benign live-resize windows (adapt/) ---------------------------------
  const ReconfigOptions& rc = options.reconfig;
  std::optional<adapt::ReconfigurationController> reconfigurator;
  std::uint64_t reconfig_round = 0;
  std::function<void()> reconfig_tick;
  if (rc.enabled) {
    reconfigurator.emplace(
        simulator, simulator.trace(), harness.replicator(), harness.selector(),
        adapt::ReconfigurationController::Config{.quiesce_window = rc.quiesce_window});
    const rtc::Tokens base_f1 = harness.sizing().replicator_capacity[0];
    const rtc::Tokens base_f2 = harness.sizing().replicator_capacity[1];
    const rtc::Tokens base_d = harness.sizing().selector_threshold;
    reconfig_tick = [&, base_f1, base_f2, base_d] {
      ++reconfig_round;
      adapt::ReconfigurationController::Request request;
      const rtc::Tokens delta = reconfig_round % 2 == 1 ? rc.grow : 0;
      request.fifo1 = base_f1 + delta;
      request.fifo2 = base_f2 + delta;
      request.divergence = base_d + delta;
      (void)reconfigurator->request(request);
      simulator.schedule_after(rc.period, [&] { reconfig_tick(); });
    };
    simulator.schedule_after(rc.period, [&] { reconfig_tick(); });
  }

  // --- last-line defense: per-tile watchdog + control-state scrubber -------
  std::optional<ft::Scrubber> scrubber;
  if (cp.enabled && cp.watchdog) {
    watchdog.emplace(simulator,
                     scc::WatchdogTimer::Config{.deadline = cp.watchdog_deadline});
    const int supervisor_channel = watchdog->add_channel(
        "supervisor", scc::CoreId{6}.tile(),
        [&supervisor] { supervisor->on_self_watchdog_reset(); });
    supervisor->attach_watchdog(&*watchdog, supervisor_channel);
    for (int i = 0; i < n; ++i) {
      const auto which = static_cast<ft::ReplicaIndex>(i);
      watchdog_channels.push_back(watchdog->add_channel(
          "core.r" + std::to_string(i + 1), scc::CoreId{2 * (i + 1)}.tile(),
          [&supervisor, which] { supervisor->on_core_watchdog_reset(which); }));
    }
    watchdog->arm_all();
  }
  if (cp.enabled && cp.scrubber) {
    scrubber.emplace(simulator, ft::Scrubber::Config{.period = cp.scrub_period});
    scrubber->add_target(&harness.replicator());
    scrubber->add_target(&harness.selector());
    // The controller's pending-target words join the scrub walk strictly
    // AFTER the channels', so the channels' pinned global word indices (which
    // fault plans address) are unchanged.
    if (reconfigurator) scrubber->add_target(&*reconfigurator);
    // The ring audit's independent tally: the CounterSink subscribes the
    // same mask, so its per-kind totals are what the ring should have seen.
    scrubber->watch_flight_ring(&ring, [&simulator] {
      std::uint64_t total = 0;
      for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
        const auto kind = static_cast<trace::EventKind>(k);
        if ((trace::kFlightRecorderMask & trace::bit(kind)) == 0) continue;
        total += simulator.trace().metrics().counter(
            std::string("trace.events.") + trace::to_string(kind));
      }
      return total;
    });
    scrubber->start();
  }

  ft::FaultCampaign::Wiring wiring;
  wiring.replicator = &harness.replicator();
  wiring.selector = &harness.selector();
  wiring.processes = replicas;
  if (with_noc) wiring.noc = &platform->noc();
  // Control-plane targets are wired unconditionally: a storm may attack the
  // protection machinery whether or not the defenses are armed — that
  // asymmetry is exactly what the ablation demos measure.
  if (supervisor) wiring.supervisor = &*supervisor;
  wiring.scrubbables = {&harness.replicator(), &harness.selector()};
  // Appended last (like the scrub walk) so pinned global word indices hold.
  if (reconfigurator) wiring.scrubbables.push_back(&*reconfigurator);
  wiring.flight_ring = &ring;
  ft::FaultCampaign campaign(simulator, wiring);
  InjectionTimestamper timestamper;
  if (supervisor) {
    timestamper.supervisor = &*supervisor;
    timestamper.campaign = campaign.trace_subject();
    simulator.trace().subscribe(&timestamper, trace::bit(trace::EventKind::kInjection));
  }
  for (const ft::FaultSpec& spec : plan.faults) campaign.add(spec);
  campaign.arm();

  try {
    net.run_until(plan.run_length);
  } catch (const util::ContractViolation& violation) {
    // The run died mid-simulation. Capture what we have — the artifact's
    // flight recorder is most valuable exactly here.
    obs.contract_violation = violation.what();
  }

  // Harvest. Deliver staged deferred events first so the ring and counter
  // totals reflect the complete run.
  simulator.trace().flush();
  if (supervisor) {
    obs.transitions = supervisor->transitions();
    obs.final_health[0] = supervisor->health(ft::ReplicaIndex::kReplica1);
    obs.final_health[1] = supervisor->health(ft::ReplicaIndex::kReplica2);
  } else {
    // Without a supervisor the channels' verdicts are the conviction log.
    obs.n_detections = harness.detections().records;
  }
  obs.vote_conflicts = harness.selector().vote_conflicts();
  obs.votes_outvoted = harness.selector().votes_outvoted();
  obs.injections = campaign.injections();
  obs.events_processed = simulator.events_processed();
  obs.flight_total_events = ring.total_events();
  obs.flight_events = ring.events();
  obs.flight_dropped = ring.dropped();
  obs.flight_subjects.reserve(simulator.trace().subject_count());
  for (std::size_t id = 0; id < simulator.trace().subject_count(); ++id) {
    obs.flight_subjects.push_back(
        simulator.trace().subject_name(static_cast<trace::SubjectId>(id)));
  }
  harness.replicator().publish_metrics(simulator.trace().metrics());
  harness.selector().publish_metrics(simulator.trace().metrics());
  obs.metrics = simulator.trace().metrics();

  obs.reconfig = rc;
  if (reconfigurator) {
    obs.reconfig_windows = reconfigurator->stats().windows_completed;
    obs.reconfig_targets = reconfigurator->stats().targets_applied;
    obs.reconfig_clamped = reconfigurator->stats().clamped;
  }

  obs.control_plane = cp;
  obs.heartbeats = heartbeat_monitor.count;
  obs.last_heartbeat = heartbeat_monitor.last;
  obs.watchdog_resets = watchdog ? watchdog->total_resets() : 0;
  obs.scrub_repairs = scrubber ? scrubber->total_repairs() : 0;
  obs.flight_ring_resyncs = scrubber ? scrubber->ring_resyncs() : 0;

  simulator.trace().unsubscribe(&ring);
  simulator.trace().unsubscribe(&counters);
  simulator.trace().unsubscribe(&restart_counter);
  simulator.trace().unsubscribe(&heartbeat_monitor);
  if (supervisor) simulator.trace().unsubscribe(&timestamper);
  return obs;
}

RunObservation run_golden(std::uint64_t seed, rtc::TimeNs run_length,
                          const ReconfigOptions& reconfig, int nreplica) {
  StormPlan golden;
  golden.seed = seed;
  golden.run_length = run_length;
  RunOptions options;
  options.reconfig = reconfig;
  options.nreplica = nreplica;
  return run_storm(golden, options);
}

}  // namespace sccft::chaos
